// Exact output check for the sort kernels, in linear passes.
//
// is_sorted_permutation(input, output) answers exactly
// `output == std::sort(copy of input)` without a comparison sort. A size
// mismatch or an unsorted `output` fails in one pass. Otherwise the sorted
// `output` supplies the bucket boundaries for a scatter of `input` (an MSD
// radix pass keyed on the output's own key range), and the buckets are
// compared with the runs of `output` they must equal: by insertion when
// they hold at most 16 keys, else by the same split on their own range.
// Each level costs O(n) and narrows the range by at least 5 bits, so there
// are at most 13 levels; uniform keys need one. It allocates two key
// buffers and one counter array, and takes at most 2^32 - 1 keys.
//
// The check shares no code with the kernels it checks (no host sort,
// american-flag sort or loser tree), so a kernel bug cannot verify itself.
#pragma once

#include <cstdint>
#include <span>

namespace tlm {

bool is_sorted_permutation(std::span<const std::uint64_t> input,
                           std::span<const std::uint64_t> output);

}  // namespace tlm
