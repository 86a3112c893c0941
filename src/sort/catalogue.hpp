// The sort catalogue: every sort the experiment harness, the job server,
// the race checker and the differential battery run, under one name each
// and behind one dispatch. A given (algorithm, keys, seed) therefore sorts
// the same way — same pivots, same Machine calls — whichever of them runs
// it.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string_view>

#include "scratchpad/machine.hpp"

namespace tlm::sort {

// Parameterized test names print these values, so a new sort goes last.
enum class Algorithm {
  GnuSort,             // single-level parallel multiway mergesort baseline
  ScratchpadSeq,       // §III sequential recursive sort, mergesort inner
  ScratchpadPar,       // §IV-C theoretical parallel sort (Theorem 10)
  NMsort,              // §IV-D practical near-memory sort
  NMsortNaive,         // NMsort with eager bucket scatter (ablation A2)
  NMsortWriteEff,      // write-efficient NMsort (asymmetric ω variant)
  ScratchpadSeqQuick,  // §III with quicksort inner (Corollary 7 / A1)
};

inline constexpr Algorithm kAlgorithms[] = {
    Algorithm::GnuSort,        Algorithm::ScratchpadSeq,
    Algorithm::ScratchpadPar,  Algorithm::NMsort,
    Algorithm::NMsortNaive,    Algorithm::NMsortWriteEff,
    Algorithm::ScratchpadSeqQuick};

// The algorithm's one name, which tools print and parse_algorithm reads.
const char* to_string(Algorithm a);
std::optional<Algorithm> parse_algorithm(std::string_view name);

// Sorts `input` into `output` (the same size, disjoint) on `m`. The sorts
// that work in place copy `input` into `output` and sort it there; the
// others write every slot of `output`. Each sort derives its pivot seed
// from `seed`.
void sort_into(Machine& m, Algorithm a, std::span<const std::uint64_t> input,
               std::span<std::uint64_t> output, std::uint64_t seed);

}  // namespace tlm::sort
