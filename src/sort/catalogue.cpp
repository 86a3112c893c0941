#include "sort/catalogue.hpp"

#include <algorithm>
#include <utility>

#include "common/assert.hpp"
#include "sort/sort.hpp"

namespace tlm::sort {

namespace {

constexpr std::pair<Algorithm, const char*> kNames[] = {
    {Algorithm::GnuSort, "gnu"},
    {Algorithm::ScratchpadSeq, "scratchpad_seq"},
    {Algorithm::ScratchpadPar, "scratchpad_par"},
    {Algorithm::NMsort, "nmsort"},
    {Algorithm::NMsortNaive, "nmsort_eager"},
    {Algorithm::NMsortWriteEff, "write_eff"},
    {Algorithm::ScratchpadSeqQuick, "scratchpad_seq_quick"},
};

// Each family mixes the run seed with its own constant, so two families
// sorting the same keys under one seed draw unrelated pivots.
constexpr std::uint64_t kNMsortSeedMix = 0x9e3779b97f4a7c15ULL;
constexpr std::uint64_t kScratchpadSeedMix = 0x517cc1b727220a95ULL;
constexpr std::uint64_t kParallelSeedMix = 0x2545f4914f6cdd1dULL;

}  // namespace

const char* to_string(Algorithm a) {
  for (const auto& [alg, name] : kNames)
    if (alg == a) return name;
  return "?";
}

std::optional<Algorithm> parse_algorithm(std::string_view name) {
  for (const auto& [alg, n] : kNames)
    if (name == n) return alg;
  return std::nullopt;
}

void sort_into(Machine& m, Algorithm a, std::span<const std::uint64_t> input,
               std::span<std::uint64_t> output, std::uint64_t seed) {
  TLM_REQUIRE(input.size() == output.size(),
              "a sort's output must hold its input");
  switch (a) {
    case Algorithm::GnuSort:
      std::copy(input.begin(), input.end(), output.begin());
      gnu_like_sort(m, output);
      return;
    case Algorithm::ScratchpadSeq:
    case Algorithm::ScratchpadSeqQuick: {
      ScratchpadSortOptions opt;
      opt.quicksort_inner = a == Algorithm::ScratchpadSeqQuick;
      opt.seed = seed ^ kScratchpadSeedMix;
      std::copy(input.begin(), input.end(), output.begin());
      scratchpad_sort(m, output, opt);
      return;
    }
    case Algorithm::ScratchpadPar: {
      ParallelScratchpadSortOptions opt;
      opt.seed = seed ^ kParallelSeedMix;
      std::copy(input.begin(), input.end(), output.begin());
      parallel_scratchpad_sort(m, output, opt);
      return;
    }
    case Algorithm::NMsort:
    case Algorithm::NMsortNaive: {
      NMSortOptions opt;
      opt.use_bucket_metadata = a == Algorithm::NMsort;
      opt.seed = seed ^ kNMsortSeedMix;
      nm_sort_into(m, input, output, opt);
      return;
    }
    case Algorithm::NMsortWriteEff: {
      WESortOptions opt;
      opt.seed = seed ^ kNMsortSeedMix;
      we_sort_into(m, input, output, opt);
      return;
    }
  }
}

}  // namespace tlm::sort
