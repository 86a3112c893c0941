// Randomized differential harness: every sort in the catalogue
// (sort/catalogue.hpp) is run against std::stable_sort as the oracle,
// across adversarial key distributions (sorted, reverse, all-equal,
// few-distinct, organ-pipe, Zipf) and machine geometries (tiny scratchpad,
// B = rhoB i.e. rho = 1, single thread). Each trial's seed makes its keys
// and, through the catalogue, the sort's pivot seed. Any divergence prints
// the sort, distribution, and seed so the exact failing case replays
// deterministically.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "scratchpad/machine.hpp"
#include "sort/catalogue.hpp"
#include "sort/sort.hpp"

namespace tlm::sort {
namespace {

// The parameterized test names carry these labels and the algorithm's
// value; both predate the catalogue's names and stay as they were.
const char* label(Algorithm a) {
  constexpr const char* kLabels[] = {
      "gnu_like_sort",    "scratchpad_sort", "parallel_scratchpad_sort",
      "nm_sort(meta)",    "nm_sort(scatter)", "we_sort",
      "scratchpad_sort(quick)"};
  return kLabels[static_cast<std::size_t>(a)];
}

enum class Dist { Sorted, Reverse, AllEqual, FewDistinct, OrganPipe, Zipf };

constexpr Dist kDists[] = {Dist::Sorted,      Dist::Reverse,
                           Dist::AllEqual,    Dist::FewDistinct,
                           Dist::OrganPipe,   Dist::Zipf};

const char* name(Dist d) {
  switch (d) {
    case Dist::Sorted: return "sorted";
    case Dist::Reverse: return "reverse";
    case Dist::AllEqual: return "all-equal";
    case Dist::FewDistinct: return "few-distinct";
    case Dist::OrganPipe: return "organ-pipe";
    case Dist::Zipf: return "zipf";
  }
  return "?";
}

std::vector<std::uint64_t> make_input(Dist d, std::size_t n,
                                      std::uint64_t seed) {
  std::vector<std::uint64_t> v(n);
  Xoshiro256 rng(seed);
  switch (d) {
    case Dist::Sorted:
      for (std::size_t i = 0; i < n; ++i) v[i] = i;
      break;
    case Dist::Reverse:
      for (std::size_t i = 0; i < n; ++i) v[i] = n - i;
      break;
    case Dist::AllEqual:
      std::fill(v.begin(), v.end(), 7);
      break;
    case Dist::FewDistinct:
      for (auto& x : v) x = rng.below(4);
      break;
    case Dist::OrganPipe:
      for (std::size_t i = 0; i < n; ++i) v[i] = std::min(i, n - i);
      break;
    case Dist::Zipf:
      // Zipf-like: rank r drawn uniformly, key = n / (r + 1) gives a
      // heavy head (many copies of large keys) and a long sparse tail.
      for (auto& x : v)
        x = static_cast<std::uint64_t>(n) / (rng.below(n ? n : 1) + 1);
      break;
  }
  return v;
}

TwoLevelConfig diff_config(double rho, std::size_t threads,
                           std::uint64_t near_cap) {
  TwoLevelConfig cfg = test_config(rho);
  cfg.near_capacity = near_cap;
  cfg.cache_bytes = 32 * KiB;
  cfg.threads = threads;
  return cfg;
}

// One differential trial: generate, sort through the catalogue, compare
// against the std::stable_sort oracle.
void differential_trial(const TwoLevelConfig& cfg, Algorithm a, Dist d,
                        std::size_t n, std::uint64_t seed) {
  Machine m(cfg);
  const auto keys = make_input(d, n, seed);
  auto oracle = keys;
  std::stable_sort(oracle.begin(), oracle.end());
  std::vector<std::uint64_t> out(n);
  sort_into(m, a, keys, out, seed);
  ASSERT_EQ(out, oracle) << to_string(a)
                         << " diverged from std::stable_sort on " << name(d)
                         << " n=" << n << " seed=" << seed
                         << " threads=" << cfg.threads;
}

// Every sort prints and parses under one name; the CI's racecheck lane
// captures by the name "nmsort".
TEST(SortCatalogue, NamesRoundTrip) {
  for (const Algorithm a : kAlgorithms)
    EXPECT_EQ(parse_algorithm(to_string(a)), a) << to_string(a);
  EXPECT_EQ(parse_algorithm("nmsort"), Algorithm::NMsort);
  EXPECT_EQ(parse_algorithm("bogosort"), std::nullopt);
  EXPECT_EQ(parse_algorithm(""), std::nullopt);
}

// ---- full cross product: backend x distribution ---------------------------

class SortDifferential
    : public ::testing::TestWithParam<std::tuple<Algorithm, Dist>> {};

TEST_P(SortDifferential, MatchesStableSortOracle) {
  const auto [a, d] = GetParam();
  // Randomized sizes around the interesting regimes: sub-chunk, a few
  // chunks, and enough data for multi-batch Phase 2 in NMsort.
  Xoshiro256 rng(0xd1ffu * (static_cast<std::uint64_t>(a) + 1) +
                 static_cast<std::uint64_t>(d));
  const std::size_t sizes[] = {1 + rng.below(64), 1000 + rng.below(5000),
                               120'000 + rng.below(60'000)};
  for (std::size_t n : sizes)
    differential_trial(diff_config(4.0, 4, 1 * MiB), a, d, n, rng.next());
}

TEST_P(SortDifferential, MatchesOracleWithOverlapDma) {
  const auto [a, d] = GetParam();
  // Same comparison with the pipelined Phase-2 staging enabled: the
  // double-buffered gather path must never change the sorted output.
  TwoLevelConfig cfg = diff_config(4.0, 4, 1 * MiB);
  cfg.overlap_dma = true;
  differential_trial(cfg, a, d, 90'000, 0xbeef + static_cast<int>(d));
}

INSTANTIATE_TEST_SUITE_P(
    Backends, SortDifferential,
    ::testing::Combine(::testing::ValuesIn(kAlgorithms),
                       ::testing::ValuesIn(kDists)),
    [](const ::testing::TestParamInfo<SortDifferential::ParamType>& info) {
      std::string s = std::string(label(std::get<0>(info.param))) + "_" +
                      name(std::get<1>(info.param));
      for (char& c : s)
        if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
      return s;
    });

// ---- geometry variants ----------------------------------------------------

class SortGeometry : public ::testing::TestWithParam<Algorithm> {};

TEST_P(SortGeometry, TinyScratchpad) {
  // M barely larger than the cache: forces maximal chunk counts and the
  // deepest recursions / largest fan-ins every backend supports.
  const TwoLevelConfig cfg = diff_config(4.0, 4, 256 * KiB);
  differential_trial(cfg, GetParam(), Dist::FewDistinct, 100'000, 11);
  differential_trial(cfg, GetParam(), Dist::Zipf, 60'000, 12);
}

TEST_P(SortGeometry, UnitRhoBlocks) {
  // B = rhoB: near blocks no wider than far blocks (rho = 1), the
  // degenerate geometry where the scratchpad has no bandwidth advantage.
  const TwoLevelConfig cfg = diff_config(1.0, 4, 1 * MiB);
  differential_trial(cfg, GetParam(), Dist::OrganPipe, 80'000, 21);
}

TEST_P(SortGeometry, SingleThread) {
  const TwoLevelConfig cfg = diff_config(4.0, 1, 1 * MiB);
  differential_trial(cfg, GetParam(), Dist::AllEqual, 50'000, 31);
  differential_trial(cfg, GetParam(), Dist::Reverse, 50'000, 32);
}

INSTANTIATE_TEST_SUITE_P(Backends, SortGeometry,
                         ::testing::ValuesIn(kAlgorithms),
                         [](const ::testing::TestParamInfo<Algorithm>& info) {
                           std::string s = label(info.param);
                           for (char& c : s)
                             if (!std::isalnum(static_cast<unsigned char>(c)))
                               c = '_';
                           return s;
                         });

// ---- write-efficient NMsort: omega invariance and the far-write win -------

// omega is a *cost* knob: it must change charged time, never the sorted
// bytes. Every distribution is replayed at omega in {1, 4, 16} against the
// oracle; since the oracle is fixed, matching it at each omega also proves
// the outputs are bit-identical across omega.
class WriteEfficientOmega
    : public ::testing::TestWithParam<std::tuple<double, Dist>> {};

TEST_P(WriteEfficientOmega, OutputInvariantAcrossOmega) {
  const auto [omega, d] = GetParam();
  TwoLevelConfig cfg = diff_config(4.0, 4, 1 * MiB);
  cfg.far_write_cost = omega;
  differential_trial(cfg, Algorithm::NMsortWriteEff, d, 130'000, 0xa5a5);
}

INSTANTIATE_TEST_SUITE_P(
    Omega, WriteEfficientOmega,
    ::testing::Combine(::testing::Values(1.0, 4.0, 16.0),
                       ::testing::ValuesIn(kDists)),
    [](const ::testing::TestParamInfo<WriteEfficientOmega::ParamType>& info) {
      std::string s = "omega" +
                      std::to_string(static_cast<int>(
                          std::get<0>(info.param))) +
                      "_" + name(std::get<1>(info.param));
      for (char& c : s)
        if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
      return s;
    });

// Acceptance (ISSUE 8): at rho = 4 the write-efficient plan must move
// strictly fewer bytes into far memory than stock NMsort on the same input
// — it writes each element's final position once where stock NMsort also
// writes the sorted-run area.
TEST(WriteEfficientAcceptance, FewerFarWritesThanStockNMsort) {
  const TwoLevelConfig cfg = diff_config(4.0, 4, 1 * MiB);
  const std::size_t n = 200'000;
  std::vector<std::uint64_t> keys(n);
  Xoshiro256 rng(0x77);
  for (auto& k : keys) k = rng.next();

  std::vector<std::uint64_t> we_out(n), nm_out(n);
  std::uint64_t we_writes = 0, nm_writes = 0;
  {
    Machine m(cfg);
    we_sort_into(m, std::span<const std::uint64_t>(keys),
                 std::span<std::uint64_t>(we_out));
    m.end_phase();
    we_writes = m.stats().total.far_write_bytes();
  }
  {
    Machine m(cfg);
    nm_sort_into(m, std::span<const std::uint64_t>(keys),
                 std::span<std::uint64_t>(nm_out));
    m.end_phase();
    nm_writes = m.stats().total.far_write_bytes();
  }
  EXPECT_EQ(we_out, nm_out) << "variants disagree on the sorted output";
  EXPECT_LT(we_writes, nm_writes)
      << "write-efficient NMsort must write less far memory than stock";
}

// ---- acceptance: skew cannot serialize Phase 2 ----------------------------

TEST(SortDifferentialAcceptance, AllEqualKeysSplitPhase2AcrossAllThreads) {
  // With every key identical, a value-based splitter would hand one thread
  // the entire merge. The merge-path partitioner must still split Phase 2
  // exactly: recorded imbalance == 1.0 (max slice == ideal slice).
  TwoLevelConfig cfg = diff_config(4.0, 8, 1 * MiB);
  Machine m(cfg);
  const std::size_t n = 300'000;
  std::vector<std::uint64_t> keys(n, 7), out(n);
  nm_sort_into(m, std::span<const std::uint64_t>(keys),
               std::span<std::uint64_t>(out));
  EXPECT_TRUE(std::all_of(out.begin(), out.end(),
                          [](std::uint64_t k) { return k == 7; }));
  const MachineStats st = m.stats();
  bool saw_phase2 = false;
  for (const PhaseStats& p : st.phases) {
    if (p.name != "nmsort.phase2") continue;
    saw_phase2 = true;
    EXPECT_GT(p.partition_splits(), 0u);
    EXPECT_GE(p.partition_imbalance_max(), 1.0);
    EXPECT_LE(p.partition_imbalance_max(), 1.0 + 1e-9)
        << "all-equal keys must split the Phase-2 merge exactly";
  }
  EXPECT_TRUE(saw_phase2);
}

}  // namespace
}  // namespace tlm::sort
