// Property-based tests for every sorting entry point: correctness across a
// parameter grid (size × threads × rho), adversarial input patterns, custom
// comparators, options and the geometry each Machine derives, and
// accounting invariants.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <limits>
#include <tuple>
#include <vector>

#include "common/rng.hpp"
#include "scratchpad/machine.hpp"
#include "sort/sort.hpp"

namespace tlm::sort {
namespace {

TwoLevelConfig grid_config(double rho, std::size_t threads) {
  TwoLevelConfig cfg = test_config(rho);
  cfg.near_capacity = 1 * MiB;  // small on purpose: forces many chunks
  cfg.cache_bytes = 32 * KiB;
  cfg.threads = threads;
  return cfg;
}

enum class Pattern {
  Random,
  Sorted,
  Reverse,
  AllEqual,
  FewDistinct,
  OrganPipe,
  NearlySorted,
  SharedHighBytes,  // one constant plus below(256): radix reaches digit 0
  ExtremeKeys       // only 0 and UINT64_MAX
};

const char* name(Pattern p) {
  switch (p) {
    case Pattern::Random: return "random";
    case Pattern::Sorted: return "sorted";
    case Pattern::Reverse: return "reverse";
    case Pattern::AllEqual: return "all-equal";
    case Pattern::FewDistinct: return "few-distinct";
    case Pattern::OrganPipe: return "organ-pipe";
    case Pattern::NearlySorted: return "nearly-sorted";
    case Pattern::SharedHighBytes: return "shared-high-bytes";
    case Pattern::ExtremeKeys: return "extreme-keys";
  }
  return "?";
}

std::vector<std::uint64_t> make_input(Pattern p, std::size_t n,
                                      std::uint64_t seed) {
  std::vector<std::uint64_t> v(n);
  Xoshiro256 rng(seed);
  switch (p) {
    case Pattern::Random:
      for (auto& x : v) x = rng.next();
      break;
    case Pattern::Sorted:
      for (std::size_t i = 0; i < n; ++i) v[i] = i;
      break;
    case Pattern::Reverse:
      for (std::size_t i = 0; i < n; ++i) v[i] = n - i;
      break;
    case Pattern::AllEqual:
      std::fill(v.begin(), v.end(), 42);
      break;
    case Pattern::FewDistinct:
      for (auto& x : v) x = rng.below(5);
      break;
    case Pattern::OrganPipe:
      for (std::size_t i = 0; i < n; ++i) v[i] = std::min(i, n - i);
      break;
    case Pattern::NearlySorted:
      for (std::size_t i = 0; i < n; ++i) v[i] = i;
      for (std::size_t s = 0; s < n / 64 + 1; ++s)
        std::swap(v[rng.below(n)], v[rng.below(n)]);
      break;
    case Pattern::SharedHighBytes:
      for (auto& x : v) x = 0x5eed'c0de'0000'0000ULL + rng.below(256);
      break;
    case Pattern::ExtremeKeys:
      for (auto& x : v)
        x = rng.below(2) ? std::numeric_limits<std::uint64_t>::max() : 0;
      break;
  }
  return v;
}

// ---- grid: correctness across size × threads × rho ------------------------

class SortGrid
    : public ::testing::TestWithParam<std::tuple<std::size_t, std::size_t,
                                                 double>> {};

TEST_P(SortGrid, NmSortIntoSortsEverything) {
  const auto [n, threads, rho] = GetParam();
  Machine m(grid_config(rho, threads));
  auto keys = random_keys(n, 1000 + n);
  auto expect = keys;
  std::sort(expect.begin(), expect.end());
  std::vector<std::uint64_t> out(n);
  nm_sort_into(m, std::span<const std::uint64_t>(keys),
               std::span<std::uint64_t>(out));
  EXPECT_EQ(out, expect);
}

TEST_P(SortGrid, BaselineSortsEverything) {
  const auto [n, threads, rho] = GetParam();
  Machine m(grid_config(rho, threads));
  auto keys = random_keys(n, 2000 + n);
  auto expect = keys;
  std::sort(expect.begin(), expect.end());
  gnu_like_sort(m, std::span<std::uint64_t>(keys));
  EXPECT_EQ(keys, expect);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, SortGrid,
    ::testing::Combine(::testing::Values(std::size_t{1}, std::size_t{2},
                                         std::size_t{100}, std::size_t{4096},
                                         std::size_t{100'000},
                                         std::size_t{500'000}),
                       ::testing::Values(std::size_t{1}, std::size_t{3},
                                         std::size_t{8}),
                       ::testing::Values(2.0, 8.0)));

// ---- adversarial input patterns -------------------------------------------

class SortPatterns : public ::testing::TestWithParam<Pattern> {};

TEST_P(SortPatterns, NmSortHandlesPattern) {
  Machine m(grid_config(4.0, 4));
  auto keys = make_input(GetParam(), 200'000, 5);
  auto expect = keys;
  std::sort(expect.begin(), expect.end());
  std::vector<std::uint64_t> out(keys.size());
  nm_sort_into(m, std::span<const std::uint64_t>(keys),
               std::span<std::uint64_t>(out));
  EXPECT_EQ(out, expect) << name(GetParam());
}

TEST_P(SortPatterns, BaselineHandlesPattern) {
  Machine m(grid_config(4.0, 4));
  auto keys = make_input(GetParam(), 100'000, 9);
  auto expect = keys;
  std::sort(expect.begin(), expect.end());
  gnu_like_sort(m, std::span<std::uint64_t>(keys));
  EXPECT_EQ(keys, expect) << name(GetParam());
}

TEST_P(SortPatterns, SequentialScratchpadSortHandlesPattern) {
  Machine m(grid_config(4.0, 2));
  auto keys = make_input(GetParam(), 150'000, 6);
  auto expect = keys;
  std::sort(expect.begin(), expect.end());
  scratchpad_sort(m, std::span<std::uint64_t>(keys));
  EXPECT_EQ(keys, expect) << name(GetParam());
}

TEST_P(SortPatterns, NaiveScatterVariantHandlesPattern) {
  Machine m(grid_config(4.0, 4));
  auto keys = make_input(GetParam(), 120'000, 7);
  auto expect = keys;
  std::sort(expect.begin(), expect.end());
  std::vector<std::uint64_t> out(keys.size());
  NMSortOptions opt;
  opt.use_bucket_metadata = false;
  nm_sort_into(m, std::span<const std::uint64_t>(keys),
               std::span<std::uint64_t>(out), opt);
  EXPECT_EQ(out, expect) << name(GetParam());
}

INSTANTIATE_TEST_SUITE_P(Patterns, SortPatterns,
                         ::testing::Values(Pattern::Random, Pattern::Sorted,
                                           Pattern::Reverse,
                                           Pattern::AllEqual,
                                           Pattern::FewDistinct,
                                           Pattern::OrganPipe,
                                           Pattern::NearlySorted,
                                           Pattern::SharedHighBytes,
                                           Pattern::ExtremeKeys));

// ---- custom comparators -----------------------------------------------------

TEST(SortComparators, DescendingOrder) {
  Machine m(grid_config(4.0, 4));
  auto keys = random_keys(100'000, 8);
  auto expect = keys;
  std::sort(expect.begin(), expect.end(), std::greater<std::uint64_t>{});
  std::vector<std::uint64_t> out(keys.size());
  nm_sort_into(m, std::span<const std::uint64_t>(keys),
               std::span<std::uint64_t>(out), {},
               std::greater<std::uint64_t>{});
  EXPECT_EQ(out, expect);
}

TEST(SortComparators, SortByLowBitsOnly) {
  // A comparator with many ties across the full key range.
  auto cmp = [](std::uint64_t a, std::uint64_t b) {
    return (a & 0xff) < (b & 0xff);
  };
  Machine m(grid_config(4.0, 4));
  auto keys = random_keys(80'000, 9);
  std::vector<std::uint64_t> out(keys.size());
  nm_sort_into(m, std::span<const std::uint64_t>(keys),
               std::span<std::uint64_t>(out), {}, cmp);
  EXPECT_TRUE(std::is_sorted(out.begin(), out.end(), cmp));
  // Same multiset.
  auto a = keys, b = out;
  std::sort(a.begin(), a.end());
  std::sort(b.begin(), b.end());
  EXPECT_EQ(a, b);
}

// ---- options and derived geometry ------------------------------------------

TEST(SortOptions, ChunkAndBucketsFollowTheMachine) {
  // The scratchpad fixes the chunk (half of it net of the metadata slice),
  // and chunks × threads the bucket count: at its floor of 64, scaled, and
  // at the metadata slice's cap.
  auto keys = random_keys(300'000, 10);
  auto expect = keys;
  std::sort(expect.begin(), expect.end());
  struct Point {
    std::uint64_t near_capacity;
    std::size_t threads;
    std::uint64_t chunk_elems;
    std::size_t num_buckets;
  };
  for (const Point& p :
       {Point{1 * MiB, 1, 61'440, 64}, Point{1 * MiB, 4, 61'440, 160},
        Point{256 * KiB, 1, 12'288, 200}, Point{256 * KiB, 4, 12'288, 682}}) {
    SCOPED_TRACE(testing::Message() << "M=" << p.near_capacity
                                    << " threads=" << p.threads);
    TwoLevelConfig cfg = grid_config(4.0, p.threads);
    cfg.near_capacity = p.near_capacity;
    Machine m(cfg);
    const detail::NMGeometry g =
        detail::nm_geometry<std::uint64_t>(m, keys.size());
    EXPECT_EQ(g.chunk_elems, p.chunk_elems);
    EXPECT_EQ(g.num_buckets, p.num_buckets);
    std::vector<std::uint64_t> out(keys.size());
    nm_sort_into(m, std::span<const std::uint64_t>(keys),
                 std::span<std::uint64_t>(out));
    EXPECT_EQ(out, expect);
  }
}

TEST(SortOptions, SkewedKeysTriggerOversizedBucketFallback) {
  // Half the keys are equal: their bucket outgrows a Phase-2 batch (the
  // usable scratchpad, 122'880 keys), so it merges straight from far
  // memory.
  Machine m(grid_config(4.0, 4));
  auto keys = random_keys(400'000, 11);
  for (std::size_t i = 0; i < keys.size(); i += 2) keys[i] = 42;
  auto expect = keys;
  std::sort(expect.begin(), expect.end());
  ASSERT_LT(detail::nm_geometry<std::uint64_t>(m, keys.size()).batch_elems,
            keys.size() / 2);
  std::vector<std::uint64_t> out(keys.size());
  nm_sort_into(m, std::span<const std::uint64_t>(keys),
               std::span<std::uint64_t>(out));
  EXPECT_EQ(out, expect);
  EXPECT_GT(m.stager_stats().fallback_direct, 0u);
}

TEST(SortOptions, InnerSortMergesInPasses) {
  // A 32 KiB cache gives the in-scratchpad sort its smallest fan-in, 4,
  // over 512-key runs, so each chunk takes several merge passes.
  Machine m(grid_config(4.0, 4));
  auto keys = random_keys(200'000, 12);
  auto expect = keys;
  std::sort(expect.begin(), expect.end());
  const detail::RunLayout L = detail::plan_runs<std::uint64_t>(
      m, detail::nm_geometry<std::uint64_t>(m, keys.size()).chunk_elems);
  EXPECT_EQ(L.fan, 4u);
  EXPECT_EQ(L.run_elems, 512u);
  EXPECT_GT(L.passes, 2u);
  std::vector<std::uint64_t> out(keys.size());
  nm_sort_into(m, std::span<const std::uint64_t>(keys),
               std::span<std::uint64_t>(out));
  EXPECT_EQ(out, expect);
}

TEST(SortOptions, SeedChangesPivotsNotResult) {
  Machine m(grid_config(4.0, 4));
  auto keys = random_keys(150'000, 13);
  auto expect = keys;
  std::sort(expect.begin(), expect.end());
  for (std::uint64_t seed : {1ULL, 999ULL, ~0ULL}) {
    NMSortOptions opt;
    opt.seed = seed;
    std::vector<std::uint64_t> out(keys.size());
    nm_sort_into(m, std::span<const std::uint64_t>(keys),
                 std::span<std::uint64_t>(out), opt);
    EXPECT_EQ(out, expect) << "seed " << seed;
  }
}

TEST(SortOptions, QuicksortInnerSortsCorrectly) {
  Machine m(grid_config(4.0, 2));
  auto keys = random_keys(250'000, 14);
  auto expect = keys;
  std::sort(expect.begin(), expect.end());
  ScratchpadSortOptions opt;
  opt.quicksort_inner = true;
  scratchpad_sort(m, std::span<std::uint64_t>(keys), opt);
  EXPECT_EQ(keys, expect);
}

TEST(SortOptions, ExplicitSampleSizeRecursion) {
  Machine m(grid_config(4.0, 2));
  auto keys = random_keys(300'000, 15);
  auto expect = keys;
  std::sort(expect.begin(), expect.end());
  for (std::size_t s : {1u, 3u, 64u}) {
    auto v = keys;
    ScratchpadSortOptions opt;
    opt.sample_size = s;  // tiny samples force deep recursion
    scratchpad_sort(m, std::span<std::uint64_t>(v), opt);
    EXPECT_EQ(v, expect) << "sample " << s;
  }
}

// ---- Lemma 5: recursion depth ------------------------------------------------

TEST(Lemma5, DepthTracksLogBaseSampleSize) {
  // fit ≈ 60K elements at 1 MiB scratchpad; N/fit = 16. With m = 4 pivots
  // per round the bound is O(log_4 16) = O(2); with m = 1024 one round
  // suffices. Random keys, so the w.h.p. statement should hold comfortably.
  Machine m(grid_config(4.0, 4));
  auto keys = random_keys(960'000, 51);

  auto depth_with = [&](std::size_t sample) {
    auto v = keys;
    ScratchpadSortOptions opt;
    opt.sample_size = sample;
    const ScratchpadSortReport r =
        scratchpad_sort(m, std::span<std::uint64_t>(v), opt);
    EXPECT_TRUE(std::is_sorted(v.begin(), v.end()));
    EXPECT_EQ(r.fallbacks, 0u);
    return r.max_depth;
  };
  EXPECT_LE(depth_with(1024), 1u);
  const std::size_t d4 = depth_with(4);
  EXPECT_GE(d4, 2u);  // cannot split 16x with 5 buckets in one round
  EXPECT_LE(d4, 5u);  // Lemma 5: O(log_4 16) with small constants
}

TEST(Lemma5, ReportCountsScansAndBuckets) {
  Machine m(grid_config(4.0, 4));
  auto keys = random_keys(400'000, 52);
  const ScratchpadSortReport r =
      scratchpad_sort(m, std::span<std::uint64_t>(keys));
  EXPECT_TRUE(std::is_sorted(keys.begin(), keys.end()));
  EXPECT_GE(r.bucketizing_scans, 4u);  // ~N/chunk groups at this geometry
  EXPECT_GT(r.buckets_created, 0u);
  EXPECT_EQ(r.max_depth, 1u);  // one round at N/fit ≈ 7 with 1024 pivots
}

TEST(Lemma5, DegenerateInputTripsTheSafetyValve) {
  // All-equal keys cannot be split by sampling; the recursion must stop at
  // max_depth and fall back rather than loop forever.
  Machine m(grid_config(4.0, 2));
  std::vector<std::uint64_t> keys(200'000, 7);
  ScratchpadSortOptions opt;
  opt.max_depth = 3;
  const ScratchpadSortReport r =
      scratchpad_sort(m, std::span<std::uint64_t>(keys), opt);
  EXPECT_TRUE(std::is_sorted(keys.begin(), keys.end()));
  EXPECT_LE(r.max_depth, 3u);
}

// ---- §IV-C theoretical parallel sort ---------------------------------------

TEST_P(SortPatterns, ParallelScratchpadSortHandlesPattern) {
  Machine m(grid_config(4.0, 4));
  auto keys = make_input(GetParam(), 150'000, 44);
  auto expect = keys;
  std::sort(expect.begin(), expect.end());
  parallel_scratchpad_sort(m, std::span<std::uint64_t>(keys));
  EXPECT_EQ(keys, expect) << name(GetParam());
}

TEST(ParallelScratchpadSort, MatchesSequentialTrafficShape) {
  // Same recursion structure as the §III sort: far/near byte totals agree
  // within a small factor; only the distribution across threads differs.
  auto run_with = [&](bool parallel) {
    Machine m(grid_config(4.0, parallel ? 4 : 1));
    auto keys = random_keys(300'000, 45);
    if (parallel)
      parallel_scratchpad_sort(m, std::span<std::uint64_t>(keys));
    else
      scratchpad_sort(m, std::span<std::uint64_t>(keys));
    m.end_phase();
    EXPECT_TRUE(std::is_sorted(keys.begin(), keys.end()));
    return m.stats().total;
  };
  const auto seq = run_with(false);
  const auto par = run_with(true);
  const double far_ratio = static_cast<double>(par.far_bytes()) /
                           static_cast<double>(seq.far_bytes());
  EXPECT_GT(far_ratio, 0.5);
  EXPECT_LT(far_ratio, 2.0);
}

TEST(ParallelScratchpadSort, ComputeSpanShrinksWithThreads) {
  auto span_seconds = [&](std::size_t threads) {
    Machine m(grid_config(4.0, threads));
    auto keys = random_keys(400'000, 46);
    parallel_scratchpad_sort(m, std::span<std::uint64_t>(keys));
    m.end_phase();
    double comp = 0;
    for (const auto& ph : m.stats().phases) comp += ph.compute_s();
    return comp;
  };
  const double one = span_seconds(1);
  const double eight = span_seconds(8);
  EXPECT_GT(one, eight * 3.0);  // strong scaling, allowing imbalance slack
}

// ---- accounting invariants ---------------------------------------------------

TEST(SortAccounting, NmsortFarTrafficIsTwoPassesPlusMetadata) {
  Machine m(grid_config(4.0, 4));
  const std::size_t n = 400'000;
  auto keys = random_keys(n, 16);
  std::vector<std::uint64_t> out(n);
  nm_sort_into(m, std::span<const std::uint64_t>(keys),
               std::span<std::uint64_t>(out));
  m.end_phase();
  const auto tot = m.stats().total;
  const std::uint64_t payload = n * 8;
  // Exactly two far read passes (input, runs area) and two write passes
  // (runs area, output) plus small metadata.
  EXPECT_GE(tot.far_read_bytes(), 2 * payload);
  EXPECT_LE(tot.far_read_bytes(), 2.2 * payload);
  EXPECT_GE(tot.far_write_bytes(), 2 * payload);
  EXPECT_LE(tot.far_write_bytes(), 2.2 * payload);
}

TEST(SortAccounting, BaselineTrafficGrowsWithPassCount) {
  // Shrinking the cache adds merge passes and therefore far traffic.
  auto far_bytes = [&](std::uint64_t cache) {
    TwoLevelConfig cfg = grid_config(4.0, 4);
    cfg.cache_bytes = cache;
    Machine m(cfg);
    auto keys = random_keys(300'000, 17);
    gnu_like_sort(m, std::span<std::uint64_t>(keys));
    m.end_phase();
    return m.stats().total.far_bytes();
  };
  EXPECT_GT(far_bytes(16 * KiB), far_bytes(256 * KiB));
}

TEST(SortAccounting, NearTrafficScalesInverselyWithRhoInTime) {
  // Same machine geometry, different rho: byte counts equal, near seconds
  // scale as 1/rho.
  auto near_stats = [&](double rho) {
    TwoLevelConfig c = grid_config(rho, 4);
    c.near_latency = 0;  // isolate the bandwidth term from burst latency
    Machine m(c);
    auto keys = random_keys(200'000, 18);
    std::vector<std::uint64_t> out(keys.size());
    nm_sort_into(m, std::span<const std::uint64_t>(keys),
                 std::span<std::uint64_t>(out));
    m.end_phase();
    double near_s = 0;
    for (const auto& ph : m.stats().phases) near_s += ph.near_s();
    return std::pair<std::uint64_t, double>(m.stats().total.near_bytes(),
                                            near_s);
  };
  const auto [b2, t2] = near_stats(2.0);
  const auto [b8, t8] = near_stats(8.0);
  EXPECT_EQ(b2, b8);
  EXPECT_NEAR(t2 / t8, 4.0, 0.05);
}

TEST(SortAccounting, ScratchpadArenaFullyReleased) {
  Machine m(grid_config(4.0, 4));
  auto keys = random_keys(300'000, 19);
  std::vector<std::uint64_t> out(keys.size());
  nm_sort_into(m, std::span<const std::uint64_t>(keys),
               std::span<std::uint64_t>(out));
  EXPECT_EQ(m.near_arena().used(), 0u);
  EXPECT_GT(m.near_arena().high_water(), 0u);
}

TEST(SortAccounting, SingleChunkFastPathUsesOnlyTwoFarPasses) {
  TwoLevelConfig cfg = grid_config(4.0, 4);
  cfg.near_capacity = 8 * MiB;  // whole input fits
  Machine m(cfg);
  const std::size_t n = 100'000;
  auto keys = random_keys(n, 20);
  std::vector<std::uint64_t> out(n);
  nm_sort_into(m, std::span<const std::uint64_t>(keys),
               std::span<std::uint64_t>(out));
  m.end_phase();
  EXPECT_TRUE(std::is_sorted(out.begin(), out.end()));
  const auto tot = m.stats().total;
  EXPECT_LE(tot.far_read_bytes(), n * 8 * 11 / 10);   // one read pass
  EXPECT_LE(tot.far_write_bytes(), n * 8 * 11 / 10);  // one write pass
}

}  // namespace
}  // namespace tlm::sort
