// Unit tests for the common substrate: math helpers, RNG, thread pool,
// loser tree, tables, running stats.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <limits>
#include <numeric>
#include <utility>
#include <vector>

#include "common/histogram.hpp"
#include "common/loser_tree.hpp"
#include "common/math.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "common/table.hpp"
#include "common/thread_pool.hpp"
#include "common/units.hpp"

namespace tlm {
namespace {

TEST(Math, CeilDiv) {
  EXPECT_EQ(ceil_div(0, 4), 0u);
  EXPECT_EQ(ceil_div(1, 4), 1u);
  EXPECT_EQ(ceil_div(4, 4), 1u);
  EXPECT_EQ(ceil_div(5, 4), 2u);
  EXPECT_EQ(ceil_div(7, 1), 7u);
}

TEST(Math, ILog2) {
  EXPECT_EQ(ilog2(1), 0u);
  EXPECT_EQ(ilog2(2), 1u);
  EXPECT_EQ(ilog2(3), 1u);
  EXPECT_EQ(ilog2(1024), 10u);
  EXPECT_EQ(ilog2((1ULL << 63) + 5), 63u);
}

TEST(Math, NextPow2) {
  EXPECT_EQ(next_pow2(0), 1u);
  EXPECT_EQ(next_pow2(1), 1u);
  EXPECT_EQ(next_pow2(2), 2u);
  EXPECT_EQ(next_pow2(3), 4u);
  EXPECT_EQ(next_pow2(1025), 2048u);
}

TEST(Math, ClampedLogFloorsAtOne) {
  EXPECT_DOUBLE_EQ(clamped_log(2.0, 4.0), 1.0);   // log_4 2 = 0.5 -> clamp
  EXPECT_DOUBLE_EQ(clamped_log(16.0, 4.0), 2.0);  // exact
  EXPECT_THROW(clamped_log(-1.0, 2.0), std::invalid_argument);
}

TEST(Math, RoundUpDown) {
  EXPECT_EQ(round_up(13, 8), 16u);
  EXPECT_EQ(round_up(16, 8), 16u);
  EXPECT_EQ(round_down(13, 8), 8u);
  EXPECT_EQ(round_down(13, 0), 13u);
}

TEST(Rng, DeterministicPerSeed) {
  Xoshiro256 a(42), b(42), c(43);
  EXPECT_EQ(a.next(), b.next());
  EXPECT_NE(a.next(), c.next());
}

TEST(Rng, BelowIsInRange) {
  Xoshiro256 rng(7);
  for (int i = 0; i < 1000; ++i) EXPECT_LT(rng.below(17), 17u);
  EXPECT_THROW(rng.below(0), std::invalid_argument);
}

TEST(Rng, Uniform01Bounds) {
  Xoshiro256 rng(9);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform01();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, RandomKeysRoughlyUniform) {
  auto keys = random_keys(4096, 3);
  // Crude uniformity check: top bit should split the sample near-evenly.
  const auto high = std::count_if(keys.begin(), keys.end(),
                                  [](std::uint64_t k) { return k >> 63; });
  EXPECT_GT(high, 4096 / 2 - 300);
  EXPECT_LT(high, 4096 / 2 + 300);
}

TEST(ThreadPool, ChunkPartitionIsExact) {
  for (std::size_t n : {0u, 1u, 7u, 64u, 1000u}) {
    for (std::size_t p : {1u, 2u, 3u, 8u}) {
      std::size_t covered = 0;
      std::size_t prev_end = 0;
      for (std::size_t w = 0; w < p; ++w) {
        auto [lo, hi] = ThreadPool::chunk(n, w, p);
        EXPECT_EQ(lo, prev_end);
        EXPECT_LE(hi - lo, n / p + 1);
        covered += hi - lo;
        prev_end = hi;
      }
      EXPECT_EQ(covered, n);
    }
  }
}

TEST(ThreadPool, ParallelForCoversRange) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(257);
  pool.parallel_for(1, 257, [&](std::size_t, std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) hits[i].fetch_add(1);
  });
  EXPECT_EQ(hits[0].load(), 0);
  for (std::size_t i = 1; i < 257; ++i) EXPECT_EQ(hits[i].load(), 1);
}

TEST(ThreadPool, SpmdRunsEveryWorkerOnce) {
  ThreadPool pool(8);
  std::vector<std::atomic<int>> seen(8);
  pool.run_spmd([&](std::size_t w) { seen[w].fetch_add(1); });
  for (auto& s : seen) EXPECT_EQ(s.load(), 1);
}

TEST(ThreadPool, SingleWorkerRunsInline) {
  ThreadPool pool(1);
  const auto caller = std::this_thread::get_id();
  pool.run_spmd([&](std::size_t w) {
    EXPECT_EQ(w, 0u);
    EXPECT_EQ(std::this_thread::get_id(), caller);
  });
}

std::vector<std::uint64_t> merge_with_tree(
    const std::vector<std::vector<std::uint64_t>>& runs) {
  std::vector<LoserTree<std::uint64_t>::Run> rs;
  for (const auto& r : runs) rs.push_back({r.data(), r.data() + r.size()});
  LoserTree<std::uint64_t> tree(std::move(rs));
  std::vector<std::uint64_t> out;
  while (!tree.done()) out.push_back(tree.pop());
  return out;
}

TEST(LoserTree, MergesSortedRuns) {
  std::vector<std::vector<std::uint64_t>> runs = {
      {1, 4, 9}, {2, 3, 11}, {0, 10, 12}, {5, 6, 7, 8}};
  const auto out = merge_with_tree(runs);
  std::vector<std::uint64_t> expect(13);
  std::iota(expect.begin(), expect.end(), 0);
  EXPECT_EQ(out, expect);
}

TEST(LoserTree, SingleRun) {
  const auto out = merge_with_tree({{3, 5, 8}});
  EXPECT_EQ(out, (std::vector<std::uint64_t>{3, 5, 8}));
}

TEST(LoserTree, EmptyRunsMixedIn) {
  const auto out = merge_with_tree({{}, {2}, {}, {1, 3}, {}});
  EXPECT_EQ(out, (std::vector<std::uint64_t>{1, 2, 3}));
}

TEST(LoserTree, AllEmpty) {
  const auto out = merge_with_tree({{}, {}});
  EXPECT_TRUE(out.empty());
}

TEST(LoserTree, DuplicatesAreStableByRun) {
  std::vector<std::vector<std::uint64_t>> runs = {{5, 5}, {5}, {5, 5, 5}};
  const auto out = merge_with_tree(runs);
  EXPECT_EQ(out.size(), 6u);
  for (auto v : out) EXPECT_EQ(v, 5u);
}

TEST(LoserTree, SingleEmptyRun) {
  const auto out = merge_with_tree({{}});
  EXPECT_TRUE(out.empty());
}

TEST(LoserTree, FanInOneInterleavesPopAndTop) {
  std::vector<std::uint64_t> r{2, 4, 6};
  LoserTree<std::uint64_t> tree(
      std::vector<LoserTree<std::uint64_t>::Run>{
          {r.data(), r.data() + r.size()}});
  EXPECT_EQ(tree.top_run(), 0u);
  EXPECT_EQ(tree.top(), 2u);
  EXPECT_EQ(tree.pop(), 2u);
  EXPECT_EQ(tree.top(), 4u);
  EXPECT_EQ(tree.remaining(), 2u);
  EXPECT_EQ(tree.pop(), 4u);
  EXPECT_EQ(tree.pop(), 6u);
  EXPECT_TRUE(tree.done());
}

// Tagged element: comparisons see only the key, the test sees which run each
// element came from — the only way to actually observe tie-break order.
struct Tagged {
  std::uint64_t key;
  std::size_t run;
};
struct TaggedLess {
  bool operator()(const Tagged& a, const Tagged& b) const {
    return a.key < b.key;
  }
};

std::vector<Tagged> merge_tagged(
    const std::vector<std::vector<std::uint64_t>>& runs) {
  std::vector<std::vector<Tagged>> tagged(runs.size());
  std::vector<LoserTree<Tagged, TaggedLess>::Run> rs;
  for (std::size_t i = 0; i < runs.size(); ++i) {
    for (std::uint64_t v : runs[i]) tagged[i].push_back(Tagged{v, i});
    rs.push_back({tagged[i].data(), tagged[i].data() + tagged[i].size()});
  }
  LoserTree<Tagged, TaggedLess> tree(std::move(rs));
  std::vector<Tagged> out;
  while (!tree.done()) out.push_back(tree.pop());
  return out;
}

// Sorted by key; among equal keys, ordered by source run index — with the
// run's own elements in their original order. That is exactly what a
// sequential stable merge (std::merge folded left) produces.
void expect_stable(const std::vector<Tagged>& out) {
  for (std::size_t i = 1; i < out.size(); ++i) {
    ASSERT_LE(out[i - 1].key, out[i].key);
    if (out[i - 1].key == out[i].key) {
      ASSERT_LE(out[i - 1].run, out[i].run)
          << "tie on key " << out[i].key << " emitted out of run order";
    }
  }
}

TEST(LoserTree, TieBreakIsByRunIndex) {
  const auto out =
      merge_tagged({{5, 5}, {3, 5}, {5}, {5, 7}});
  ASSERT_EQ(out.size(), 7u);
  expect_stable(out);
  // The five 5s specifically: two from run 0, then runs 1, 2, 3.
  std::vector<std::size_t> five_runs;
  for (const Tagged& t : out)
    if (t.key == 5) five_runs.push_back(t.run);
  EXPECT_EQ(five_runs, (std::vector<std::size_t>{0, 0, 1, 2, 3}));
}

TEST(LoserTree, DuplicatesAtRunBoundariesStayStable) {
  // Equal keys sit at the ends of some runs and the starts of others, so a
  // popped run re-enters the tournament against an equal head repeatedly.
  const auto out = merge_tagged(
      {{1, 4, 4}, {4, 4, 8}, {0, 4}, {4}, {4, 9}});
  expect_stable(out);
}

TEST(LoserTree, ZeroLengthRunsWithTies) {
  // Empty runs padded into the tournament must always lose, including
  // against equal keys on either side of them.
  const auto out = merge_tagged({{}, {7, 7}, {}, {7}, {}, {}, {7, 7}});
  ASSERT_EQ(out.size(), 5u);
  expect_stable(out);
  EXPECT_EQ(out.front().run, 1u);
  EXPECT_EQ(out.back().run, 6u);
}

TEST(LoserTree, RandomizedStabilityWithEmptiesAndDuplicates) {
  Xoshiro256 rng(1234);
  for (int trial = 0; trial < 30; ++trial) {
    const std::size_t k = 1 + rng.below(10);
    std::vector<std::vector<std::uint64_t>> runs(k);
    std::size_t total = 0;
    for (auto& r : runs) {
      if (rng.below(4) == 0) continue;  // zero-length run
      const std::size_t len = rng.below(40);
      for (std::size_t i = 0; i < len; ++i) r.push_back(rng.below(8));
      std::sort(r.begin(), r.end());
      total += len;
    }
    const auto out = merge_tagged(runs);
    ASSERT_EQ(out.size(), total) << "trial " << trial;
    expect_stable(out);
  }
}

// Pops every element of a LoserTree<T> over `runs`, each paired with the
// run top_run() named just before the pop.
template <typename T>
std::vector<std::pair<T, std::size_t>> merge_by_top_run(
    const std::vector<std::vector<T>>& runs) {
  std::vector<typename LoserTree<T>::Run> rs;
  for (const auto& r : runs) rs.push_back({r.data(), r.data() + r.size()});
  LoserTree<T> tree(std::move(rs));
  std::vector<std::pair<T, std::size_t>> out;
  while (!tree.done()) {
    const std::size_t r = tree.top_run();
    out.emplace_back(tree.pop(), r);
  }
  return out;
}

// The merge emits the sorted multiset of `runs`; every element comes from
// the run top_run() named, in that run's order; and among equal keys the
// run index never decreases.
template <typename T>
void expect_merged_in_tie_order(const std::vector<std::vector<T>>& runs) {
  std::vector<T> all;
  for (const auto& r : runs) all.insert(all.end(), r.begin(), r.end());
  std::sort(all.begin(), all.end());
  const auto out = merge_by_top_run(runs);
  ASSERT_EQ(out.size(), all.size());
  std::vector<std::size_t> taken(runs.size(), 0);
  for (std::size_t i = 0; i < out.size(); ++i) {
    const auto [key, run] = out[i];
    ASSERT_EQ(key, all[i]) << "position " << i;
    ASSERT_LT(run, runs.size());
    ASSERT_LT(taken[run], runs[run].size()) << "run " << run << " overrun";
    ASSERT_EQ(key, runs[run][taken[run]++]) << "position " << i;
    if (i > 0 && out[i - 1].first == key) {
      ASSERT_LE(out[i - 1].second, run)
          << "tie on key " << key << " emitted out of run order";
    }
  }
}

// `k` sorted runs of up to `max_len` keys from `draw`; about one in four
// runs is empty.
template <typename T, typename Draw>
std::vector<std::vector<T>> random_runs(Xoshiro256& rng, std::size_t k,
                                        std::size_t max_len, Draw draw) {
  std::vector<std::vector<T>> runs(k);
  for (auto& r : runs) {
    if (rng.below(4) == 0) continue;
    const std::size_t len = rng.below(max_len + 1);
    for (std::size_t i = 0; i < len; ++i) r.push_back(draw());
    std::sort(r.begin(), r.end());
  }
  return runs;
}

TEST(LoserTree, RandomizedAgainstStdMerge) {
  Xoshiro256 rng(99);
  for (int trial = 0; trial < 20; ++trial) {
    const std::size_t k = 1 + rng.below(9);
    std::vector<std::vector<std::uint64_t>> runs(k);
    std::vector<std::uint64_t> all;
    for (auto& r : runs) {
      const std::size_t len = rng.below(50);
      for (std::size_t i = 0; i < len; ++i) r.push_back(rng.below(1000));
      std::sort(r.begin(), r.end());
      all.insert(all.end(), r.begin(), r.end());
    }
    std::sort(all.begin(), all.end());
    EXPECT_EQ(merge_with_tree(runs), all) << "trial " << trial;
  }
  // Keys at the top of the range, with empty runs interleaved and runs
  // running dry mid-merge: a real UINT64_MAX must still beat every
  // exhausted run.
  constexpr std::uint64_t kMax = std::numeric_limits<std::uint64_t>::max();
  const std::uint64_t extremes[] = {0, kMax - 1, kMax};
  for (int trial = 0; trial < 40; ++trial) {
    SCOPED_TRACE(trial);
    const std::size_t k = 2 + rng.below(9);
    expect_merged_in_tie_order(random_runs<std::uint64_t>(
        rng, k, 12, [&] { return extremes[rng.below(3)]; }));
  }
  expect_merged_in_tie_order<std::uint64_t>(
      {{kMax}, {}, {kMax - 1, kMax}, {}, {0, kMax, kMax}, {}});
}

TEST(LoserTree, TieOrderOnUint64ByTopRun) {
  // uint64_t under std::less is the packed path; the Tagged tests above
  // cover only the generic one.
  const auto out =
      merge_by_top_run<std::uint64_t>({{5, 5}, {3, 5}, {5}, {5, 7}});
  std::vector<std::size_t> five_runs;
  for (const auto& [key, run] : out)
    if (key == 5) five_runs.push_back(run);
  EXPECT_EQ(five_runs, (std::vector<std::size_t>{0, 0, 1, 2, 3}));
  Xoshiro256 rng(4321);
  for (int trial = 0; trial < 30; ++trial) {
    SCOPED_TRACE(trial);
    const std::size_t k = 1 + rng.below(10);
    expect_merged_in_tie_order(random_runs<std::uint64_t>(
        rng, k, 40, [&] { return rng.below(8); }));
  }
}

TEST(LoserTree, Uint32Keys) {
  constexpr std::uint32_t kMax = std::numeric_limits<std::uint32_t>::max();
  Xoshiro256 rng(77);
  for (int trial = 0; trial < 30; ++trial) {
    SCOPED_TRACE(trial);
    const std::size_t k = 1 + rng.below(12);
    expect_merged_in_tie_order(random_runs<std::uint32_t>(rng, k, 40, [&] {
      return rng.below(2) ? kMax - static_cast<std::uint32_t>(rng.below(3))
                          : static_cast<std::uint32_t>(rng.below(16));
    }));
  }
}

TEST(LoserTree, NonPowerOfTwoFanIns) {
  Xoshiro256 rng(2024);
  for (const std::size_t k : {3, 5, 17}) {
    for (int trial = 0; trial < 10; ++trial) {
      SCOPED_TRACE(testing::Message() << "k=" << k << " trial " << trial);
      const auto runs = random_runs<std::uint64_t>(
          rng, k, 30, [&] { return rng.below(20); });
      expect_merged_in_tie_order(runs);
      expect_stable(merge_tagged(runs));
    }
  }
}

TEST(LoserTree, MergeIntoRespectsCapacity) {
  std::vector<std::uint64_t> a{1, 3}, b{2, 4};
  LoserTree<std::uint64_t> tree(
      {{a.data(), a.data() + 2}, {b.data(), b.data() + 2}});
  std::vector<std::uint64_t> out(3);
  EXPECT_EQ(tree.merge_into(out), 3u);
  EXPECT_EQ(out, (std::vector<std::uint64_t>{1, 2, 3}));
  EXPECT_EQ(tree.remaining(), 1u);
}

TEST(RunningStats, MeanAndVariance) {
  RunningStats s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
}

TEST(RunningStats, MergeMatchesSequential) {
  RunningStats a, b, all;
  Xoshiro256 rng(5);
  for (int i = 0; i < 100; ++i) {
    const double x = rng.uniform01();
    (i % 2 ? a : b).add(x);
    all.add(x);
  }
  a.merge(b);
  EXPECT_NEAR(a.mean(), all.mean(), 1e-12);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-10);
  EXPECT_EQ(a.count(), all.count());
}

TEST(Table, FormatsCountsWithSeparators) {
  EXPECT_EQ(Table::count(0), "0");
  EXPECT_EQ(Table::count(999), "999");
  EXPECT_EQ(Table::count(1000), "1,000");
  EXPECT_EQ(Table::count(394774287), "394,774,287");
}

TEST(Table, RejectsMisshapenRow) {
  Table t("t");
  t.header({"a", "b"});
  EXPECT_THROW(t.row({"only-one"}), std::invalid_argument);
}

TEST(Table, CsvEscapesSeparators) {
  Table t("t");
  t.header({"x"});
  t.row({"a,b"});
  EXPECT_EQ(t.to_csv(), "x\n\"a,b\"\n");
}

TEST(LogHistogram, QuantilesOnUniformGrid) {
  LogHistogram h(1e-9);
  for (int i = 1; i <= 1000; ++i) h.add(i * 1e-6);  // 1us .. 1ms uniform
  EXPECT_EQ(h.count(), 1000u);
  EXPECT_NEAR(h.mean(), 500.5e-6, 1e-6);
  // Log-bucket edges have ~7% resolution.
  EXPECT_NEAR(h.p50(), 500e-6, 500e-6 * 0.10);
  EXPECT_NEAR(h.p95(), 950e-6, 950e-6 * 0.10);
  EXPECT_NEAR(h.quantile(0.0), 1e-6, 1e-6 * 0.10);
}

TEST(LogHistogram, ClampsOutOfRange) {
  LogHistogram h(1e-9);
  h.add(1e-15);  // below floor
  h.add(1e6);    // above ceiling
  EXPECT_EQ(h.count(), 2u);
  EXPECT_GT(h.quantile(1.0), h.quantile(0.0));
}

TEST(LogHistogram, MergeMatchesCombined) {
  LogHistogram a(1e-9), b(1e-9), all(1e-9);
  Xoshiro256 rng(3);
  for (int i = 0; i < 500; ++i) {
    const double v = 1e-8 * (1 + rng.below(100000));
    (i % 2 ? a : b).add(v);
    all.add(v);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_DOUBLE_EQ(a.p95(), all.p95());
  EXPECT_NEAR(a.mean(), all.mean(), all.mean() * 1e-12);
}

TEST(LogHistogram, EmptyIsZero) {
  LogHistogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.p99(), 0.0);
  EXPECT_EQ(h.mean(), 0.0);
}

TEST(Units, TimeConversionsRoundTrip) {
  EXPECT_EQ(from_seconds(1.0), kSecond);
  EXPECT_DOUBLE_EQ(to_seconds(kSecond), 1.0);
  EXPECT_EQ(period_from_hz(1e9), kNanosecond);
}

}  // namespace
}  // namespace tlm
