// Unit tests for the common substrate: math helpers, RNG, thread pool,
// loser tree, tables, running stats, the sorted-permutation check.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <limits>
#include <numeric>
#include <string>
#include <utility>
#include <vector>

#include "common/histogram.hpp"
#include "common/loser_tree.hpp"
#include "common/math.hpp"
#include "common/rng.hpp"
#include "common/sorted_check.hpp"
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

// ---------------------------------------------------------------------------
// is_sorted_permutation against its definition, output == std::sort(input)

std::vector<std::uint64_t> std_sorted(std::vector<std::uint64_t> v) {
  std::sort(v.begin(), v.end());
  return v;
}

struct Mutant {
  std::string how;
  std::vector<std::uint64_t> output;
};

// The ways a sort can go wrong, each applied to the correct output where
// the input allows it (every mutant differs from the correct output).
std::vector<Mutant> corruptions(const std::vector<std::uint64_t>& sorted) {
  std::vector<Mutant> out;
  const std::size_t n = sorted.size();
  if (n == 0) {
    out.push_back({"extra key", {7}});
    return out;
  }
  const std::size_t mid = n / 2;
  Mutant changed{"one key changed", sorted};
  changed.output[mid] ^= 1;
  out.push_back(changed);
  if (sorted.back() != UINT64_MAX) {  // changed and still sorted
    Mutant top{"largest key raised", sorted};
    ++top.output.back();
    out.push_back(top);
  }
  for (std::size_t i = 1; i < n; ++i) {
    if (sorted[i] == sorted[i - 1]) continue;
    Mutant swapped{"adjacent swap", sorted};
    std::swap(swapped.output[i - 1], swapped.output[i]);
    out.push_back(swapped);
    Mutant dup{"duplicate replaces a distinct key", sorted};
    dup.output[i] = dup.output[i - 1];  // still sorted
    out.push_back(dup);
    break;
  }
  Mutant missing{"one key missing", sorted};
  missing.output.erase(missing.output.begin() + static_cast<long>(mid));
  out.push_back(missing);
  Mutant extra{"one key extra", sorted};
  extra.output.insert(extra.output.begin() + static_cast<long>(mid),
                      sorted[mid]);
  out.push_back(extra);
  return out;
}

// The check accepts std::sort's answer, refuses every corruption of it, and
// refuses the answer for an input with one key changed.
void expect_exact(const std::vector<std::uint64_t>& input,
                  const std::string& what) {
  const std::vector<std::uint64_t> sorted = std_sorted(input);
  EXPECT_TRUE(is_sorted_permutation(input, sorted)) << what;
  for (const Mutant& m : corruptions(sorted)) {
    ASSERT_NE(m.output, sorted) << what << ": " << m.how;
    EXPECT_FALSE(is_sorted_permutation(input, m.output))
        << what << ": " << m.how;
  }
  if (input.empty()) return;
  std::vector<std::uint64_t> changed = input;
  changed[changed.size() / 2] ^= 1;
  EXPECT_FALSE(is_sorted_permutation(changed, sorted))
      << what << ": one input key changed";
}

TEST(SortedCheck, SmallSizes) {
  expect_exact({}, "n = 0");
  expect_exact({42}, "n = 1");
  expect_exact({9, 3}, "n = 2");
  expect_exact({3, 3}, "n = 2, equal");
  EXPECT_FALSE(is_sorted_permutation({}, std::vector<std::uint64_t>{0}));
  EXPECT_FALSE(is_sorted_permutation(std::vector<std::uint64_t>{0}, {}));
}

TEST(SortedCheck, EdgeKeySets) {
  for (std::size_t n : {3u, 17u, 100u, 5000u}) {
    const std::string size = " n = " + std::to_string(n);
    Xoshiro256 rng(n);
    std::vector<std::uint64_t> equal(n, 0x5555);
    expect_exact(equal, "all keys equal" + size);
    std::vector<std::uint64_t> two(n), top(n), bottom(n), extremes(n);
    for (std::size_t i = 0; i < n; ++i) {
      two[i] = rng.below(2) ? 1000 : 999;
      top[i] = (rng.below(256) << 56) | 0x00abcdef12345678ULL;
      bottom[i] = 0xfedcba9876543200ULL | rng.below(256);
      extremes[i] = rng.below(2) ? UINT64_MAX : 0;
    }
    expect_exact(two, "two distinct values" + size);
    expect_exact(top, "keys differ only in the top byte" + size);
    expect_exact(bottom, "keys differ only in the bottom byte" + size);
    expect_exact(extremes, "keys 0 and UINT64_MAX" + size);
    std::vector<std::uint64_t> ascending = random_keys(n, n + 1);
    std::sort(ascending.begin(), ascending.end());
    expect_exact(ascending, "already sorted" + size);
    std::vector<std::uint64_t> reversed(ascending.rbegin(), ascending.rend());
    expect_exact(reversed, "reversed" + size);
  }
}

TEST(SortedCheck, RandomSizesAndShapes) {
  Xoshiro256 rng(2024);
  for (int trial = 0; trial < 200; ++trial) {
    const std::size_t n = rng.below(trial < 100 ? 64 : 20000);
    // Uniform keys; heavy duplicates; a dense cluster with a far outlier
    // (buckets that split again); keys spread over a middle bit field.
    const std::uint64_t shape = rng.below(4);
    std::vector<std::uint64_t> keys(n);
    for (std::uint64_t& k : keys) {
      switch (shape) {
        case 0: k = rng.next(); break;
        case 1: k = rng.below(1 + n / 8); break;
        case 2: k = rng.below(8) ? rng.below(1000) : UINT64_MAX - rng.below(3);
          break;
        default: k = rng.next() & 0x000fff0000ff0000ULL; break;
      }
    }
    expect_exact(keys, "trial " + std::to_string(trial) + " shape " +
                           std::to_string(shape) + " n " + std::to_string(n));
  }
}

TEST(SortedCheck, BucketCountsDecideWhenScratchHoldsTheAnswer) {
  // Sorted keys, most below 120, and five far outliers: the first split
  // puts most keys in one bucket, and the second split scatters into
  // scratch that still holds a copy of this input. With one 82 turned into
  // an 85 the inner buckets' counts differ from the output's runs, while
  // the slot the scatter leaves unwritten already holds the right key, so
  // only the count comparison refuses it.
  const std::vector<std::uint64_t> keys = {
      0,  3,  6,  7,  8,  9,  12, 16,  16,  19,  20,  23,  23,  26,
      28, 29, 32, 33, 34, 41, 43, 45,  45,  46,  48,  49,  51,  52,
      54, 61, 63, 64, 65, 67, 78, 82,  82,  82,  84,  84,  85,  87,
      91, 93, 105, 107, 111, 112, 116, 118, 118, 268435533,
      549755814000ULL, 4398046511132ULL, 70368744177773ULL,
      9223372036854775895ULL};
  std::vector<std::uint64_t> changed = keys;
  changed[35] = 85;
  EXPECT_TRUE(is_sorted_permutation(keys, keys));
  EXPECT_FALSE(is_sorted_permutation(changed, keys));
  EXPECT_FALSE(is_sorted_permutation(keys, std_sorted(changed)));
}

TEST(SortedCheck, NestedClustersAtScale) {
  // Most keys in ever narrower clusters: every level of bucket splitting
  // runs before the ranges collapse to single values.
  Xoshiro256 rng(7);
  std::vector<std::uint64_t> keys(200000);
  for (std::uint64_t& k : keys) {
    const unsigned width = 4 + static_cast<unsigned>(rng.below(60));
    k = rng.next() >> (64 - width);
  }
  expect_exact(keys, "nested clusters");
}

}  // namespace
}  // namespace tlm
