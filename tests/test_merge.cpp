// Unit/property tests for the charged merge kernel: merge_runs_charged vs
// std::merge, value-based partitioning invariants, instrumented binary
// search equivalence, splitter sampling, and the multisequence cut against a
// brute-force stable merge (exactness, probe bound, per-worker span).
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "common/loser_tree.hpp"
#include "common/rng.hpp"
#include "scratchpad/machine.hpp"
#include "sort/merge.hpp"
#include "sort/runs.hpp"
#include "trace/capture.hpp"
#include "trace/sink.hpp"

namespace tlm::sort {
namespace {

TwoLevelConfig cfg2() {
  TwoLevelConfig c = test_config(4.0);
  c.near_capacity = 4 * MiB;
  c.threads = 4;
  return c;
}

std::vector<std::vector<std::uint64_t>> make_runs(std::size_t k,
                                                  std::size_t max_len,
                                                  std::uint64_t seed) {
  Xoshiro256 rng(seed);
  std::vector<std::vector<std::uint64_t>> runs(k);
  for (auto& r : runs) {
    r.resize(rng.below(max_len + 1));
    for (auto& x : r) x = rng.below(100000);
    std::sort(r.begin(), r.end());
  }
  return runs;
}

std::vector<Run<std::uint64_t>> as_runs(
    const std::vector<std::vector<std::uint64_t>>& rs) {
  std::vector<Run<std::uint64_t>> out;
  for (const auto& r : rs)
    out.push_back(Run<std::uint64_t>{r.data(), r.data() + r.size()});
  return out;
}

using RunT = Run<std::uint64_t>;

std::vector<std::uint64_t> flat_sorted(
    const std::vector<std::vector<std::uint64_t>>& rs) {
  std::vector<std::uint64_t> all;
  for (const auto& r : rs) all.insert(all.end(), r.begin(), r.end());
  std::sort(all.begin(), all.end());
  return all;
}

TEST(MergeRunsCharged, MatchesStdSortAcrossShapes) {
  Machine m(cfg2());
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    const auto runs = make_runs(1 + seed % 7, 500, seed);
    const auto expect = flat_sorted(runs);
    std::vector<std::uint64_t> out(expect.size());
    merge_runs_charged(m, 0, as_runs(runs), out.data());
    EXPECT_EQ(out, expect) << "seed " << seed;
  }
}

TEST(MergeRunsCharged, ChargesReadsAndWritesOnce) {
  Machine m(cfg2());
  const auto runs = make_runs(4, 4096, 3);
  const auto expect = flat_sorted(runs);
  std::vector<std::uint64_t> out(expect.size());
  for (const auto& r : runs) m.adopt_far(r.data(), r.size() * 8 + 1);
  m.adopt_far(out.data(), out.size() * 8);
  m.begin_phase("merge");
  merge_runs_charged(m, 0, as_runs(runs), out.data());
  m.end_phase();
  const PhaseStats ph = m.stats().phases.at(0);
  EXPECT_EQ(ph.far_read_bytes(), expect.size() * 8);
  EXPECT_EQ(ph.far_write_bytes(), expect.size() * 8);
  EXPECT_GT(ph.compute_ops_total(), static_cast<double>(expect.size()));
}

TEST(MergeRunsCharged, EmptyRunsContributeNothing) {
  Machine m(cfg2());
  std::vector<std::uint64_t> a{1, 5, 9};
  std::vector<RunT> rs = {
      {nullptr, nullptr}, {a.data(), a.data() + 3}, {a.data(), a.data()}};
  std::vector<std::uint64_t> out(3);
  merge_runs_charged(m, 0, rs, out.data());
  EXPECT_EQ(out, (std::vector<std::uint64_t>{1, 5, 9}));
}

// The k-way merge as it ran before two runs had a loop of their own: the
// loser tree for every k, the refill check before and the flush check after
// each element. The two-run loop must match it call for call.
template <typename T, typename Cmp>
void tree_merge_oracle(Machine& m, std::size_t thread,
                       const std::vector<Run<T>>& runs, T* out, Cmp cmp) {
  if (total_size(runs) == 0) return;
  using LT = LoserTree<T, Cmp>;
  std::vector<typename LT::Run> lt_runs;
  for (const auto& r : runs) lt_runs.push_back({r.begin, r.end});
  const std::uint64_t refill_elems =
      std::max<std::uint64_t>(1, kRefillBytes / sizeof(T));
  std::vector<const T*> watermark(runs.size());
  for (std::size_t i = 0; i < runs.size(); ++i) watermark[i] = runs[i].begin;
  LT tree(std::move(lt_runs), cmp);
  const double per_elem =
      std::log2(static_cast<double>(std::max<std::size_t>(2, runs.size()))) +
      1.0;
  T* o = out;
  T* flush_from = out;
  while (!tree.done()) {
    const std::size_t r = tree.top_run();
    if (tree.cursor(r) >= watermark[r]) {
      const std::uint64_t left =
          static_cast<std::uint64_t>(runs[r].end - watermark[r]);
      const std::uint64_t take = std::min(refill_elems, left);
      m.stream_read(thread, watermark[r], take * sizeof(T));
      watermark[r] += take;
    }
    *o++ = tree.pop();
    if (static_cast<std::uint64_t>(o - flush_from) >= refill_elems) {
      m.stream_write(thread, flush_from,
                     static_cast<std::uint64_t>(o - flush_from) * sizeof(T));
      m.compute(thread, static_cast<double>(o - flush_from) * per_elem);
      flush_from = o;
    }
  }
  if (o != flush_from) {
    m.stream_write(thread, flush_from,
                   static_cast<std::uint64_t>(o - flush_from) * sizeof(T));
    m.compute(thread, static_cast<double>(o - flush_from) * per_elem);
  }
}

// Merges runs `a` and `b` on thread 1 of a capturing Machine, once through
// merge_runs_charged and once through the oracle: the outputs and every
// thread's trace bytes must be identical.
template <typename T, typename Cmp>
void expect_two_run_merge_matches_tree(const std::vector<T>& a,
                                       const std::vector<T>& b, Cmp cmp) {
  SCOPED_TRACE(testing::Message() << "|a|=" << a.size() << " |b|="
                                  << b.size());
  const std::vector<Run<T>> rs = {{a.data(), a.data() + a.size()},
                                  {b.data(), b.data() + b.size()}};
  auto run = [&](auto merge) {
    trace::TraceBuffer tb(cfg2().threads);
    Machine m(cfg2(), &tb);
    std::vector<T> out(a.size() + b.size());
    for (const std::span<const T> v : {std::span<const T>(a),
                                       std::span<const T>(b),
                                       std::span<const T>(out)})
      if (!v.empty()) m.adopt_far(v.data(), v.size_bytes());
    merge(m, out.data());
    m.end_phase();
    std::vector<std::vector<std::uint8_t>> logs;
    for (std::size_t t = 0; t < tb.threads(); ++t)
      logs.emplace_back(tb.log(t).begin(), tb.log(t).end());
    return std::pair(out, logs);
  };
  const auto [out, logs] = run([&](Machine& m, T* o) {
    merge_runs_charged(m, 1, rs, o, cmp);
  });
  const auto [want, want_logs] = run([&](Machine& m, T* o) {
    tree_merge_oracle(m, 1, rs, o, cmp);
  });
  EXPECT_EQ(out, want);
  EXPECT_TRUE(logs == want_logs) << "the trace bytes differ";
  if (!out.empty()) {
    EXPECT_FALSE(logs[1].empty()) << "nothing was captured";
  }
}

TEST(MergeRunsCharged, TwoRunLoopMatchesTheLoserTree) {
  Xoshiro256 rng(61);
  auto sorted = [&](std::size_t n, std::uint64_t below) {
    std::vector<std::uint64_t> v(n);
    for (auto& x : v) x = rng.below(below);
    std::sort(v.begin(), v.end());
    return v;
  };
  // Refills and flushes move kRefillBytes, 512 keys.
  constexpr std::size_t kRefill = kRefillBytes / sizeof(std::uint64_t);
  // Random keys, then keys equal within and across the two runs.
  expect_two_run_merge_matches_tree(sorted(3000, 1 << 30),
                                    sorted(2500, 1 << 30), std::less<>{});
  expect_two_run_merge_matches_tree(sorted(1200, 4), sorted(1700, 4),
                                    std::less<>{});
  const std::vector<std::uint64_t> sevens(900, 7);
  expect_two_run_merge_matches_tree(sevens, sevens, std::less<>{});
  // An empty run on either side.
  expect_two_run_merge_matches_tree(sorted(777, 50), {}, std::less<>{});
  expect_two_run_merge_matches_tree({}, sorted(777, 50), std::less<>{});
  // Runs shorter than one refill.
  expect_two_run_merge_matches_tree(sorted(3, 10), sorted(5, 10),
                                    std::less<>{});
  // One run drained before the other starts, its length short or around
  // one and two refills, so the other's refills fall at different
  // alignments against the output's flushes.
  for (const std::size_t len :
       {std::size_t{0}, std::size_t{1}, std::size_t{2}, std::size_t{9},
        kRefill - 2, kRefill - 1, kRefill, kRefill + 1, kRefill + 2,
        2 * kRefill - 1, 2 * kRefill, 2 * kRefill + 1}) {
    std::vector<std::uint64_t> high = sorted(3 * kRefill + 100, 1 << 20);
    for (auto& x : high) x += 10;
    expect_two_run_merge_matches_tree(sorted(len, 10), high, std::less<>{});
    expect_two_run_merge_matches_tree(high, sorted(len, 10), std::less<>{});
  }
  // Records ordered by key alone: equal keys must keep run 0 first.
  struct KV {
    std::uint32_t key;
    std::uint32_t run;
    bool operator==(const KV&) const = default;
  };
  auto tagged = [&](std::size_t n, std::uint32_t run) {
    std::vector<KV> v(n);
    for (auto& x : v) x = KV{static_cast<std::uint32_t>(rng.below(8)), run};
    std::sort(v.begin(), v.end(),
              [](const KV& x, const KV& y) { return x.key < y.key; });
    return v;
  };
  expect_two_run_merge_matches_tree(
      tagged(1500, 0), tagged(1300, 1),
      [](const KV& x, const KV& y) { return x.key < y.key; });
}

// Every part of the exact partition, each found by part_slice on thread 0.
std::vector<std::vector<RunT>> all_parts(Machine& m,
                                         const std::vector<RunT>& rs,
                                         std::size_t parts) {
  const std::uint64_t total = total_size(rs);
  std::vector<std::vector<RunT>> slice;
  for (std::size_t j = 0; j < parts; ++j)
    slice.push_back(part_slice(m, 0, rs, total, parts, j, std::less<>{}));
  return slice;
}

TEST(PartitionMerge, SlicesCoverAndOrder) {
  Machine m(cfg2());
  for (std::uint64_t seed = 20; seed < 28; ++seed) {
    const auto runs = make_runs(5, 2000, seed);
    const auto rs = as_runs(runs);
    const std::uint64_t total = total_size(rs);
    if (total == 0) continue;
    for (std::size_t parts : {1u, 2u, 4u, 7u}) {
      const auto slice = all_parts(m, rs, parts);
      // Offsets are nondecreasing and total size is preserved.
      std::uint64_t covered = 0;
      for (std::size_t j = 0; j < parts; ++j) {
        EXPECT_EQ(part_rank(total, parts, j), covered);
        for (const auto& s : slice[j]) covered += s.size();
      }
      EXPECT_EQ(covered, total);
      // Value partition: everything in part j <= everything in part j+1.
      std::uint64_t prev_max = 0;
      bool have_prev = false;
      for (std::size_t j = 0; j < parts; ++j) {
        std::uint64_t mn = ~0ULL, mx = 0;
        for (const auto& s : slice[j])
          for (const auto* p = s.begin; p != s.end; ++p) {
            mn = std::min(mn, *p);
            mx = std::max(mx, *p);
          }
        if (slice[j].empty()) continue;
        if (have_prev) {
          EXPECT_LE(prev_max, mn) << "seed " << seed;
        }
        prev_max = mx;
        have_prev = true;
      }
    }
  }
}

TEST(ParallelMultiwayMerge, MatchesSequentialAcrossThreadCounts) {
  for (std::size_t threads : {1u, 2u, 4u, 8u}) {
    TwoLevelConfig c = cfg2();
    c.threads = threads;
    Machine m(c);
    // Enough keys (tens of thousands) that every thread gets a part of at
    // least kMinPartElems.
    const auto runs = make_runs(6, 12000, 77);
    const auto expect = flat_sorted(runs);
    ASSERT_GE(expect.size(), 8 * kMinPartElems);
    std::vector<std::uint64_t> out(expect.size());
    m.begin_phase("merge");
    parallel_multiway_merge(m, as_runs(runs), std::span<std::uint64_t>(out));
    m.end_phase();
    EXPECT_EQ(out, expect) << "threads " << threads;
    EXPECT_EQ(m.stats().phases.at(0).partition_splits() > 0, threads > 1)
        << "threads " << threads;
  }
}

TEST(ParallelMultiwayMerge, HeavyDuplicatesStayCorrect) {
  Machine m(cfg2());
  std::vector<std::vector<std::uint64_t>> runs(4);
  Xoshiro256 rng(5);
  for (auto& r : runs) {
    r.resize(2000);
    for (auto& x : r) x = rng.below(3);  // only 3 distinct values
    std::sort(r.begin(), r.end());
  }
  const auto expect = flat_sorted(runs);
  std::vector<std::uint64_t> out(expect.size());
  parallel_multiway_merge(m, as_runs(runs), std::span<std::uint64_t>(out));
  EXPECT_EQ(out, expect);
}

TEST(ParallelMultiwayMerge, SizeMismatchThrows) {
  Machine m(cfg2());
  std::vector<std::uint64_t> a{1, 2, 3};
  std::vector<RunT> rs = {{a.data(), a.data() + 3}};
  std::vector<std::uint64_t> out(2);
  EXPECT_THROW(
      parallel_multiway_merge(m, rs, std::span<std::uint64_t>(out)),
      std::invalid_argument);
}

TEST(ChargedLowerBound, MatchesStd) {
  Machine m(cfg2());
  Xoshiro256 rng(9);
  std::vector<std::uint64_t> v(1000);
  for (auto& x : v) x = rng.below(500);
  std::sort(v.begin(), v.end());
  for (std::uint64_t q = 0; q <= 500; q += 7) {
    const auto* got = charged_lower_bound(m, 0, v.data(), v.data() + v.size(),
                                          q, std::less<>{});
    const auto want = std::lower_bound(v.begin(), v.end(), q) - v.begin();
    EXPECT_EQ(got - v.data(), want) << "q=" << q;
  }
}

TEST(ChargedGallopLowerBound, MatchesStdFromAnyStart) {
  Machine m(cfg2());
  Xoshiro256 rng(11);
  std::vector<std::uint64_t> v(777);
  for (auto& x : v) x = rng.below(400);
  std::sort(v.begin(), v.end());
  for (std::size_t from : {0u, 1u, 100u, 776u, 777u}) {
    for (std::uint64_t q : {0ULL, 3ULL, 200ULL, 399ULL, 1000ULL}) {
      const auto* got = charged_gallop_lower_bound(
          m, 0, v.data() + from, v.data() + v.size(), q, std::less<>{});
      const auto want =
          std::lower_bound(v.begin() + from, v.end(), q) - v.begin();
      EXPECT_EQ(got - v.data(), want) << "from=" << from << " q=" << q;
    }
  }
}

TEST(SampleSplitters, SortedAndBounded) {
  Machine m(cfg2());
  const auto runs = make_runs(4, 1000, 30);
  const auto rs = as_runs(runs);
  for (std::size_t parts : {2u, 8u, 32u}) {
    const auto sp = sample_splitters(m, 0, rs, parts, std::less<>{});
    EXPECT_EQ(sp.size(), parts - 1);
    EXPECT_TRUE(std::is_sorted(sp.begin(), sp.end()));
  }
  EXPECT_TRUE(sample_splitters(m, 0, rs, 1, std::less<>{}).empty());
}

TEST(SampleSplitters, BalancedPartsOnUniformData) {
  Machine m(cfg2());
  const auto runs = make_runs(8, 4096, 31);
  const auto rs = as_runs(runs);
  const std::uint64_t total = total_size(rs);
  const std::size_t parts = 16;
  const auto slice = all_parts(m, rs, parts);
  const double mean = static_cast<double>(total) / parts;
  for (std::size_t j = 0; j < parts; ++j) {
    std::uint64_t sz = 0;
    for (const auto& s : slice[j]) sz += s.size();
    EXPECT_LT(static_cast<double>(sz), mean * 3.0) << "part " << j;
  }
}

// ---- merge-path exact-partition properties --------------------------------

// The balance invariant the exact partitioner guarantees: no part exceeds
// ⌈total/parts⌉ (a fortiori within the ⌈total/p⌉ + fan slack any splitting
// scheme must meet), on any distribution.
void expect_balanced(Machine& m, const std::vector<RunT>& rs,
                     std::size_t parts, const char* label) {
  const std::uint64_t total = total_size(rs);
  const auto slice = all_parts(m, rs, parts);
  const std::uint64_t cap = (total + parts - 1) / parts;
  std::uint64_t covered = 0;
  for (std::size_t j = 0; j < parts; ++j) {
    const std::uint64_t sz = total_size(slice[j]);
    EXPECT_LE(sz, cap) << label << ": part " << j << " of " << parts;
    EXPECT_EQ(part_rank(total, parts, j), covered) << label;
    covered += sz;
  }
  EXPECT_EQ(covered, total) << label;
}

TEST(MergePathPartition, BalanceInvariantAcrossDistributions) {
  Machine m(cfg2());
  Xoshiro256 rng(41);
  const std::size_t k = 6, len = 3000;
  auto build = [&](auto gen) {
    std::vector<std::vector<std::uint64_t>> runs(k);
    for (auto& r : runs) {
      r.resize(len);
      for (auto& x : r) x = gen();
      std::sort(r.begin(), r.end());
    }
    return runs;
  };
  const auto uniform = build([&] { return rng.below(1u << 30); });
  const auto all_equal = build([] { return std::uint64_t{42}; });
  const auto few_distinct = build([&] { return rng.below(3); });
  // Geometric key frequencies: value v appears ~2^-v of the time.
  const auto zipf_ish = build([&] {
    std::uint64_t v = 0;
    while (v < 20 && rng.below(2) == 0) ++v;
    return v;
  });
  for (std::size_t parts : {2u, 4u, 8u, 16u}) {
    expect_balanced(m, as_runs(uniform), parts, "uniform");
    expect_balanced(m, as_runs(all_equal), parts, "all-equal");
    expect_balanced(m, as_runs(few_distinct), parts, "few-distinct");
    expect_balanced(m, as_runs(zipf_ish), parts, "zipf-ish");
  }
}

TEST(MergePathPartition, AllEqualKeysSplitAcrossEveryPart) {
  // The case that collapses value-based splitters onto one thread: every
  // key identical. The rank split must still hand all parts equal work.
  Machine m(cfg2());
  std::vector<std::uint64_t> a(8192, 7), b(8192, 7);
  const std::vector<RunT> rs = {{a.data(), a.data() + a.size()},
                                {b.data(), b.data() + b.size()}};
  const std::size_t parts = 8;
  const auto slice = all_parts(m, rs, parts);
  for (std::size_t j = 0; j < parts; ++j)
    EXPECT_EQ(total_size(slice[j]), (a.size() + b.size()) / parts)
        << "part " << j;
}

TEST(MergePathPartition, ImbalanceCounterRecordsExactSplit) {
  // The gauge holds the largest slice a worker merged: 8 threads split the
  // 8192 elements into 8 parts (8192 / kMinPartElems).
  TwoLevelConfig c = cfg2();
  c.threads = 8;
  Machine m(c);
  std::vector<std::uint64_t> a(4096, 9);
  const std::vector<RunT> rs = {{a.data(), a.data() + a.size()},
                                {a.data(), a.data() + a.size()}};
  std::vector<std::uint64_t> out(2 * a.size());
  m.begin_phase("split");
  parallel_multiway_merge(m, rs, std::span<std::uint64_t>(out));
  m.end_phase();
  const PhaseStats ph = m.stats().phases.at(0);
  EXPECT_EQ(ph.partition_splits(), 1u);
  EXPECT_GT(ph.partition_imbalance_max(), 0.0);
  // max slice == ideal share on a divisible all-equal input.
  EXPECT_DOUBLE_EQ(ph.partition_imbalance_max(), 1.0);
}

TEST(MergePathPartition, SkewedAndRaggedRuns) {
  Machine m(cfg2());
  Xoshiro256 rng(57);
  for (int trial = 0; trial < 10; ++trial) {
    std::vector<std::vector<std::uint64_t>> runs(1 + rng.below(8));
    for (auto& r : runs) {
      r.resize(rng.below(2500));
      for (auto& x : r) x = rng.below(5) == 0 ? 1 : rng.below(1u << 20);
      std::sort(r.begin(), r.end());
    }
    const auto rs = as_runs(runs);
    if (total_size(rs) == 0) continue;
    for (std::size_t parts : {3u, 5u, 8u})
      expect_balanced(m, rs, parts, "skewed-ragged");
  }
}

TEST(MergePathPartition, PreservesStabilityThroughParallelMerge) {
  // Ties split across parts must come back out in run-index order: run the
  // parallel merge on tagged pairs and compare against a sequential stable
  // merge of the same runs.
  struct KV {
    std::uint64_t key;
    std::uint64_t tag;
    bool operator==(const KV&) const = default;
  };
  auto kv_less = [](const KV& x, const KV& y) { return x.key < y.key; };
  TwoLevelConfig c = cfg2();
  c.threads = 8;
  Machine m(c);
  Xoshiro256 rng(71);
  std::vector<std::vector<KV>> runs(5);
  for (std::size_t i = 0; i < runs.size(); ++i) {
    runs[i].resize(4000);
    for (auto& x : runs[i]) x = KV{rng.below(4), i};
    std::stable_sort(runs[i].begin(), runs[i].end(), kv_less);
  }
  std::vector<KV> expect;
  for (const auto& r : runs) expect.insert(expect.end(), r.begin(), r.end());
  std::stable_sort(expect.begin(), expect.end(), [&](const KV& x, const KV& y) {
    return x.key != y.key ? x.key < y.key : x.tag < y.tag;
  });
  std::vector<tlm::sort::Run<KV>> rs;
  for (const auto& r : runs)
    rs.push_back(tlm::sort::Run<KV>{r.data(), r.data() + r.size()});
  std::vector<KV> out(expect.size());
  parallel_multiway_merge(m, rs, std::span<KV>(out), kv_less);
  EXPECT_EQ(out, expect);
}

// ---- multisequence cut vs a brute-force stable merge -----------------------

// The run index of every element in the order a stable merge emits them:
// by value, ties in run-index order, then by position.
std::vector<std::size_t> stable_merge_order(
    const std::vector<std::vector<std::uint64_t>>& runs) {
  struct Tagged {
    std::uint64_t v;
    std::size_t run;
  };
  std::vector<Tagged> all;
  for (std::size_t i = 0; i < runs.size(); ++i)
    for (std::uint64_t v : runs[i]) all.push_back({v, i});
  std::stable_sort(all.begin(), all.end(),
                   [](const Tagged& a, const Tagged& b) { return a.v < b.v; });
  std::vector<std::size_t> order;
  for (const auto& t : all) order.push_back(t.run);
  return order;
}

// Checks select_cut at every rank (or every `stride`-th, plus the last)
// against the per-run prefix counts of the stable merge order.
void expect_cuts_match_reference(
    Machine& m, const std::vector<std::vector<std::uint64_t>>& runs,
    const char* label, std::uint64_t stride = 1) {
  const auto rs = as_runs(runs);
  const auto order = stable_merge_order(runs);
  std::vector<std::uint64_t> want(runs.size(), 0);
  for (std::uint64_t t = 0; t <= order.size(); ++t) {
    if (t % stride == 0 || t == order.size()) {
      const auto cut = select_cut(m, 0, rs, t, std::less<>{});
      for (std::size_t i = 0; i < runs.size(); ++i)
        ASSERT_EQ(cut[i] - rs[i].begin, static_cast<std::ptrdiff_t>(want[i]))
            << label << ": k=" << runs.size() << " target=" << t
            << " run=" << i;
    }
    if (t < order.size()) ++want[order[t]];
  }
}

std::uint64_t zipf_key(Xoshiro256& rng) {
  std::uint64_t v = 0;
  while (v < 20 && rng.below(2) == 0) ++v;
  return v;
}

TEST(MultisequenceCut, MatchesStableMergeReference) {
  Machine m(cfg2());
  Xoshiro256 rng(83);
  for (std::size_t k = 1; k <= 17; ++k) {
    auto build = [&](std::size_t max_len, auto gen) {
      std::vector<std::vector<std::uint64_t>> runs(k);
      for (auto& r : runs) {
        r.resize(rng.below(max_len + 1));
        for (auto& x : r) x = gen();
        std::sort(r.begin(), r.end());
      }
      return runs;
    };
    expect_cuts_match_reference(
        m, std::vector<std::vector<std::uint64_t>>(k), "empty");
    expect_cuts_match_reference(
        m, build(300, [&] { return rng.below(1u << 20); }), "ragged");
    expect_cuts_match_reference(m, build(200, [] { return 7u; }),
                                "all-equal");
    expect_cuts_match_reference(m, build(200, [&] { return rng.below(3); }),
                                "few-distinct");
    expect_cuts_match_reference(m, build(200, [&] { return zipf_key(rng); }),
                                "zipf");
    // Mostly empty runs around one long one, and a single-element run.
    auto sparse = build(0, [] { return 0u; });
    sparse[k / 2].assign(257, 5);
    sparse[k - 1].push_back(rng.below(10));
    std::sort(sparse[k - 1].begin(), sparse[k - 1].end());
    expect_cuts_match_reference(m, sparse, "sparse");
  }
}

TEST(MultisequenceCut, MatchesReferenceOnMergePathPartitionInputs) {
  Machine m(cfg2());
  Xoshiro256 rng(41);
  const std::size_t k = 6, len = 3000;
  auto build = [&](auto gen) {
    std::vector<std::vector<std::uint64_t>> runs(k);
    for (auto& r : runs) {
      r.resize(len);
      for (auto& x : r) x = gen();
      std::sort(r.begin(), r.end());
    }
    return runs;
  };
  expect_cuts_match_reference(m, build([&] { return rng.below(1u << 30); }),
                              "uniform", 7);
  expect_cuts_match_reference(m, build([] { return std::uint64_t{42}; }),
                              "all-equal", 7);
  expect_cuts_match_reference(m, build([&] { return rng.below(3); }),
                              "few-distinct", 7);
  expect_cuts_match_reference(m, build([&] { return zipf_key(rng); }),
                              "zipf-ish", 7);
  expect_cuts_match_reference(
      m, std::vector<std::vector<std::uint64_t>>(2, std::vector<std::uint64_t>(
                                                        8192, 7)),
      "two-all-equal", 5);
  Xoshiro256 rr(57);
  for (int trial = 0; trial < 10; ++trial) {
    std::vector<std::vector<std::uint64_t>> runs(1 + rr.below(8));
    for (auto& r : runs) {
      r.resize(rr.below(2500));
      for (auto& x : r) x = rr.below(5) == 0 ? 1 : rr.below(1u << 20);
      std::sort(r.begin(), r.end());
    }
    expect_cuts_match_reference(m, runs, "skewed-ragged", 3);
  }
}

// Counts read bursts per thread, the source side of a DMA descriptor
// included; every other event is ignored.
class ReadCounter final : public trace::TraceSink {
 public:
  explicit ReadCounter(std::size_t threads) : reads_(threads, 0) {}
  void record(std::size_t t, const trace::TraceOp& op) override {
    if (op.kind == trace::OpKind::Read || op.kind == trace::OpKind::DmaCopy)
      ++reads_[t];
  }
  std::uint64_t reads(std::size_t t) const { return reads_[t]; }
  std::uint64_t total() const {
    std::uint64_t n = 0;
    for (auto r : reads_) n += r;
    return n;
  }

 private:
  std::vector<std::uint64_t> reads_;
};

void adopt_runs(Machine& m, const std::vector<std::vector<std::uint64_t>>& rs) {
  for (const auto& r : rs)
    if (!r.empty()) m.adopt_far(r.data(), r.size() * sizeof(std::uint64_t));
}

TEST(MultisequenceCut, ProbeBurstsStayWithinTheLogBound) {
  Xoshiro256 rng(97);
  for (std::size_t k : {2u, 5u, 8u, 17u, 64u}) {
    std::vector<std::vector<std::uint64_t>> runs(k);
    std::uint64_t longest = 0;
    for (auto& r : runs) {
      r.resize(1 + rng.below(20000));
      for (auto& x : r) x = rng.below(k % 2 ? 4 : 1u << 30);
      std::sort(r.begin(), r.end());
      longest = std::max<std::uint64_t>(longest, r.size());
    }
    const auto rs = as_runs(runs);
    // One midpoint per run plus at most k corrective moves per level.
    const std::uint64_t bound =
        2 * k * static_cast<std::uint64_t>(std::bit_width(longest));
    const std::uint64_t total = total_size(rs);
    for (std::uint64_t t :
         {total / 7, total / 2, total - 1, std::uint64_t{1}}) {
      ReadCounter sink(1);
      TwoLevelConfig c = cfg2();
      c.threads = 1;
      Machine m(c, &sink);
      adopt_runs(m, runs);
      select_cut(m, 0, rs, t, std::less<>{});
      EXPECT_LE(sink.total(), bound) << "k=" << k << " target=" << t;
    }
  }
}

TEST(MultisequenceCut, ThreadZeroProbesOnlyItsOwnCuts) {
  // Merge Path's span property: inside parallel_multiway_merge every worker
  // finds its own two cuts, so thread 0 (the orchestrator) reads no more
  // than its own cuts' probes plus its own slice's merge refills.
  const std::size_t threads = 8, k = 6;
  Xoshiro256 rng(101);
  std::vector<std::vector<std::uint64_t>> runs(k);
  for (auto& r : runs) {
    r.resize(6000);
    for (auto& x : r) x = rng.below(1u << 30);
    std::sort(r.begin(), r.end());
  }
  const auto rs = as_runs(runs);
  const std::uint64_t total = total_size(rs);
  std::vector<std::uint64_t> out(total);
  TwoLevelConfig c = cfg2();
  c.threads = threads;

  ReadCounter sink(threads);
  Machine m(c, &sink);
  adopt_runs(m, runs);
  m.adopt_far(out.data(), out.size() * sizeof(std::uint64_t));
  parallel_multiway_merge(m, rs, std::span<std::uint64_t>(out));
  ASSERT_EQ(out, flat_sorted(runs));

  // Thread 0's own share, replayed alone: its two cuts, then its merge.
  ReadCounter solo(threads);
  Machine s(c, &solo);
  adopt_runs(s, runs);
  s.adopt_far(out.data(), out.size() * sizeof(std::uint64_t));
  const auto slice = part_slice(s, 0, rs, total, threads, 0, std::less<>{});
  const std::uint64_t cut_reads = solo.reads(0);
  EXPECT_GT(cut_reads, 0u);
  merge_runs_charged(s, 0, slice, out.data());
  EXPECT_LE(sink.reads(0), solo.reads(0));
  // Every worker past the first pays for cuts too: the probes are spread.
  for (std::size_t w = 1; w < threads; ++w) EXPECT_GT(sink.reads(w), 0u);
}

}  // namespace
}  // namespace tlm::sort
