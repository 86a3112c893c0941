// Tests for the multiway mergesort building blocks: run planning, balanced
// formation, merge passes, ping-pong parity, and the full sort across a
// grid of cache sizes (the cache fixes run size and fan-in).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <vector>

#include "common/rng.hpp"
#include "scratchpad/machine.hpp"
#include "sort/multiway_sort.hpp"

namespace tlm::sort {
namespace {

TwoLevelConfig cfg3(std::size_t threads = 4,
                    std::uint64_t cache_bytes = 64 * KiB) {
  TwoLevelConfig c = test_config(4.0);
  c.near_capacity = 8 * MiB;
  c.cache_bytes = cache_bytes;
  c.threads = threads;
  return c;
}

TEST(PlanRuns, DerivesFanFromCache) {
  Machine m(cfg3());
  const auto L = detail::plan_runs<std::uint64_t>(m, 1 << 20);
  // fan = cache / (2 * refill) = 64K / 8K = 8.
  EXPECT_EQ(L.fan, 8u);
  // run = cache/8 = 8 KiB = 1024 elements (n/threads is larger here).
  EXPECT_EQ(L.run_elems, 1024u);
  EXPECT_EQ(L.nruns, (1u << 20) / 1024);
  // passes = ceil(log_8(1024)) with 1024 runs.
  EXPECT_EQ(L.passes, 4u);
}

TEST(PlanRuns, BalancesRunsAcrossThreads) {
  Machine m(cfg3(64));
  // Small operand: runs shrink so every thread forms at least one.
  const auto L = detail::plan_runs<std::uint64_t>(m, 32'000);
  EXPECT_GE(L.nruns, 64u);
  EXPECT_GE(L.run_elems, 256u);  // but never below the granularity floor
}

TEST(PlanRuns, SinglePassWhenFanCoversRuns) {
  // A 512 KiB cache: 64 KiB runs and the top fan-in of 64.
  Machine m(cfg3(4, 512 * KiB));
  const auto L = detail::plan_runs<std::uint64_t>(m, 1 << 19);
  EXPECT_EQ(L.fan, 64u);
  EXPECT_EQ(L.run_elems, 64u * KiB / 8);
  EXPECT_EQ(L.nruns, 64u);
  EXPECT_EQ(L.passes, 1u);
}

// Forms the runs of `n` random keys on `threads` workers under `cmp` and
// checks every run is sorted and the keys are a permutation of the input.
template <typename Cmp>
void expect_runs_formed(std::size_t n, std::size_t threads, Cmp cmp) {
  SCOPED_TRACE(testing::Message() << "n=" << n << " threads=" << threads);
  Machine m(cfg3(threads));
  auto src = random_keys(n, 31 + n);
  std::vector<std::uint64_t> dst(n);
  const auto L = detail::plan_runs<std::uint64_t>(m, n);
  detail::form_runs(m, src.data(), dst.data(), n, L, cmp);
  for (std::uint64_t r = 0; r < L.nruns; ++r) {
    const std::uint64_t b = r * L.run_elems;
    const std::uint64_t e = std::min<std::uint64_t>(b + L.run_elems, n);
    EXPECT_TRUE(std::is_sorted(dst.begin() + b, dst.begin() + e))
        << "run " << r;
  }
  auto a = src, b = dst;
  std::sort(a.begin(), a.end());
  std::sort(b.begin(), b.end());
  EXPECT_EQ(a, b);
}

TEST(FormRuns, EachRunSortedAndDataPreserved) {
  // On one worker each small operand is a single run: sizes straddle the
  // radix sort's insertion cut-off (32 keys) and reach a full run.
  const std::uint64_t run_elems =
      detail::plan_runs<std::uint64_t>(Machine(cfg3(1)), 100'000).run_elems;
  for (const std::size_t n :
       {std::size_t{0}, std::size_t{1}, std::size_t{31}, std::size_t{32},
        std::size_t{33}, static_cast<std::size_t>(run_elems)}) {
    expect_runs_formed(n, 1, std::less<std::uint64_t>{});
    expect_runs_formed(n, 1, std::less<>{});
  }
  expect_runs_formed(100'000, 4, std::less<std::uint64_t>{});
  expect_runs_formed(100'000, 4, std::less<>{});
}

// host_sort_into on `keys` matches std::sort in each of its three modes:
// into another buffer, in place through a spare, and in place without one.
template <typename T>
void expect_host_sorted(const std::vector<T>& keys) {
  const std::size_t n = keys.size();
  SCOPED_TRACE(testing::Message() << sizeof(T) << "-byte keys, n=" << n);
  auto expect = keys;
  std::sort(expect.begin(), expect.end());
  std::vector<T> dst(n);
  detail::host_sort_into(keys.data(), dst.data(), n, nullptr, std::less<T>{});
  EXPECT_EQ(dst, expect) << "into another buffer";
  std::vector<T> spare(n);
  dst = keys;
  detail::host_sort_into(dst.data(), dst.data(), n, spare.data(),
                         std::less<>{});
  EXPECT_EQ(dst, expect) << "in place through a spare";
  dst = keys;
  detail::host_sort_into(dst.data(), dst.data(), n, nullptr, std::less<T>{});
  EXPECT_EQ(dst, expect) << "in place";
}

// `n` keys of type T drawn from `draw`.
template <typename T, typename Draw>
std::vector<T> draw_keys(std::size_t n, Draw draw) {
  std::vector<T> keys(n);
  for (auto& x : keys) x = static_cast<T>(draw());
  return keys;
}

template <typename T>
void expect_host_sorts_width() {
  Xoshiro256 rng(sizeof(T));
  for (const std::size_t n : {0, 1, 31, 32, 33, 1000, 5000}) {
    expect_host_sorted(draw_keys<T>(n, [&] { return rng.next(); }));
    expect_host_sorted(draw_keys<T>(n, [&] { return rng.below(3); }));
    expect_host_sorted(draw_keys<T>(n, [&] { return ~rng.below(300); }));
  }
}

TEST(HostSort, MatchesStdSortAtEveryKeyWidth) {
  expect_host_sorts_width<std::uint8_t>();
  expect_host_sorts_width<std::uint16_t>();
  expect_host_sorts_width<std::uint32_t>();
  expect_host_sorts_width<std::uint64_t>();
}

// The scatter pass's shapes: a range reaching the top bit (one counting
// pass), a narrow one (counted again), a single key (copied), large
// buckets finished by the American flag sort, a few keys (large equal
// buckets), and presorted input, across the bucket-count steps of n and
// both sides of the insertion cut-off.
template <typename T>
void expect_host_sorts_shapes() {
  Xoshiro256 rng(40 + sizeof(T));
  const T top = static_cast<T>(rng.next()) & ~T{0xffffff};
  const T values[] = {T{5}, static_cast<T>(T{1} << (4 * sizeof(T))),
                      static_cast<T>(~T{0})};
  for (const std::size_t n : {0, 1, 31, 32, 33, 2047, 2048, 4097}) {
    expect_host_sorted(draw_keys<T>(n, [&] { return rng.next(); }));
    expect_host_sorted(
        draw_keys<T>(n, [&] { return top | rng.below(1 << 24); }));
    expect_host_sorted(std::vector<T>(n, top));
    // A few large buckets whose keys differ only far below the digit.
    expect_host_sorted(draw_keys<T>(n, [&] {
      return rng.below(4) << (8 * sizeof(T) - 8) | rng.below(1 << 12);
    }));
    expect_host_sorted(draw_keys<T>(n, [&] { return values[rng.below(3)]; }));
    auto sorted = draw_keys<T>(n, [&] { return rng.next(); });
    std::sort(sorted.begin(), sorted.end());
    expect_host_sorted(sorted);
    std::reverse(sorted.begin(), sorted.end());
    expect_host_sorted(sorted);
  }
}

TEST(HostSortInto, MatchesStdSortOnEveryShape) {
  expect_host_sorts_shapes<std::uint64_t>();
  expect_host_sorts_shapes<std::uint32_t>();
}

// Keys compared other than by plain `<` keep std::sort, in all three modes.
TEST(HostSortInto, OtherComparatorsKeepStdSort) {
  auto keys = random_keys(3000, 41);
  auto expect = keys;
  std::sort(expect.begin(), expect.end(), std::greater<>{});
  std::vector<std::uint64_t> dst(keys.size()), spare(keys.size());
  detail::host_sort_into(keys.data(), dst.data(), keys.size(), nullptr,
                         std::greater<>{});
  EXPECT_EQ(dst, expect);
  dst = keys;
  detail::host_sort_into(dst.data(), dst.data(), dst.size(), spare.data(),
                         std::greater<>{});
  EXPECT_EQ(dst, expect);
}

// In-place formation through a spare sorts each run and keeps the keys.
TEST(FormRuns, InPlaceThroughSpare) {
  Machine m(cfg3(4));
  const std::size_t n = 100'000;
  auto data = random_keys(n, 42);
  const auto input = data;
  std::vector<std::uint64_t> spare(n);
  const auto L = detail::plan_runs<std::uint64_t>(m, n);
  ASSERT_GT(L.nruns, 1u);
  detail::form_runs(m, data.data(), data.data(), n, L, std::less<>{},
                    spare.data());
  for (std::uint64_t r = 0; r < L.nruns; ++r) {
    const std::uint64_t b = r * L.run_elems;
    const std::uint64_t e = std::min<std::uint64_t>(b + L.run_elems, n);
    auto expect = std::vector<std::uint64_t>(input.begin() + b,
                                             input.begin() + e);
    std::sort(expect.begin(), expect.end());
    EXPECT_TRUE(std::equal(expect.begin(), expect.end(), data.begin() + b))
        << "run " << r;
  }
}

TEST(MergePass, HalvesRunCountByFan) {
  // A 32 KiB cache: fan-in 4 over 512-element runs.
  Machine m(cfg3(4, 32 * KiB));
  const std::size_t n = 64'000;
  auto data = random_keys(n, 32);
  std::vector<std::uint64_t> tmp(n);
  const auto L = detail::plan_runs<std::uint64_t>(m, n);
  ASSERT_EQ(L.fan, 4u);
  ASSERT_EQ(L.run_elems, 512u);
  detail::form_runs(m, data.data(), data.data(), n, L, std::less<>{});
  const std::uint64_t next = detail::merge_pass(
      m, data.data(), tmp.data(), n, L.run_elems, L.nruns, L.fan,
      std::less<std::uint64_t>{});
  EXPECT_EQ(next, (L.nruns + 3) / 4);
  // Every merged group is sorted.
  const std::uint64_t group_len = L.run_elems * 4;
  for (std::uint64_t g = 0; g < next; ++g) {
    const std::uint64_t b = g * group_len;
    const std::uint64_t e = std::min<std::uint64_t>(b + group_len, n);
    EXPECT_TRUE(std::is_sorted(tmp.begin() + b, tmp.begin() + e))
        << "group " << g;
  }
}

TEST(MultiwaySort, OptionGridAllSortCorrectly) {
  const std::size_t n = 150'000;
  const auto base = random_keys(n, 33);
  auto expect = base;
  std::sort(expect.begin(), expect.end());
  // The cache fixes both run size and fan-in: the 4 KiB run floor with the
  // bottom fan-in, a fan-in of 5 (not a power of two), 32, and the top
  // fan-in of 64 (which a 1 MiB cache would double).
  struct Point {
    std::uint64_t cache;
    std::size_t fan;
    std::uint64_t run_elems;
  };
  for (const Point& p : {Point{8 * KiB, 4, 512}, Point{40 * KiB, 5, 640},
                         Point{256 * KiB, 32, 4096},
                         Point{1 * MiB, 64, 16384}}) {
    for (std::size_t threads : {1u, 4u}) {
      Machine m(cfg3(threads, p.cache));
      const auto L = detail::plan_runs<std::uint64_t>(m, n);
      EXPECT_EQ(L.fan, p.fan) << "cache=" << p.cache;
      EXPECT_EQ(L.run_elems, p.run_elems) << "cache=" << p.cache;
      auto v = base;
      m.adopt_far(v.data(), v.size() * 8);
      multiway_merge_sort(m, std::span<std::uint64_t>(v));
      EXPECT_EQ(v, expect) << "cache=" << p.cache << " threads=" << threads;
    }
  }
}

TEST(MultiwaySort, WorksInNearSpaceToo) {
  Machine m(cfg3());
  const std::size_t n = 200'000;
  auto keys = random_keys(n, 34);
  auto near = m.alloc_array<std::uint64_t>(Space::Near, n);
  std::copy(keys.begin(), keys.end(), near.begin());
  m.begin_phase("near-sort");
  multiway_merge_sort(m, near);
  m.end_phase();
  EXPECT_TRUE(std::is_sorted(near.begin(), near.end()));
  const auto ph = m.stats().phases.at(0);
  EXPECT_EQ(ph.far_bytes(), 0u);  // everything stayed in the scratchpad
  EXPECT_GT(ph.near_bytes(), n * 8 * 2);
  m.free_array(Space::Near, near);
}

TEST(MultiwaySort, PingPongAlwaysLandsInPlace) {
  // Sweep sizes that produce 1 to 6 merge passes at the smallest fan-in (a
  // 32 KiB cache: fan-in 4); the result must always end up in the caller's
  // buffer, whichever parity the pass count has.
  bool saw_odd = false, saw_even = false;
  for (std::uint64_t n : {300ULL, 5'000ULL, 40'000ULL, 300'000ULL,
                          900'000ULL}) {
    Machine m(cfg3(4, 32 * KiB));
    const std::size_t passes = detail::plan_runs<std::uint64_t>(m, n).passes;
    (passes % 2 == 1 ? saw_odd : saw_even) = true;
    auto v = random_keys(static_cast<std::size_t>(n), n);
    auto expect = v;
    std::sort(expect.begin(), expect.end());
    m.adopt_far(v.data(), v.size() * 8);
    multiway_merge_sort(m, std::span<std::uint64_t>(v));
    EXPECT_EQ(v, expect) << "n=" << n << " passes=" << passes;
  }
  EXPECT_TRUE(saw_odd);
  EXPECT_TRUE(saw_even);
}

TEST(MultiwaySort, ComputeChargeScalesNLogN) {
  auto ops_for = [&](std::size_t n) {
    Machine m(cfg3());
    auto v = random_keys(n, 35);
    m.adopt_far(v.data(), v.size() * 8);
    m.begin_phase("s");
    multiway_merge_sort(m, std::span<std::uint64_t>(v));
    m.end_phase();
    return m.stats().total.compute_ops_total();
  };
  const double small = ops_for(50'000);
  const double large = ops_for(400'000);
  const double ratio = large / small;
  EXPECT_GT(ratio, 8.0);    // superlinear
  EXPECT_LT(ratio, 8.0 * 2.2);  // but only by log factors
}

}  // namespace
}  // namespace tlm::sort
