// Tests for the multiway mergesort building blocks: run planning, balanced
// formation, merge passes, ping-pong parity, and the full sort across an
// option grid.
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

TwoLevelConfig cfg3(std::size_t threads = 4) {
  TwoLevelConfig c = test_config(4.0);
  c.near_capacity = 8 * MiB;
  c.cache_bytes = 64 * KiB;
  c.threads = threads;
  return c;
}

TEST(PlanRuns, DerivesFanFromCache) {
  Machine m(cfg3());
  MultiwaySortOptions opt;  // defaults: run 0, fan 0, refill 4 KiB
  const auto L = detail::plan_runs<std::uint64_t>(m, 1 << 20, opt);
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
  MultiwaySortOptions opt;
  // Small operand: runs shrink so every thread forms at least one.
  const auto L = detail::plan_runs<std::uint64_t>(m, 32'000, opt);
  EXPECT_GE(L.nruns, 64u);
  EXPECT_GE(L.run_elems, 256u);  // but never below the granularity floor
}

TEST(PlanRuns, ExplicitOverridesWin) {
  Machine m(cfg3());
  MultiwaySortOptions opt;
  opt.run_bytes = 64 * KiB;
  opt.fan_in = 3;
  const auto L = detail::plan_runs<std::uint64_t>(m, 1 << 20, opt);
  EXPECT_EQ(L.fan, 3u);
  EXPECT_EQ(L.run_elems, 64u * KiB / 8);
}

TEST(PlanRuns, SinglePassWhenFanCoversRuns) {
  Machine m(cfg3());
  MultiwaySortOptions opt;
  opt.fan_in = 64;
  opt.run_bytes = 64 * KiB;
  const auto L = detail::plan_runs<std::uint64_t>(m, 1 << 19, opt);
  EXPECT_LE(L.nruns, 64u);
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
  MultiwaySortOptions opt;
  const auto L = detail::plan_runs<std::uint64_t>(m, n, opt);
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
      detail::plan_runs<std::uint64_t>(Machine(cfg3(1)), 100'000, {})
          .run_elems;
  for (const std::size_t n :
       {std::size_t{0}, std::size_t{1}, std::size_t{31}, std::size_t{32},
        std::size_t{33}, static_cast<std::size_t>(run_elems)}) {
    expect_runs_formed(n, 1, std::less<std::uint64_t>{});
    expect_runs_formed(n, 1, std::less<>{});
  }
  expect_runs_formed(100'000, 4, std::less<std::uint64_t>{});
  expect_runs_formed(100'000, 4, std::less<>{});
}

// host_sort on `n` keys of type T drawn from `draw` matches std::sort.
template <typename T, typename Draw>
void expect_host_sorted(std::size_t n, Draw draw) {
  SCOPED_TRACE(testing::Message() << sizeof(T) << "-byte keys, n=" << n);
  std::vector<T> keys(n);
  for (auto& x : keys) x = static_cast<T>(draw());
  auto expect = keys;
  std::sort(expect.begin(), expect.end());
  detail::host_sort(keys.data(), keys.data() + n, std::less<T>{});
  EXPECT_EQ(keys, expect);
}

template <typename T>
void expect_host_sorts_width() {
  Xoshiro256 rng(sizeof(T));
  for (const std::size_t n : {0, 1, 31, 32, 33, 1000, 5000}) {
    expect_host_sorted<T>(n, [&] { return rng.next(); });
    expect_host_sorted<T>(n, [&] { return rng.below(3); });
    expect_host_sorted<T>(n, [&] { return ~rng.below(300); });
  }
}

TEST(HostSort, MatchesStdSortAtEveryKeyWidth) {
  expect_host_sorts_width<std::uint8_t>();
  expect_host_sorts_width<std::uint16_t>();
  expect_host_sorts_width<std::uint32_t>();
  expect_host_sorts_width<std::uint64_t>();
}

TEST(MergePass, HalvesRunCountByFan) {
  Machine m(cfg3());
  const std::size_t n = 64'000;
  auto data = random_keys(n, 32);
  std::vector<std::uint64_t> tmp(n);
  MultiwaySortOptions opt;
  opt.fan_in = 4;
  opt.run_bytes = 8 * KiB;  // 1024-element runs
  const auto L = detail::plan_runs<std::uint64_t>(m, n, opt);
  detail::form_runs(m, data.data(), data.data(), n, L, std::less<>{});
  const std::uint64_t next = detail::merge_pass(
      m, data.data(), tmp.data(), n, L.run_elems, L.nruns, L.fan, opt.merge,
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
  for (std::uint64_t run : {2 * KiB, 32 * KiB}) {
    for (std::size_t fan : {2u, 5u, 32u}) {
      for (std::size_t threads : {1u, 4u}) {
        Machine m(cfg3(threads));
        auto v = base;
        m.adopt_far(v.data(), v.size() * 8);
        MultiwaySortOptions opt;
        opt.run_bytes = run;
        opt.fan_in = fan;
        multiway_merge_sort(m, std::span<std::uint64_t>(v), opt);
        EXPECT_EQ(v, expect)
            << "run=" << run << " fan=" << fan << " threads=" << threads;
      }
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
  // Sweep sizes that produce 1..5 merge passes; the result must always end
  // up in the caller's buffer (the parity logic).
  for (std::uint64_t n : {300ULL, 5'000ULL, 40'000ULL, 300'000ULL,
                          900'000ULL}) {
    Machine m(cfg3());
    MultiwaySortOptions opt;
    opt.fan_in = 2;  // maximize pass count
    opt.run_bytes = 2 * KiB;
    auto v = random_keys(static_cast<std::size_t>(n), n);
    auto expect = v;
    std::sort(expect.begin(), expect.end());
    m.adopt_far(v.data(), v.size() * 8);
    multiway_merge_sort(m, std::span<std::uint64_t>(v), opt);
    EXPECT_EQ(v, expect) << "n=" << n;
  }
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
