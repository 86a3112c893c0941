// Integration tests: capture real algorithm traces through the Machine and
// replay them on the cycle-level simulator — the full Table I pipeline at
// test scale.
#include <gtest/gtest.h>

#include "analysis/experiment.hpp"
#include "kmeans/kmeans.hpp"

namespace tlm::analysis {
namespace {

using sort::Algorithm;

constexpr std::uint64_t kN = 1 << 16;       // 512 KiB of keys
constexpr std::uint64_t kNear = 256 * KiB;  // forces ~4 chunks
constexpr std::size_t kCores = 4;

SimulatedSort simulate_scaled(double rho, Algorithm a, std::uint64_t seed) {
  return simulate_sort(sim::SystemConfig::scaled(rho, kCores), rho, kN, kNear,
                       a, seed);
}

TEST(Integration, CountingRunVerifiesAllAlgorithms) {
  const TwoLevelConfig cfg = scaled_counting_config(4.0, kCores, kNear);
  for (Algorithm a : {Algorithm::GnuSort, Algorithm::NMsort,
                      Algorithm::NMsortNaive, Algorithm::ScratchpadSeq,
                      Algorithm::ScratchpadSeqQuick}) {
    const SortRun r = run_sort_counting(cfg, a, kN, 42);
    EXPECT_TRUE(r.verified) << to_string(a);
    EXPECT_GT(r.modeled_seconds, 0.0) << to_string(a);
  }
}

TEST(Integration, NmsortUsesScratchpadBaselineDoesNot) {
  TwoLevelConfig cfg = scaled_counting_config(4.0, kCores, kNear);
  // Shrink the cache so the baseline needs several merge passes at this
  // test's N (the regime where the scratchpad pays off; at paper scale the
  // default 512 KiB cache has the same property).
  cfg.cache_bytes = 32 * KiB;
  const SortRun gnu = run_sort_counting(cfg, Algorithm::GnuSort, kN, 7);
  const SortRun nm = run_sort_counting(cfg, Algorithm::NMsort, kN, 7);
  EXPECT_EQ(gnu.counting.total.near_bytes(), 0u);
  EXPECT_GT(nm.counting.total.near_bytes(), 0u);
  // NMsort's far traffic: 2 read + 2 write passes (+metadata); GNU sort's:
  // (1 + merge passes) read+write passes. NMsort must do less far traffic.
  EXPECT_LT(nm.counting.total.far_bytes(), gnu.counting.total.far_bytes());
}

TEST(Integration, TraceReplayMatchesCountingTraffic) {
  const TwoLevelConfig cfg = scaled_counting_config(4.0, kCores, kNear);
  CaptureRun cap = capture_sort_trace(cfg, Algorithm::NMsort, kN, 9);
  ASSERT_TRUE(cap.counting.verified);

  const auto summary = cap.trace.summary();
  const auto& tot = cap.counting.counting.total;
  // The trace carries exactly the bytes the counting backend charged.
  EXPECT_EQ(summary.read_bytes, tot.far_read_bytes() + tot.near_read_bytes());
  EXPECT_EQ(summary.write_bytes,
            tot.far_write_bytes() + tot.near_write_bytes());
  EXPECT_NEAR(summary.compute_ops, tot.compute_ops_total(), 1.0);
}

TEST(Integration, SimulatedNmsortCompletesAndTouchesBothMemories) {
  const SimulatedSort s = simulate_scaled(4.0, Algorithm::NMsort, 11);
  ASSERT_TRUE(s.counting.verified);
  EXPECT_GT(s.report.seconds, 0.0);
  EXPECT_GT(s.report.far.accesses(), 0u);
  EXPECT_GT(s.report.near.accesses(), 0u);
  EXPECT_GT(s.report.barrier_epochs, 0u);
  // Line accesses at the memories cannot exceed the lines the cores issued
  // (caches only filter; writebacks add, but dirty lines parked in caches
  // subtract more at these sizes) — sanity band only.
  EXPECT_GT(s.report.core_loads + s.report.core_stores, 0u);
}

TEST(Integration, SimulatedGnuSortNeverTouchesScratchpad) {
  const SimulatedSort s = simulate_scaled(4.0, Algorithm::GnuSort, 13);
  ASSERT_TRUE(s.counting.verified);
  EXPECT_EQ(s.report.near.accesses(), 0u);
  EXPECT_GT(s.report.far.accesses(), 0u);
}

TEST(Integration, HigherRhoDoesNotSlowNmsortDown) {
  const SimulatedSort s2 = simulate_scaled(2.0, Algorithm::NMsort, 17);
  const SimulatedSort s8 = simulate_scaled(8.0, Algorithm::NMsort, 17);
  ASSERT_TRUE(s2.counting.verified);
  ASSERT_TRUE(s8.counting.verified);
  EXPECT_LT(s8.report.seconds, s2.report.seconds * 1.02);
}

TEST(Integration, KMeansTraceReplaysOnSimulator) {
  // The §VII extension runs through the same capture/replay pipeline.
  TwoLevelConfig cfg = scaled_counting_config(4.0, kCores, 2 * MiB);
  trace::TraceBuffer tb(cfg.threads);
  Machine m(cfg, &tb);
  const auto pts = kmeans::make_blobs(20'000, 4, 4, 3);
  kmeans::KMeansOptions opt;
  opt.k = 4;
  opt.dims = 4;
  opt.max_iters = 5;
  opt.tol = 0;
  const auto res = kmeans::kmeans_near(m, pts, opt);
  EXPECT_EQ(res.iterations, 5u);
  m.end_phase();

  sim::SystemConfig sys = sim::SystemConfig::scaled(4.0, kCores);
  sim::System system(sys, tb);
  const sim::SimReport r = system.run();
  EXPECT_GT(r.seconds, 0.0);
  // Staging reads far once; iterations stream the scratchpad.
  EXPECT_GT(r.near.accesses(), r.far.accesses());
  EXPECT_GT(r.access_latency.count(), 0u);
}

TEST(Integration, SimLatencyStatsArePlausible) {
  const SimulatedSort s = simulate_scaled(4.0, Algorithm::NMsort, 23);
  ASSERT_TRUE(s.counting.verified);
  const RunningStats& lat = s.report.access_latency;
  EXPECT_GT(lat.count(), 1000u);
  // Round trips sit between the L1 hit floor and a generous queueing cap.
  EXPECT_GT(lat.mean(), 2e-9);
  EXPECT_LT(lat.mean(), 1e-4);
  EXPECT_LE(lat.min(), lat.mean());
  EXPECT_LE(lat.mean(), lat.max());
}

TEST(Integration, ScaledCountingConfigPreservesRatio) {
  const TwoLevelConfig full = scaled_counting_config(4.0, 256, kNear);
  const TwoLevelConfig small = scaled_counting_config(4.0, 8, kNear);
  // x/y identical: per-core rate fixed, bandwidth scales with cores.
  EXPECT_NEAR(full.far_bw / 256.0, small.far_bw / 8.0, 1.0);
  EXPECT_DOUBLE_EQ(full.core_rate, small.core_rate);
}

}  // namespace
}  // namespace tlm::analysis
