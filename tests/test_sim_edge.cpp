// Edge cases and robustness of the simulator: degenerate traces, unaligned
// bursts, determinism, event budgets, routing priority, backend validation.
#include <gtest/gtest.h>

#include "analysis/validate.hpp"
#include "sim/system.hpp"
#include "trace/capture.hpp"

namespace tlm::sim {
namespace {

SystemConfig small_node(double rho = 4.0) {
  return SystemConfig::scaled(rho, 4);
}

TEST(SimEdge, EmptyStreamsFinishInstantly) {
  trace::TraceBuffer tr(4);  // nobody does anything
  System sys(small_node(), tr);
  const SimReport r = sys.run();
  EXPECT_EQ(r.seconds, 0.0);
  EXPECT_EQ(r.far.accesses(), 0u);
}

TEST(SimEdge, MixedEmptyAndBusyStreamsWithoutBarriers) {
  trace::TraceBuffer tr(4);
  tr.on_read(2, trace::kFarBase, 4096);  // only core 2 works
  System sys(small_node(), tr);
  const SimReport r = sys.run();
  EXPECT_EQ(r.core_loads, 64u);
  EXPECT_GT(r.seconds, 0.0);
}

TEST(SimEdge, BarrierOnlyTrace) {
  trace::TraceBuffer tr(4);
  for (std::size_t t = 0; t < 4; ++t) {
    tr.on_barrier(t, 0);
    tr.on_barrier(t, 1);
  }
  System sys(small_node(), tr);
  const SimReport r = sys.run();
  EXPECT_EQ(r.barrier_epochs, 2u);
}

TEST(SimEdge, MissingBarrierParticipantIsDetected) {
  trace::TraceBuffer tr(4);
  tr.on_barrier(0, 0);
  tr.on_barrier(1, 0);
  tr.on_barrier(2, 0);  // core 3 never arrives
  System sys(small_node(), tr);
  EXPECT_THROW(sys.run(), std::logic_error);
}

TEST(SimEdge, UnalignedBurstsCoverWholeLines) {
  trace::TraceBuffer tr(4);
  // 100 bytes starting 8 bytes into a line: lines 0 and 1 both touched.
  tr.on_read(0, trace::kFarBase + 8, 100);
  System sys(small_node(), tr);
  const SimReport r = sys.run();
  EXPECT_EQ(r.core_loads, 2u);
}

TEST(SimEdge, EveryAccessRecordsOneLatencySample) {
  trace::TraceBuffer tr(4);
  // Two non-contiguous bursts that share line 1 ([8,108) and [120,184)):
  // both requests for that line are in flight at once, and each must still
  // be timed from its own issue.
  tr.on_read(0, trace::kFarBase + 8, 100);
  tr.on_read(0, trace::kFarBase + 120, 64);
  tr.on_write(1, trace::kNearBase + 8, 100);
  tr.on_write(1, trace::kNearBase + 120, 64);
  System sys(small_node(), tr);
  const SimReport r = sys.run();
  EXPECT_EQ(r.core_loads, 4u);
  EXPECT_EQ(r.core_stores, 4u);
  EXPECT_EQ(r.latency_hist.count(), r.core_loads + r.core_stores);
  EXPECT_EQ(r.access_latency.count(), r.core_loads + r.core_stores);
}

TEST(SimEdge, ZeroByteBurstIsANoOp) {
  trace::TraceBuffer tr(4);
  tr.on_read(0, trace::kFarBase, 0);
  tr.on_compute(0, 10.0);
  System sys(small_node(), tr);
  const SimReport r = sys.run();
  EXPECT_EQ(r.core_loads, 0u);
  EXPECT_DOUBLE_EQ(r.compute_ops, 10.0);
}

TEST(SimEdge, DeterministicAcrossRuns) {
  auto once = [&] {
    trace::TraceBuffer tr(4);
    for (std::size_t t = 0; t < 4; ++t) {
      tr.on_read(t, trace::kFarBase + t * 65536, 65536);
      tr.on_barrier(t, 0);
      tr.on_write(t, trace::kNearBase + t * 65536, 65536);
    }
    System sys(small_node(), tr);
    return sys.run();
  };
  const SimReport a = once();
  const SimReport b = once();
  EXPECT_EQ(a.seconds, b.seconds);
  EXPECT_EQ(a.events, b.events);
  EXPECT_EQ(a.far.accesses(), b.far.accesses());
  EXPECT_EQ(a.near.accesses(), b.near.accesses());
}

TEST(SimEdge, EventBudgetAborts) {
  trace::TraceBuffer tr(4);
  for (std::size_t t = 0; t < 4; ++t)
    tr.on_read(t, trace::kFarBase + t * (1 << 20), 1 << 20);
  System sys(small_node(), tr);
  EXPECT_THROW(sys.run(/*max_events=*/100), std::logic_error);
}

TEST(SimEdge, ReusingTraceAcrossSystemsIsSafe) {
  trace::TraceBuffer tr(4);
  for (std::size_t t = 0; t < 4; ++t)
    tr.on_read(t, trace::kFarBase + t * 8192, 8192);
  System a(small_node(2.0), tr);
  System b(small_node(8.0), tr);
  EXPECT_EQ(a.run().core_loads, b.run().core_loads);
}

TEST(SimEdge, LatencyHistogramTracksMean) {
  trace::TraceBuffer tr(4);
  for (std::size_t t = 0; t < 4; ++t)
    tr.on_read(t, trace::kFarBase + t * (1 << 18), 1 << 18);
  System sys(small_node(), tr);
  const SimReport r = sys.run();
  ASSERT_GT(r.latency_hist.count(), 0u);
  EXPECT_NEAR(r.latency_hist.mean(), r.access_latency.mean(),
              r.access_latency.mean() * 1e-6);
  EXPECT_LE(r.latency_hist.p50(), r.latency_hist.p99());
}

TEST(SimEdge, ValidationMatrixAgreesAcrossBackends) {
  // One medium point rather than the whole default matrix (kept for the
  // bench): access counts within 10%, time within 2x.
  analysis::ValidationPoint p;
  p.algorithm = sort::Algorithm::NMsort;
  p.rho = 4.0;
  p.cores = 4;
  p.n = 1 << 17;
  p.near_capacity = 1 * MiB;
  const auto s = analysis::validate_backends({p}, 7);
  ASSERT_EQ(s.points.size(), 1u);
  EXPECT_TRUE(s.all_verified);
  EXPECT_LT(s.worst_far_ratio_dev, 0.10);
  EXPECT_LT(s.worst_near_ratio_dev, 0.15);
  EXPECT_LT(s.worst_time_ratio_dev, 1.0);
}

}  // namespace
}  // namespace tlm::sim
