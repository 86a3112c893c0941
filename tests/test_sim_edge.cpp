// Edge cases and robustness of the simulator: degenerate traces, unaligned
// bursts, determinism, event budgets, routing priority, backend validation,
// and the timing and event count of requests that a memory controller
// books at injection, from their arrival time.
#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "analysis/validate.hpp"
#include "sim/memory.hpp"
#include "sim/noc.hpp"
#include "sim/system.hpp"
#include "trace/capture.hpp"

namespace tlm::sim {
namespace {

SystemConfig small_node(double rho = 4.0) {
  return SystemConfig::scaled(rho, 4);
}

// The crossbar's serialization time of `bytes` on a port of `bw` bytes/s.
SimTime wire(std::uint64_t bytes, double bw) {
  return static_cast<SimTime>(static_cast<double>(bytes) / bw * 1e12);
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

// A replay whose last activity is a posted writeback ends when that
// writeback arrives at far memory, though no event runs then. Core 0 stores
// to l1.ways + l2.ways + 1 lines of one cache set, all issued at t = 0: the
// L1 lookups at l1.latency evict l2.ways + 1 dirty lines into the L2, whose
// lookups at l1.latency + l2.latency overflow its set, and the L2 posts its
// oldest line to far memory. That writeback (a header plus a line) is the
// only crossbar message: it crosses the idle group port, the hop and the
// idle far port (provisioned at 2.4x the far memory's bandwidth).
TEST(SimEdge, PostedWritebackArrivalEndsTheRun) {
  SystemConfig cfg = small_node();
  cfg.core.max_outstanding = 32;
  const std::uint64_t set_stride = cfg.l1.size_bytes / cfg.l1.ways;
  ASSERT_EQ(set_stride, cfg.l2.size_bytes / cfg.l2.ways);
  const std::uint32_t stores = cfg.l1.ways + cfg.l2.ways + 1;
  ASSERT_LE(stores, cfg.core.max_outstanding);
  trace::TraceBuffer tr(4);
  for (std::uint32_t i = 0; i < stores; ++i)
    tr.on_write(0, trace::kFarBase + i * set_stride, cfg.l1.line_bytes);
  System sys(cfg, tr);
  const SimReport r = sys.run();
  EXPECT_EQ(r.far.writes, 1u);
  EXPECT_EQ(r.noc.messages, 1u);

  const std::uint64_t bytes = cfg.noc.header_bytes + cfg.l1.line_bytes;
  const SimTime arrival = cfg.l1.latency + cfg.l2.latency +
                          wire(bytes, cfg.group_port_bw) +
                          cfg.noc.hop_latency +
                          wire(bytes, 2.4 * cfg.far.total_bw());
  EXPECT_EQ(r.seconds, to_seconds(arrival));
  std::ostringstream dump, want;
  sys.print_stats(dump);
  want << "sim.time_s " << to_seconds(arrival) << "\n";
  EXPECT_NE(dump.str().find(want.str()), std::string::npos) << dump.str();

  // Queued: a start event per core (4), a lookup per store in the L1 (19)
  // and per writeback in the L2 (17). Plus one for the far arrival.
  EXPECT_EQ(r.events, 4u + 19u + 17u + 1u);
}

// `events` counts each request's arrival at a memory controller as one
// event. Core 0 reads two far lines and core 1 two near lines, all missing
// both caches. Queued: 4 core starts, 4 L1 lookups, 4 L2 lookups, 4 memory
// responses (channel lanes) and 4 response deliveries into the group port;
// the fills answer the L1s and cores within the last. Plus one per
// arrival: 2 far and 2 near.
TEST(SimEdge, EventsCountQueuedEventsPlusOnePerMemoryArrival) {
  trace::TraceBuffer tr(4);
  tr.on_read(0, trace::kFarBase, 128);
  tr.on_read(1, trace::kNearBase, 128);
  System sys(small_node(), tr);
  const SimReport r = sys.run();
  ASSERT_EQ(r.far.accesses() + r.near.accesses(), 4u);
  EXPECT_EQ(r.events, (4u + 4u + 4u + 4u + 4u) + 4u);
}

// A far read's response leaves the controller at its arrival + dc_latency
// + the row time + the burst, counted from the arrival and not from the
// injection. The arrival is the request's 16-byte command crossing both
// idle ports and the hop; the response (header plus line) then crosses
// back.
TEST(SimEdge, FarReadRespondsFromItsArrival) {
  struct Recorder final : Requester {
    Simulator* sim = nullptr;
    SimTime at = 0;
    int responses = 0;
    void on_response(const MemReq&) override {
      at = sim->now();
      ++responses;
    }
  };
  Simulator sim;
  const NocConfig noc;
  Crossbar xbar(sim, noc);
  const FarMemConfig fc;
  FarMemory far(sim, fc);
  const double src_bw = 72e9, far_bw = 36e9;
  const std::size_t src = xbar.add_endpoint("l2", src_bw);
  const std::size_t fep = xbar.add_endpoint("far", far_bw);
  xbar.add_route(trace::kFarBase, trace::kNearBase, fep, &far);
  Recorder who;
  who.sim = &sim;
  MemReq req;
  req.addr = trace::kFarBase;
  req.bytes = fc.line_bytes;
  req.origin = &who;
  xbar.port(src)->request(req);
  sim.run();
  ASSERT_EQ(who.responses, 1);
  EXPECT_EQ(far.stats().row_misses, 1u);

  const SimTime arrival = wire(noc.header_bytes, src_bw) + noc.hop_latency +
                          wire(noc.header_bytes, far_bw);
  const SimTime response = arrival + fc.dc_latency + fc.row_miss +
                           wire(fc.line_bytes, fc.channel_bw);
  const std::uint64_t back = noc.header_bytes + fc.line_bytes;
  EXPECT_EQ(who.at, response + wire(back, far_bw) + noc.hop_latency +
                        wire(back, src_bw));
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
