// Chaos differential harness — the fault-injection headline gate.
//
// Under ANY deterministic fault schedule (probabilistic denials, bursts,
// stalls, and the total near-memory blackout) every staged algorithm must
// produce bit-identical output to its clean run: fault handling may only
// change *where* data lives and *what the run costs*, never the result.
// The suite also pins the failure-accounting plumbing (FaultStats through
// the tlm.run_report JSON schema and back), the
// retry-budget abort, and the cycle simulator's stall/retry honoring.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <memory>
#include <string>
#include <vector>

#include "analysis/experiment.hpp"
#include "common/faults.hpp"
#include "dma_test_access.hpp"
#include "kmeans/kmeans.hpp"
#include "obs/run_report.hpp"
#include "scratchpad/machine.hpp"
#include "server/job_server.hpp"
#include "server/jobs.hpp"
#include "sim/dma.hpp"
#include "sim/memory.hpp"
#include "sim/noc.hpp"
#include "sim/simulator.hpp"
#include "trace/capture.hpp"

namespace tlm {
namespace {

using sort::Algorithm;

// Small enough that 100K keys stage through the scratchpad in many batches,
// with the DMA pipeline (and therefore the retry gate) live.
TwoLevelConfig chaos_config() {
  TwoLevelConfig c = test_config(4.0);
  c.near_capacity = 256 * KiB;
  c.cache_bytes = 32 * KiB;
  c.threads = 4;
  c.overlap_dma = true;
  return c;
}

constexpr Algorithm kChaosAlgos[] = {
    Algorithm::NMsort, Algorithm::ScratchpadSeq, Algorithm::ScratchpadPar,
    Algorithm::NMsortWriteEff};

// A mixed schedule: transient near denials, occasional DMA failures (far
// below the retry budget), and small stalls on both transfer paths.
void arm_mixed_chaos(FaultInjector& fi) {
  fi.arm(fault_site::kNearAlloc, FaultSchedule::prob(0.25));
  fi.arm(fault_site::kDmaFail, FaultSchedule::prob(0.05));
  fi.arm(fault_site::kDmaStall, FaultSchedule::prob(0.1, 1e-6));
  fi.arm(fault_site::kFarStall, FaultSchedule::prob(0.002, 5e-7));
}

class ChaosSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ChaosSweep, SortsStayBitIdenticalUnderMixedFaults) {
  const std::uint64_t seed = GetParam();
  for (const Algorithm a : kChaosAlgos) {
    FaultInjector fi(seed);
    arm_mixed_chaos(fi);
    const analysis::SortRun r =
        analysis::run_sort_counting(chaos_config(), a, 100'000, 2026, &fi);
    // run_sort_counting checks the output against std::sort — the clean
    // run's exact result — so `verified` IS the differential.
    EXPECT_TRUE(r.verified) << sort::to_string(a) << " seed " << seed;
    // The schedule must actually have bitten, or the sweep proves nothing.
    const FaultStats& f = r.faults;
    EXPECT_GT(f.near_alloc_injected + f.dma_injected + f.far_stalls, 0u)
        << sort::to_string(a) << " seed " << seed;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ChaosSweep,
                         ::testing::Values(101u, 202u, 303u));

TEST(ChaosDifferential, SortsSurviveTotalNearBlackout) {
  // The strongest schedule: every fallible near allocation is denied, so
  // the whole pipeline degrades to far memory — and must still sort.
  for (const Algorithm a : kChaosAlgos) {
    FaultInjector fi(1);
    fi.arm(fault_site::kNearAlloc, FaultSchedule::every());
    const analysis::SortRun r =
        analysis::run_sort_counting(chaos_config(), a, 100'000, 7, &fi);
    EXPECT_TRUE(r.verified) << sort::to_string(a);
    EXPECT_GT(r.faults.near_alloc_injected, 0u) << sort::to_string(a);
    EXPECT_GT(r.faults.near_far_fallbacks, 0u) << sort::to_string(a);
  }
}

TEST(ChaosDifferential, KMeansStagedBitIdenticalUnderFaults) {
  TwoLevelConfig cfg = chaos_config();
  kmeans::KMeansOptions opt;
  opt.k = 4;
  opt.dims = 4;
  opt.max_iters = 4;
  opt.tol = 0;
  opt.seed = 31;
  opt.produce_assignments = true;
  // 4x the scratchpad: a resident prefix plus staged tile batches.
  const std::size_t npoints =
      4 * cfg.near_capacity / (opt.dims * sizeof(double));
  const auto pts = kmeans::make_blobs(npoints, opt.dims, opt.k, 17);

  Machine clean_m(cfg);
  const auto clean = kmeans::kmeans_staged(clean_m, pts, opt);

  struct Case {
    const char* name;
    FaultSchedule near_alloc;
  };
  const Case cases[] = {
      {"prob", FaultSchedule::prob(0.5)},
      {"blackout", FaultSchedule::every()},
  };
  for (const Case& c : cases) {
    Machine m(cfg);
    FaultInjector fi(404);
    fi.arm(fault_site::kNearAlloc, c.near_alloc);
    m.set_fault_injector(&fi);
    const auto got = kmeans::kmeans_staged(m, pts, opt);
    EXPECT_EQ(clean.centroids, got.centroids) << c.name;
    EXPECT_EQ(clean.inertia, got.inertia) << c.name;
    EXPECT_EQ(clean.assignments, got.assignments) << c.name;
    EXPECT_EQ(clean.iterations, got.iterations) << c.name;
    EXPECT_GT(m.fault_stats().near_alloc_injected, 0u) << c.name;
  }
}

TEST(ChaosCounters, RoundTripThroughRunReportSchema) {
  const TwoLevelConfig cfg = chaos_config();
  FaultInjector fi(77);
  // Deterministic, countable schedule: the first DMA gate retries exactly
  // twice; every far access stalls 100ns.
  fi.arm(fault_site::kDmaFail, FaultSchedule::burst(1, 2));
  fi.arm(fault_site::kFarStall, FaultSchedule::every(1e-7));
  const analysis::SortRun r =
      analysis::run_sort_counting(cfg, Algorithm::NMsort, 100'000, 5, &fi);
  ASSERT_TRUE(r.verified);
  const FaultStats& fs = r.faults;
  EXPECT_EQ(fs.dma_injected, 2u);
  EXPECT_EQ(fs.dma_retries, 2u);
  // Both failures hit the first gate: backoff base + doubled base.
  EXPECT_NEAR(fs.backoff_s, 3 * kDmaRetryBaseS, 1e-15);
  EXPECT_GT(fs.far_stalls, 0u);
  EXPECT_GT(r.counting.total.stall_s(), 0.0);

  obs::RunReport rep("chaos");
  obs::RunRecord& rec = rep.add_run("nmsort.chaos");
  rec.set_counting(r.counting, cfg.block_bytes);
  obs::export_stats(fs, rec);

  const obs::Json j = rep.to_json();
  EXPECT_TRUE(obs::validate_report(j).empty());
  ASSERT_EQ(j.at("runs").arr().size(), 1u);
  const obs::Json& run = j.at("runs").arr()[0];
  const obs::Json& c = run.at("metrics").at("counters");
  EXPECT_EQ(c.at("faults.near_alloc_injected").u64(), fs.near_alloc_injected);
  EXPECT_EQ(c.at("faults.near_alloc_exhausted").u64(),
            fs.near_alloc_exhausted);
  EXPECT_EQ(c.at("faults.near_far_fallbacks").u64(), fs.near_far_fallbacks);
  EXPECT_EQ(c.at("faults.dma_injected").u64(), fs.dma_injected);
  EXPECT_EQ(c.at("faults.far_stalls").u64(), fs.far_stalls);
  EXPECT_EQ(c.at("retries.dma").u64(), fs.dma_retries);
  const obs::Json& g = run.at("metrics").at("gauges");
  EXPECT_NEAR(g.at("retries.backoff_seconds").f64(), fs.backoff_s, 1e-15);
  EXPECT_NEAR(g.at("faults.stall_seconds").f64(), fs.stall_s, 1e-12);
  // Phase stall time survives the JSON round trip too.
  EXPECT_NEAR(obs::phase_from_json(run.at("counting").at("total")).stall_s(),
              r.counting.total.stall_s(), 1e-12);
}

TEST(ChaosCounters, OmegaWritesChargedOncePerSuccessfulDmaTransfer) {
  // Retries pay backoff *time*, never traffic: with omega active, a DMA
  // far write that fails twice before succeeding must charge exactly the
  // same (omega-weighted) write bytes, blocks, and bursts as a clean run —
  // the retry gate sits before the charge sites.
  TwoLevelConfig cfg = chaos_config();
  cfg.far_write_cost = 4.0;

  auto run = [&](FaultInjector* fi) {
    Machine m(cfg);
    m.set_fault_injector(fi);
    auto far = m.alloc_array<std::uint64_t>(Space::Far, 1024);
    auto near = m.alloc_array<std::uint64_t>(Space::Near, 1024);
    m.begin_phase("d");
    // Far writes.
    DmaTestAccess::dma_copy(m, 0, far.data(), near.data(), near.size_bytes());
    m.end_phase();
    return m.stats().phases.at(0);
  };

  const PhaseStats clean = run(nullptr);
  FaultInjector fi(17);
  fi.arm(fault_site::kDmaFail, FaultSchedule::burst(1, 2));
  const PhaseStats faulty = run(&fi);

  EXPECT_EQ(faulty.far_write_bytes(), clean.far_write_bytes());
  EXPECT_EQ(faulty.far_write_blocks(), clean.far_write_blocks());
  EXPECT_EQ(faulty.far_write_bursts(), clean.far_write_bursts());
  EXPECT_EQ(faulty.dma_far_write_bytes(), clean.dma_far_write_bytes());
  EXPECT_EQ(faulty.dma_far_write_bursts(), clean.dma_far_write_bursts());
  EXPECT_EQ(faulty.far_read_bytes(), clean.far_read_bytes());
  // The omega-weighted transfer time is identical; only stall time grew.
  EXPECT_EQ(faulty.far_s(), clean.far_s());
  EXPECT_GT(faulty.stall_s(), clean.stall_s());
}

TEST(ChaosMultiTenant, ConcurrentTenantsBitIdenticalToSoloUnderMixedFaults) {
  // Five tenants share one chaotic machine, one per sort backend, with
  // deliberately uneven quotas (down to zero: far-only). Outputs must be
  // bit-identical to the same jobs run solo on a clean, uncontended
  // machine: neither neighbors, nor quota denials, nor injected faults may
  // leak into results — they may only move data and change costs.
  const std::size_t n = 60'000;
  for (const std::uint64_t seed : {101ull, 202ull, 303ull}) {
    std::array<std::vector<std::uint64_t>, 5> solo;
    for (std::size_t i = 0; i < 5; ++i) {
      Machine m(chaos_config());
      server::JobServer srv(m);
      srv.add_tenant("solo", m.near_arena().capacity());
      auto res = std::make_shared<server::SortJobResult>();
      srv.submit(server::make_sort_job("solo", "ref",
                                       server::kSortBackends[i], n, seed,
                                       res));
      srv.drain();
      ASSERT_TRUE(res->verified)
          << sort::to_string(server::kSortBackends[i]) << " seed " << seed;
      solo[i] = std::move(res->output);
    }

    Machine m(chaos_config());
    FaultInjector fi(seed);
    arm_mixed_chaos(fi);
    m.set_fault_injector(&fi);
    server::JobServer srv(m);
    const std::uint64_t cap = m.near_arena().capacity();
    const std::uint64_t quotas[5] = {cap, cap / 2, cap / 8, 8 * KiB, 0};
    std::array<std::shared_ptr<server::SortJobResult>, 5> results;
    for (std::size_t i = 0; i < 5; ++i) {
      const std::string tenant = "t" + std::to_string(i);
      srv.add_tenant(tenant, quotas[i]);
      results[i] = std::make_shared<server::SortJobResult>();
      srv.submit(server::make_sort_job(tenant, "chaos",
                                       server::kSortBackends[i], n, seed,
                                       results[i]));
    }
    srv.drain();
    for (std::size_t i = 0; i < 5; ++i) {
      EXPECT_TRUE(results[i]->verified)
          << sort::to_string(server::kSortBackends[i]) << " seed " << seed;
      EXPECT_EQ(results[i]->output, solo[i])
          << sort::to_string(server::kSortBackends[i]) << " seed " << seed;
    }
    // The run must actually have been chaotic, and the zero-quota tenant
    // must actually have been denied, or the differential proves nothing.
    EXPECT_GT(m.fault_stats().near_alloc_injected, 0u) << "seed " << seed;
    EXPECT_GT(srv.tenant_stats("t4").quota_denials, 0u) << "seed " << seed;
  }
}

TEST(ChaosDeathTest, DmaRetryBudgetExhaustionAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  // A permanent (not transient) DMA failure must exhaust the bounded retry
  // budget and abort with the rule name, not spin forever.
  EXPECT_DEATH(
      {
        Machine m(chaos_config());
        FaultInjector fi(13);
        fi.arm(fault_site::kDmaFail, FaultSchedule::every());
        m.set_fault_injector(&fi);
        auto far = m.alloc_array<std::uint64_t>(Space::Far, 64);
        auto near = m.alloc_array<std::uint64_t>(Space::Near, 64);
        DmaTestAccess::dma_copy(m, 0, near.data(), far.data(),
                                far.size_bytes());
      },
      "fault\\.retry_budget");
}

}  // namespace
}  // namespace tlm

// ---- cycle-simulator fault honoring ---------------------------------------

namespace tlm::sim {
namespace {

struct RigResult {
  double seconds = 0;
  std::uint64_t dma_stalls = 0, dma_retries = 0;
  std::uint64_t far_stalls = 0, far_reads = 0;
};

// A 50-line far->near DMA through the crossbar, optionally with an injector
// wired into both the engine and the far memory.
RigResult run_rig(FaultInjector* fi) {
  Simulator sim;
  Crossbar xbar(sim, NocConfig{});
  FarMemConfig fc;
  fc.faults = fi;
  FarMemory far(sim, fc);
  NearMemory near(sim, NearMemConfig{});
  const std::size_t ep = xbar.add_endpoint("dma", 100e9);
  const std::size_t fep = xbar.add_endpoint("far", 200e9);
  const std::size_t nep = xbar.add_endpoint("near", 200e9);
  xbar.add_route(trace::kFarBase, trace::kNearBase, fep, &far);
  xbar.add_route(trace::kNearBase, ~0ULL, nep, &near);
  DmaConfig dc;
  dc.faults = fi;
  DmaEngine dma(sim, dc, xbar.port(ep));
  dma.copy(trace::kFarBase, trace::kNearBase, 64 * 50);
  sim.run();
  RigResult out;
  out.seconds = to_seconds(sim.now());
  out.dma_stalls = dma.stats().stalls;
  out.dma_retries = dma.stats().retries;
  out.far_stalls = far.stats().stalls;
  out.far_reads = far.stats().reads;
  return out;
}

TEST(SimChaos, InjectedStallsAndRetriesDelayCompletion) {
  const RigResult clean = run_rig(nullptr);
  EXPECT_EQ(clean.dma_stalls, 0u);
  EXPECT_EQ(clean.dma_retries, 0u);
  EXPECT_EQ(clean.far_stalls, 0u);
  EXPECT_EQ(clean.far_reads, 50u);

  FaultInjector fi(55);
  fi.arm(fault_site::kSimDmaStall, FaultSchedule::every(5e-6));
  fi.arm(fault_site::kSimDmaFail, FaultSchedule::nth_occurrence(10));
  fi.arm(fault_site::kSimFarStall, FaultSchedule::every(1e-7));
  const RigResult chaos = run_rig(&fi);
  EXPECT_EQ(chaos.dma_stalls, 1u);   // one descriptor, stalled before issue
  EXPECT_EQ(chaos.dma_retries, 1u);  // the 10th line response was re-issued
  EXPECT_EQ(chaos.far_reads, 51u);   // 50 lines + the retried one
  EXPECT_EQ(chaos.far_stalls, 51u);  // every far request stalled
  // The descriptor stall alone bounds the slowdown from below.
  EXPECT_GE(chaos.seconds, clean.seconds + 5e-6 * 0.99);
}

TEST(SimChaos, CleanRunsIgnoreADisarmedInjector) {
  // An attached injector with nothing armed must not perturb the sim.
  const RigResult clean = run_rig(nullptr);
  FaultInjector fi(9);
  const RigResult attached = run_rig(&fi);
  EXPECT_DOUBLE_EQ(attached.seconds, clean.seconds);
  EXPECT_EQ(attached.dma_stalls, 0u);
  EXPECT_EQ(attached.dma_retries, 0u);
  EXPECT_EQ(attached.far_stalls, 0u);
}

}  // namespace
}  // namespace tlm::sim
