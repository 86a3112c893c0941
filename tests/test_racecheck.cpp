// Happens-before race/fence analyzer (src/analyze/racecheck.hpp): detector
// semantics on injected-bug fixtures and their near-miss twins, report
// plumbing (merge/suppression/JSON), the ShardedReplay-sourced path, and
// the "every real capture analyzes clean" contract the CI racecheck lane
// enforces.
#include <stdexcept>
#include <string>

#include <gtest/gtest.h>

#include "analysis/experiment.hpp"
#include "analyze/racecheck.hpp"
#include "common/faults.hpp"
#include "common/thread_pool.hpp"
#include "obs/json.hpp"
#include "temp_path.hpp"
#include "trace/capture.hpp"
#include "trace/mapped_log.hpp"
#include "trace/replay.hpp"

namespace tlm::analyze {
namespace {

using trace::kFarBase;
using trace::kNearBase;
using trace::TraceBuffer;

// ---- detector fixtures ----------------------------------------------------

TEST(Racecheck, FlagsSameEpochWriteReadOverlap) {
  TraceBuffer tb(2);
  tb.on_write(0, kNearBase + 0x1000, 64);
  tb.on_barrier(0, 0);
  tb.on_read(1, kNearBase + 0x1020, 64);
  tb.on_barrier(1, 0);
  const RacecheckReport rep = racecheck(tb);
  ASSERT_EQ(rep.findings.size(), 1u);
  const Finding& f = rep.findings[0];
  EXPECT_EQ(f.kind, FindingKind::UnorderedOverlap);
  EXPECT_EQ(f.epoch, 0u);
  EXPECT_EQ(f.first.thread, 0u);
  EXPECT_EQ(f.second.thread, 1u);
  EXPECT_EQ(f.overlap_addr, kNearBase + 0x1020);
  EXPECT_EQ(f.overlap_bytes, 32u);
  EXPECT_FALSE(rep.clean());
}

TEST(Racecheck, AcceptsFencedWriteReadPair) {
  TraceBuffer tb(2);
  tb.on_write(0, kNearBase + 0x1000, 64);
  tb.on_barrier(0, 0);
  tb.on_barrier(0, 1);
  tb.on_barrier(1, 0);
  tb.on_read(1, kNearBase + 0x1020, 64);  // epoch 1: ordered by fence 0
  tb.on_barrier(1, 1);
  EXPECT_TRUE(racecheck(tb).clean());
}

TEST(Racecheck, IgnoresReadReadSharing) {
  TraceBuffer tb(2);
  tb.on_read(0, kFarBase, 4096);
  tb.on_barrier(0, 0);
  tb.on_read(1, kFarBase + 128, 4096);
  tb.on_barrier(1, 0);
  const RacecheckReport rep = racecheck(tb);
  EXPECT_TRUE(rep.clean());
  // Read/read pairs are skipped before the ordering test, not after.
  EXPECT_EQ(rep.stats.pairs_checked, 0u);
}

TEST(Racecheck, IgnoresDisjointWrites) {
  TraceBuffer tb(2);
  tb.on_write(0, kNearBase, 64);
  tb.on_barrier(0, 0);
  tb.on_write(1, kNearBase + 64, 64);  // adjacent, not overlapping
  tb.on_barrier(1, 0);
  EXPECT_TRUE(racecheck(tb).clean());
}

TEST(Racecheck, FlagsCrossThreadReadOfInFlightDmaDst) {
  TraceBuffer tb(2);
  tb.on_dma(0, kNearBase + 0x2000, kFarBase, 256);
  tb.on_barrier(0, 0);
  tb.on_read(1, kNearBase + 0x2040, 64);
  tb.on_barrier(1, 0);
  const RacecheckReport rep = racecheck(tb);
  ASSERT_EQ(rep.findings.size(), 1u);
  EXPECT_EQ(rep.findings[0].kind, FindingKind::UnfencedDmaRead);
  EXPECT_EQ(rep.stats.dmas, 1u);
}

TEST(Racecheck, FlagsOwnPostPreFenceDstRead) {
  // The posting thread itself may not read the destination until the fence:
  // the engine's write is concurrent with the poster's later same-epoch ops.
  TraceBuffer tb(1);
  tb.on_dma(0, kNearBase + 0x2000, kFarBase, 256);
  tb.on_read(0, kNearBase + 0x2000, 64);
  tb.on_barrier(0, 0);
  const RacecheckReport rep = racecheck(tb);
  ASSERT_EQ(rep.findings.size(), 1u);
  EXPECT_EQ(rep.findings[0].kind, FindingKind::UnfencedDmaRead);
}

TEST(Racecheck, AcceptsFencedDmaConsumption) {
  TraceBuffer tb(2);
  tb.on_dma(0, kNearBase + 0x2000, kFarBase, 256);
  tb.on_barrier(0, 0);
  tb.on_barrier(0, 1);
  tb.on_barrier(1, 0);
  tb.on_read(1, kNearBase + 0x2040, 64);
  tb.on_barrier(1, 1);
  EXPECT_TRUE(racecheck(tb).clean());
}

TEST(Racecheck, AcceptsSameThreadReadBeforePost) {
  // Consuming the previous batch and then re-posting into the same range
  // from the same thread is legal: the read is ordered into the post.
  TraceBuffer tb(1);
  tb.on_read(0, kNearBase + 0x3000, 128);
  tb.on_dma(0, kNearBase + 0x3000, kFarBase, 128);
  tb.on_barrier(0, 0);
  EXPECT_TRUE(racecheck(tb).clean());
}

TEST(Racecheck, FlagsStagingReuseAcrossThreads) {
  TraceBuffer tb(2);
  tb.on_dma(0, kNearBase + 0x3000, kFarBase, 128);  // next batch lands...
  tb.on_barrier(0, 0);
  tb.on_write(1, kNearBase + 0x3000, 64);  // ...over un-fenced in-place work
  tb.on_barrier(1, 0);
  const RacecheckReport rep = racecheck(tb);
  ASSERT_EQ(rep.findings.size(), 1u);
  EXPECT_EQ(rep.findings[0].kind, FindingKind::StagingReuse);
}

TEST(Racecheck, FlagsInFlightSrcOverwrite) {
  // Alone, and beside an idle thread that only crosses the fence.
  for (std::size_t threads : {1u, 2u}) {
    TraceBuffer tb(threads);
    tb.on_dma(0, kNearBase + 0x4000, kFarBase + 0x600, 128);
    tb.on_write(0, kFarBase + 0x640, 64);  // clobbers the in-flight source
    for (std::size_t t = 0; t < threads; ++t) tb.on_barrier(t, 0);
    const RacecheckReport rep = racecheck(tb);
    ASSERT_EQ(rep.findings.size(), 1u) << threads << " threads";
    EXPECT_EQ(rep.findings[0].kind, FindingKind::StagingReuse);
  }
}

TEST(Racecheck, AcceptsFencedStagingReuse) {
  // The fence lands between the in-place work and the re-post.
  TraceBuffer tb(2);
  tb.on_write(0, kNearBase + 0x3000, 64);  // in-place work on a batch
  tb.on_barrier(0, 0);
  tb.on_barrier(0, 1);
  tb.on_barrier(1, 0);
  tb.on_dma(1, kNearBase + 0x3000, kFarBase, 128);  // re-post after fence
  tb.on_barrier(1, 1);
  EXPECT_TRUE(racecheck(tb).clean());
}

TEST(Racecheck, FlagsCrossThreadDescriptorCollision) {
  TraceBuffer tb(2);
  tb.on_dma(0, kNearBase + 0x5000, kFarBase, 128);
  tb.on_barrier(0, 0);
  tb.on_dma(1, kNearBase + 0x5000, kFarBase + 0x1000, 128);
  tb.on_barrier(1, 0);
  const RacecheckReport rep = racecheck(tb);
  ASSERT_EQ(rep.findings.size(), 1u);
  EXPECT_EQ(rep.findings[0].kind, FindingKind::StagingReuse);
}

TEST(Racecheck, AcceptsSameThreadFifoReposts) {
  // The engine drains one thread's descriptors in post order, with or
  // without another thread in the epoch.
  for (std::size_t threads : {1u, 2u}) {
    TraceBuffer tb(threads);
    tb.on_dma(0, kNearBase + 0x3000, kFarBase, 128);
    tb.on_dma(0, kNearBase + 0x3000, kFarBase + 0x1000, 128);
    for (std::size_t t = 0; t < threads; ++t) tb.on_barrier(t, 0);
    EXPECT_TRUE(racecheck(tb).clean()) << threads << " threads";
  }
}

TEST(Racecheck, FlagsWorkerTrailingOps) {
  TraceBuffer tb(2);
  tb.on_barrier(0, 0);
  tb.on_barrier(1, 0);
  tb.on_compute(1, 5.0);
  tb.on_write(1, kNearBase, 64);
  const RacecheckReport rep = racecheck(tb);
  ASSERT_EQ(rep.findings.size(), 1u);
  const Finding& f = rep.findings[0];
  EXPECT_EQ(f.kind, FindingKind::PostPhaseCharge);
  EXPECT_EQ(f.first.thread, 1u);
  EXPECT_EQ(f.epoch, 1u);
  EXPECT_EQ(f.merged, 1u);  // two trailing ops folded into one finding
}

TEST(Racecheck, AcceptsOrchestratorTail) {
  TraceBuffer tb(2);
  tb.on_barrier(0, 0);
  tb.on_compute(0, 5.0);  // thread 0 closes the phase itself
  tb.on_barrier(1, 0);
  EXPECT_TRUE(racecheck(tb).clean());
}

TEST(Racecheck, OrchestratorThreadIsConfigurable) {
  TraceBuffer tb(2);
  tb.on_barrier(0, 0);
  tb.on_compute(0, 5.0);
  tb.on_barrier(1, 0);
  RacecheckOptions opt;
  opt.orchestrator_thread = 1;  // now thread 0's tail is the violation
  const RacecheckReport rep = racecheck(tb, opt);
  ASSERT_EQ(rep.findings.size(), 1u);
  EXPECT_EQ(rep.findings[0].kind, FindingKind::PostPhaseCharge);
  EXPECT_EQ(rep.findings[0].first.thread, 0u);
}

TEST(Racecheck, PostPhaseCheckCanBeDisabled) {
  TraceBuffer tb(2);
  tb.on_barrier(0, 0);
  tb.on_barrier(1, 0);
  tb.on_compute(1, 5.0);
  RacecheckOptions opt;
  opt.check_post_phase = false;
  EXPECT_TRUE(racecheck(tb, opt).clean());
}

// ---- report plumbing ------------------------------------------------------

TEST(Racecheck, MergesSameKindPairEpochFindings) {
  TraceBuffer tb(2);
  for (int i = 0; i < 8; ++i)
    tb.on_write(0, kNearBase + 0x1000 + 128 * i, 64);  // gaps: no coalescing
  tb.on_barrier(0, 0);
  for (int i = 0; i < 8; ++i)
    tb.on_read(1, kNearBase + 0x1000 + 128 * i, 64);
  tb.on_barrier(1, 0);
  const RacecheckReport rep = racecheck(tb);
  ASSERT_EQ(rep.findings.size(), 1u);
  EXPECT_EQ(rep.findings[0].merged, 7u);
  EXPECT_EQ(rep.stats.suppressed, 0u);
}

TEST(Racecheck, SuppressesFindingsPastTheCap) {
  TraceBuffer tb(2);
  // Distinct epochs -> distinct dedupe keys -> distinct findings.
  for (std::uint64_t e = 0; e < 6; ++e) {
    tb.on_write(0, kNearBase + 0x1000, 64);
    tb.on_barrier(0, e);
    tb.on_read(1, kNearBase + 0x1000, 64);
    tb.on_barrier(1, e);
  }
  RacecheckOptions opt;
  opt.max_findings = 2;
  const RacecheckReport rep = racecheck(tb, opt);
  EXPECT_EQ(rep.findings.size(), 2u);
  EXPECT_EQ(rep.stats.suppressed, 4u);
  EXPECT_FALSE(rep.clean());  // suppression still counts as dirty
}

TEST(Racecheck, RejectsDivergentBarrierSchedules) {
  TraceBuffer tb(2);
  tb.on_barrier(0, 0);
  tb.on_barrier(1, 7);
  EXPECT_THROW((void)racecheck(tb), std::invalid_argument);
}

TEST(Racecheck, IdleThreadsDoNotCollapseTheFenceDepth) {
  // A thread with no ops at all must not drag the common fence count to
  // zero (which would pool every epoch into one concurrent group).
  TraceBuffer tb(3);
  tb.on_write(0, kNearBase + 0x1000, 64);
  tb.on_barrier(0, 0);
  tb.on_barrier(1, 0);
  tb.on_read(1, kNearBase + 0x1000, 64);
  tb.on_barrier(0, 1);
  tb.on_barrier(1, 1);
  // thread 2 stays completely silent
  const RacecheckReport rep = racecheck(tb);
  EXPECT_TRUE(rep.clean());
  EXPECT_EQ(rep.stats.fences, 2u);
}

TEST(Racecheck, JsonReportRoundTripsAndCarriesTheFinding) {
  TraceBuffer tb(2);
  tb.on_dma(0, kNearBase + 0x2000, kFarBase, 256);
  tb.on_barrier(0, 0);
  tb.on_read(1, kNearBase + 0x2040, 64);
  tb.on_barrier(1, 0);
  const obs::Json j = to_json(racecheck(tb));
  const obs::Json r = obs::Json::parse(j.dump());
  EXPECT_EQ(r.at("schema").str(), "tlm.racecheck");
  EXPECT_EQ(r.at("version").u64(), 1u);
  EXPECT_FALSE(r.at("clean").boolean());
  ASSERT_EQ(r.at("findings").arr().size(), 1u);
  const obs::Json& f = r.at("findings").arr()[0];
  EXPECT_EQ(f.at("kind").str(), "unfenced-dma-read");
  EXPECT_EQ(f.at("first").at("thread").u64(), 0u);
  EXPECT_TRUE(f.at("first").at("engine").boolean());
  EXPECT_EQ(f.at("second").at("thread").u64(), 1u);
  EXPECT_EQ(f.at("second").at("space").str(), "near");
  EXPECT_EQ(f.at("overlap").at("bytes").u64(), 64u);
  EXPECT_EQ(r.at("stats").at("dmas").u64(), 1u);
}

// ---- ShardedReplay-sourced analysis ---------------------------------------

TEST(Racecheck, DetectsInjectedBugThroughMappedLogReplay) {
  // The analyzer must see the same hazards through the out-of-core path:
  // write an injected-bug trace to a MappedLog, load it back with
  // ShardedReplay, and the detector still fires.
  const TempPath dir("racecheck_test_bug");
  {
    trace::MappedLog log(dir.path(), 2);
    log.on_dma(0, kNearBase + 0x2000, kFarBase, 256);
    log.on_barrier(0, 0);
    log.on_read(1, kNearBase + 0x2040, 64);
    log.on_barrier(1, 0);
    log.close();
  }
  const trace::ShardedReplay replay(dir.path());
  const RacecheckReport rep = racecheck(replay);
  ASSERT_EQ(rep.findings.size(), 1u);
  EXPECT_EQ(rep.findings[0].kind, FindingKind::UnfencedDmaRead);
}

TEST(Racecheck, MappedCaptureOfRealSortAnalyzesClean) {
  const TempPath dir("racecheck_test_clean");
  TwoLevelConfig cfg = test_config(4.0);
  cfg.near_capacity = 256 * KiB;
  cfg.cache_bytes = 32 * KiB;
  cfg.threads = 4;
  cfg.overlap_dma = true;
  const analysis::MappedCaptureRun run = analysis::capture_sort_trace_mapped(
      cfg, sort::Algorithm::NMsort, 50'000, 2026, dir.path());
  ThreadPool pool(4);
  const trace::ShardedReplay replay(run.trace_dir, pool);
  const RacecheckReport rep = racecheck(replay);
  EXPECT_TRUE(rep.clean()) << "findings=" << rep.findings.size();
  EXPECT_GT(rep.stats.dmas, 0u);  // the pipelined capture posts descriptors
  EXPECT_GT(rep.stats.fences, 0u);
}

// ---- the CI contract: real captures analyze clean -------------------------

void expect_capture_clean(sort::Algorithm a, bool overlap_dma,
                          FaultInjector* faults = nullptr) {
  TwoLevelConfig cfg = test_config(4.0);
  cfg.near_capacity = 256 * KiB;
  cfg.cache_bytes = 32 * KiB;
  cfg.threads = 4;
  cfg.overlap_dma = overlap_dma;
  const analysis::CaptureRun run =
      analysis::capture_sort_trace(cfg, a, 50'000, 2026, faults);
  const RacecheckReport rep = racecheck(run.trace);
  EXPECT_TRUE(rep.clean())
      << sort::to_string(a) << ": " << rep.findings.size()
      << " finding(s), first: "
      << (rep.findings.empty() ? "" : rep.findings[0].detail);
}

TEST(RacecheckIntegration, SortCapturesAnalyzeClean) {
  expect_capture_clean(sort::Algorithm::GnuSort, false);
  expect_capture_clean(sort::Algorithm::NMsort, true);
  expect_capture_clean(sort::Algorithm::ScratchpadSeq, true);
  expect_capture_clean(sort::Algorithm::ScratchpadPar, false);
}

TEST(RacecheckIntegration, ChaosCaptureAnalyzesClean) {
  // The chaos schedule (mirroring tests/test_chaos.cpp) exercises the
  // degradation ladder: denial-driven fallbacks must stay fence-correct.
  FaultInjector fi(101u);
  fi.arm(fault_site::kNearAlloc, FaultSchedule::prob(0.25));
  fi.arm(fault_site::kDmaFail, FaultSchedule::prob(0.05));
  fi.arm(fault_site::kDmaStall, FaultSchedule::prob(0.1, 1e-6));
  fi.arm(fault_site::kFarStall, FaultSchedule::prob(0.002, 5e-7));
  expect_capture_clean(sort::Algorithm::NMsort, true, &fi);
}

}  // namespace
}  // namespace tlm::analyze
