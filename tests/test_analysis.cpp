// Tests for the analysis layer: output verification, near traffic by
// algorithm, capture determinism, the SST-style stats dump, and the
// counting view of a simulator node.
#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "analysis/experiment.hpp"
#include "analysis/validate.hpp"
#include "sim/system.hpp"

namespace tlm::analysis {
namespace {

using sort::Algorithm;

// The harness's `verified` is computed from the run's real output: a bit
// flipped in it after the kernel returns (the analysis.output_flip fault
// site) is refused, and the same run without the flip passes.
TEST(Analysis, CorruptOutputIsNotVerified) {
  TwoLevelConfig cfg = test_config(4.0);
  cfg.near_capacity = 256 * KiB;
  cfg.threads = 2;
  for (Algorithm a : {Algorithm::NMsort, Algorithm::GnuSort}) {
    EXPECT_TRUE(run_sort_counting(cfg, a, 5000, 11).verified) << to_string(a);
    FaultInjector fi(3);
    fi.arm(fault_site::kOutputFlip, FaultSchedule::every());
    const SortRun bad = run_sort_counting(cfg, a, 5000, 11, &fi);
    EXPECT_FALSE(bad.verified) << to_string(a);
    EXPECT_EQ(fi.site_stats(fault_site::kOutputFlip).fired, 1u);
  }
}

// GNU sort never touches near memory; NMsort stages through it.
TEST(Analysis, OnlyNMsortChargesNearTraffic) {
  for (double rho : {2.0, 8.0}) {
    const TwoLevelConfig cfg = scaled_counting_config(rho, 2, 256 * KiB);
    const SortRun gnu =
        run_sort_counting(cfg, Algorithm::GnuSort, 1 << 14, 101);
    const SortRun nm =
        run_sort_counting(cfg, Algorithm::NMsort, 1 << 14, 101);
    EXPECT_TRUE(gnu.verified);
    EXPECT_TRUE(nm.verified);
    EXPECT_GT(gnu.counting.total.far_bytes(), 0u);
    EXPECT_EQ(gnu.counting.total.near_bytes(), 0u) << "rho " << rho;
    EXPECT_GT(nm.counting.total.near_bytes(), 0u) << "rho " << rho;
  }
}

TEST(Analysis, CaptureIsDeterministicPerSeed) {
  const TwoLevelConfig cfg = scaled_counting_config(4.0, 4, 256 * KiB);
  CaptureRun a = capture_sort_trace(cfg, Algorithm::NMsort, 1 << 14, 5);
  CaptureRun b = capture_sort_trace(cfg, Algorithm::NMsort, 1 << 14, 5);
  const auto sa = a.trace.summary(), sb = b.trace.summary();
  EXPECT_EQ(sa.reads, sb.reads);
  EXPECT_EQ(sa.read_bytes, sb.read_bytes);
  EXPECT_EQ(sa.barriers, sb.barriers);
  EXPECT_DOUBLE_EQ(sa.compute_ops, sb.compute_ops);
}

TEST(Analysis, PrintStatsDumpsEveryComponent) {
  const TwoLevelConfig cfg = scaled_counting_config(4.0, 4, 256 * KiB);
  CaptureRun cap = capture_sort_trace(cfg, Algorithm::NMsort, 1 << 14, 9);
  sim::System sys(sim::SystemConfig::scaled(4.0, 4), cap.trace);
  (void)sys.run();
  std::ostringstream os;
  sys.print_stats(os);
  const std::string s = os.str();
  EXPECT_NE(s.find("core.0 "), std::string::npos);
  EXPECT_NE(s.find("core.3 "), std::string::npos);
  EXPECT_NE(s.find("l1.0 "), std::string::npos);
  EXPECT_NE(s.find("l2.0 "), std::string::npos);
  EXPECT_NE(s.find("mem.far "), std::string::npos);
  EXPECT_NE(s.find("mem.near "), std::string::npos);
  EXPECT_NE(s.find("noc.far_dc "), std::string::npos);
}

TEST(Analysis, HostSecondsArePopulated) {
  const TwoLevelConfig cfg = scaled_counting_config(2.0, 2, 256 * KiB);
  const SortRun r = run_sort_counting(cfg, Algorithm::GnuSort, 1 << 14, 3);
  EXPECT_GT(r.host_seconds, 0.0);
  EXPECT_EQ(r.n, 1u << 14);
  EXPECT_DOUBLE_EQ(r.rho, 2.0);
}

// The counting view of the scaled node reads every field from
// SystemConfig::scaled and equals, double for double, the expressions the
// harness wrote out by hand before it derived them.
TEST(CountingConfig, ScaledNodeMatchesTheHandWrittenConfig) {
  const TwoLevelConfig defaults;
  for (const double rho : {1.0, 2.0, 4.0, 8.0, 16.0}) {
    for (const std::size_t cores : {1u, 2u, 4u, 8u, 16u, 256u}) {
      SCOPED_TRACE("rho " + std::to_string(rho) + " cores " +
                   std::to_string(cores));
      const TwoLevelConfig cfg = counting_config(
          sim::SystemConfig::scaled(rho, cores), rho, 256 * KiB);
      EXPECT_EQ(cfg.near_capacity, 256 * KiB);
      EXPECT_EQ(cfg.block_bytes, 64u);
      EXPECT_EQ(cfg.cache_bytes, 128 * KiB);
      EXPECT_EQ(cfg.rho, rho);
      EXPECT_EQ(cfg.far_bw, 60.0 * GB * static_cast<double>(cores) / 256.0);
      EXPECT_EQ(cfg.near_latency, 50e-9);
      EXPECT_EQ(cfg.far_latency, defaults.far_latency);
      EXPECT_EQ(cfg.core_rate, 1.7e9 / 8.0);
      EXPECT_EQ(cfg.threads, cores);
      EXPECT_EQ(cfg.far_write_cost, defaults.far_write_cost);
      EXPECT_EQ(cfg.overlap_dma, defaults.overlap_dma);
      EXPECT_EQ(cfg.strict_dma_lines, defaults.strict_dma_lines);
    }
  }
}

// Fig. 4's node, as table1_sst_sort --full runs it, hands the counting
// side its 512 KiB L2 and its 60 GB/s of far memory.
TEST(CountingConfig, PaperNodeIsFig4) {
  for (const double rho : {2.0, 4.0, 8.0}) {
    const TwoLevelConfig cfg =
        counting_config(sim::SystemConfig::paper(rho, 256), rho, 512 * MiB);
    EXPECT_EQ(cfg.cache_bytes, 512 * KiB);
    EXPECT_EQ(cfg.far_bw, 60e9);
    EXPECT_EQ(cfg.near_bw(), rho * 60e9);
    EXPECT_EQ(cfg.threads, 256u);
  }
}

TEST(CountingConfig, RhoThatDisagreesWithTheNodeIsRejected) {
  EXPECT_THROW(counting_config(sim::SystemConfig::scaled(4.0, 8), 2.0, MiB),
               std::invalid_argument);
  EXPECT_THROW(counting_config(sim::SystemConfig::paper(2.0), 8.0, MiB),
               std::invalid_argument);
}

}  // namespace
}  // namespace tlm::analysis
