// Tests for the analysis layer: output verification, near traffic by
// algorithm, capture determinism, and the SST-style stats dump.
#include <gtest/gtest.h>

#include <sstream>

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

}  // namespace
}  // namespace tlm::analysis
