// Tests for the analysis layer: algorithm naming, sweep grids, CSV output,
// capture determinism, and the SST-style stats dump.
#include <gtest/gtest.h>

#include <sstream>

#include "analysis/report.hpp"
#include "analysis/validate.hpp"
#include "sim/system.hpp"
#include "temp_path.hpp"

namespace tlm::analysis {
namespace {

TEST(Analysis, AlgorithmNamesAreDistinct) {
  const Algorithm all[] = {Algorithm::GnuSort, Algorithm::NMsort,
                           Algorithm::NMsortNaive, Algorithm::ScratchpadSeq,
                           Algorithm::ScratchpadSeqQuick,
                           Algorithm::ScratchpadPar, Algorithm::NMsortWriteEff};
  for (std::size_t i = 0; i < std::size(all); ++i)
    for (std::size_t j = i + 1; j < std::size(all); ++j)
      EXPECT_STRNE(to_string(all[i]), to_string(all[j]));
}

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

TEST(Analysis, SweepGridProducesCartesianRows) {
  SweepGrid g;
  g.algorithms = {Algorithm::GnuSort, Algorithm::NMsort};
  g.rhos = {2.0, 8.0};
  g.cores = {2};
  g.ns = {1 << 14};
  g.near_capacity = 256 * KiB;
  const auto rows = run_sweep(g);
  ASSERT_EQ(rows.size(), 4u);
  for (const auto& r : rows) {
    EXPECT_TRUE(r.verified);
    EXPECT_GT(r.model_seconds, 0.0);
    EXPECT_GT(r.far_bytes, 0u);
  }
  // GNU rows never touch near memory; NMsort rows do.
  EXPECT_EQ(rows[0].near_bytes, 0u);
  EXPECT_GT(rows[2].near_bytes, 0u);
}

TEST(Analysis, CsvHasHeaderAndRows) {
  SweepGrid g;
  g.algorithms = {Algorithm::GnuSort};
  g.rhos = {2.0};
  g.cores = {2};
  g.ns = {1 << 13};
  g.near_capacity = 256 * KiB;
  const std::string csv = to_csv(run_sweep(g));
  EXPECT_NE(csv.find("algorithm,rho,cores,n,verified"), std::string::npos);
  EXPECT_NE(csv.find("\"GNU sort\",2,2,8192,1,"), std::string::npos);
  // header + 1 row = 2 newlines
  EXPECT_EQ(std::count(csv.begin(), csv.end(), '\n'), 2);
}

TEST(Analysis, CsvFileRoundTrip) {
  SweepGrid g;
  g.algorithms = {Algorithm::GnuSort};
  g.rhos = {2.0};
  g.cores = {2};
  g.ns = {1 << 13};
  g.near_capacity = 256 * KiB;
  const TempPath csv("sweep_test.csv");
  EXPECT_EQ(write_sweep_csv(g, csv.path()), 1u);
  EXPECT_THROW(write_sweep_csv(g, "/nonexistent/dir/x.csv"),
               std::invalid_argument);
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
