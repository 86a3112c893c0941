// Observability layer: JSON round-trips, metrics sharding, run-report
// schema, regression diffing, and the counters-layer fixes it rides on.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "analysis/experiment.hpp"
#include "obs/diff.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/run_report.hpp"
#include "scratchpad/counters.hpp"
#include "scratchpad/machine.hpp"
#include "server/job_server.hpp"
#include "server/jobs.hpp"

namespace tlm {
namespace {

using obs::Json;

// ---------------------------------------------------------------- Json

TEST(Json, RoundTripsScalarsAndContainers) {
  Json j = Json::object();
  j["u"] = std::uint64_t{18446744073709551615ULL};  // beyond 2^53
  j["d"] = 2.5;
  j["neg"] = -3;
  j["s"] = "hello \"quoted\" \\ \n tab\t";
  j["b"] = true;
  j["null"] = nullptr;
  j["arr"] = Json::array();
  j["arr"].push_back(1);
  j["arr"].push_back("two");

  const Json back = Json::parse(j.dump());
  EXPECT_EQ(back, j);
  EXPECT_EQ(back.at("u").u64(), 18446744073709551615ULL);
  EXPECT_DOUBLE_EQ(back.at("d").f64(), 2.5);
  EXPECT_DOUBLE_EQ(back.at("neg").f64(), -3.0);
  EXPECT_EQ(back.at("s").str(), "hello \"quoted\" \\ \n tab\t");
  EXPECT_TRUE(back.at("b").boolean());
  EXPECT_TRUE(back.at("null").is_null());
  EXPECT_EQ(back.at("arr").arr().size(), 2u);

  // Compact mode parses back to the same document.
  EXPECT_EQ(Json::parse(j.dump(-1)), j);
}

TEST(Json, NumericEqualityBridgesIntAndDouble) {
  EXPECT_EQ(Json(2.0), Json(std::uint64_t{2}));
  EXPECT_NE(Json(2.5), Json(std::uint64_t{2}));
}

TEST(Json, ParseErrorsCarryOffsets) {
  EXPECT_THROW(Json::parse("{\"a\": }"), std::runtime_error);
  EXPECT_THROW(Json::parse("[1, 2"), std::runtime_error);
  EXPECT_THROW(Json::parse("{\"a\": 1} trailing"), std::runtime_error);
  EXPECT_THROW(Json::parse(""), std::runtime_error);
}

TEST(Json, WrongTypeAccessThrows) {
  const Json j = Json::parse("{\"x\": \"str\"}");
  EXPECT_THROW(j.at("x").u64(), std::runtime_error);
  EXPECT_THROW(j.at("missing"), std::runtime_error);
  EXPECT_EQ(j.get_str("x", ""), "str");
  EXPECT_EQ(j.get_u64("absent", 7), 7u);
}

TEST(Json, UnicodeEscapesDecodeToUtf8) {
  const Json j = Json::parse("\"a\\u00e9\\u20acb\"");
  EXPECT_EQ(j.str(), "a\xc3\xa9\xe2\x82\xac" "b");
}

// ------------------------------------------------------------- metrics

TEST(MetricsRegistry, ShardedCountersSumAcrossThreads) {
  constexpr std::size_t kThreads = 4;
  constexpr std::uint64_t kPerThread = 10000;
  obs::MetricsRegistry reg(kThreads);
  auto& c = reg.counter("test.ops");
  std::vector<std::thread> workers;
  for (std::size_t t = 0; t < kThreads; ++t)
    workers.emplace_back([&, t] {
      for (std::uint64_t i = 0; i < kPerThread; ++i) c.add(1, t);
    });
  for (auto& w : workers) w.join();
  EXPECT_EQ(c.value(), kThreads * kPerThread);
  EXPECT_EQ(reg.counters().at("test.ops"), kThreads * kPerThread);
}

TEST(MetricsRegistry, GaugesAndTimers) {
  obs::MetricsRegistry reg(2);
  reg.set_gauge("cfg.rho", 4.0);
  reg.set_gauge("cfg.rho", 8.0);  // last write wins
  reg.timer("t.sort").add_seconds(0.25, 0);
  reg.timer("t.sort").add_seconds(0.5, 1);
  EXPECT_DOUBLE_EQ(reg.gauges().at("cfg.rho"), 8.0);
  EXPECT_NEAR(reg.timers_seconds().at("t.sort"), 0.75, 1e-9);

  const Json j = reg.to_json();
  EXPECT_DOUBLE_EQ(j.at("gauges").at("cfg.rho").f64(), 8.0);
  EXPECT_NEAR(j.at("timers_s").at("t.sort").f64(), 0.75, 1e-9);
}

TEST(MetricsRegistry, EmptySectionsOmittedFromJson) {
  obs::MetricsRegistry reg;
  reg.counter("only.counter").add(3);
  const Json j = reg.to_json();
  EXPECT_TRUE(j.contains("counters"));
  EXPECT_FALSE(j.contains("gauges"));
  EXPECT_FALSE(j.contains("timers_s"));
}

// ------------------------------------------------------- PhaseStats fix

TEST(PhaseStats, PlusEqualsAggregatesEveryField) {
  PhaseStats a, b;
  a.far_read_bytes = 100;
  a.far_write_bytes = 10;
  a.near_read_bytes = 20;
  a.near_write_bytes = 2;
  a.far_read_blocks = 3;
  a.near_read_blocks = 4;
  a.far_read_bursts = 5;
  a.near_read_bursts = 6;
  a.compute_ops_total = 7.0;
  a.compute_ops_max = 1.5;
  a.far_s = 0.1;
  a.near_s = 0.2;
  a.compute_s = 0.3;
  a.seconds = 0.4;
  a.host_seconds = 0.5;
  b = a;
  b += a;
  EXPECT_EQ(b.far_read_bytes, 200u);
  EXPECT_EQ(b.far_write_bytes, 20u);
  EXPECT_EQ(b.near_read_bytes, 40u);
  EXPECT_EQ(b.near_write_bytes, 4u);
  EXPECT_EQ(b.far_blocks(), 6u);
  EXPECT_EQ(b.near_blocks(), 8u);
  EXPECT_EQ(b.far_bursts(), 10u);
  EXPECT_EQ(b.near_bursts(), 12u);
  EXPECT_DOUBLE_EQ(b.compute_ops_total, 14.0);
  EXPECT_DOUBLE_EQ(b.compute_ops_max, 3.0);
  EXPECT_DOUBLE_EQ(b.far_s, 0.2);
  EXPECT_DOUBLE_EQ(b.near_s, 0.4);
  EXPECT_DOUBLE_EQ(b.compute_s, 0.6);
  EXPECT_DOUBLE_EQ(b.seconds, 0.8);
  EXPECT_DOUBLE_EQ(b.host_seconds, 1.0);
  EXPECT_EQ(b.far_bytes(), 220u);
  EXPECT_EQ(b.near_bytes(), 44u);
}

// ------------------------------------------------------ counter tables

template <typename T>
void expect_folded(const char* field, T got, T a, T b, counters::Sum) {
  EXPECT_EQ(got, a + b) << field;
}
template <typename T>
void expect_folded(const char* field, T got, T a, T b, counters::Max) {
  EXPECT_EQ(got, std::max(a, b)) << field;
}
template <typename T>
void expect_delta(const char* field, T got, T a, T /*after*/,
                  counters::Sum) {
  EXPECT_EQ(got, a) << field;
}
template <typename T>
void expect_delta(const char* field, T got, T, T after, counters::Max) {
  EXPECT_EQ(got, after) << field;
}

double exported(const obs::MetricsRegistry& reg, const std::string& key) {
  const auto counters = reg.counters();
  if (const auto it = counters.find(key); it != counters.end())
    return static_cast<double>(it->second);
  return reg.gauges().at(key);
}

// Every row of the three counter tables gets a distinct value and is checked
// by name through each operation expanded from the tables: JSON out and
// back, +=, the *_delta snapshots and the MetricsRegistry export.
TEST(CounterTable, EveryFieldRoundTrips) {
  double v = 1;
  PhaseStats a, b;
  a.name = "phase";
#define TLM_X(kind, field, fold)                        \
  a.field = static_cast<counters::kind>(v + 0.5);       \
  b.field = static_cast<counters::kind>(100 + v + 0.5); \
  v += 1;
  TLM_PHASE_STATS(TLM_X)
#undef TLM_X
  PhaseStats sum = a;
  sum += b;
  const PhaseStats d = phase_delta(sum, b);

  MachineStats st;
  st.total = a;
  st.phases = {a};
  obs::RunReport report("counter_table");
  report.add_run("r").set_counting(st, 64);
  const Json j = report.to_json();
  const Json& jt = j.at("runs").arr()[0].at("counting").at("total");
  const PhaseStats back =
      obs::RunReport::from_json(j).runs[0].counting.phases.at(0);
  EXPECT_EQ(back.name, "phase");
#define TLM_X(kind, field, fold)                                          \
  EXPECT_EQ(jt.at(#field).f64(), static_cast<double>(a.field)) << #field; \
  EXPECT_EQ(back.field, a.field) << #field;                               \
  expect_folded(#field, sum.field, a.field, b.field, counters::fold{});   \
  expect_delta(#field, d.field, a.field, sum.field, counters::fold{});
  TLM_PHASE_STATS(TLM_X)
#undef TLM_X
  // The one Max row: += keeps the larger value, the delta the later one.
  EXPECT_EQ(sum.partition_imbalance_max, b.partition_imbalance_max);
  EXPECT_EQ(d.partition_imbalance_max, sum.partition_imbalance_max);
  // A combined counter's twins are its name with read_/write_ inserted
  // before the last word: far_blocks = far_read_blocks + far_write_blocks.
  const auto twin = [](std::string name, const std::string& dir) {
    return name.insert(name.rfind('_') + 1, dir + "_");
  };
#define TLM_X(combined, read, write)           \
  EXPECT_EQ(twin(#combined, "read"), #read);   \
  EXPECT_EQ(twin(#combined, "write"), #write); \
  EXPECT_EQ(jt.at(#combined).u64(), a.read + a.write) << #combined;
  TLM_PHASE_COMBINED(TLM_X)
#undef TLM_X

  StagerStats sa, sb;
  FaultStats fa, fb;
#define TLM_X(kind, field, metric)                       \
  sa.field = static_cast<counters::kind>(v + 0.5);       \
  sb.field = static_cast<counters::kind>(100 + v + 0.5); \
  v += 1;
  TLM_STAGER_STATS(TLM_X)
#undef TLM_X
#define TLM_X(kind, field, metric)                       \
  fa.field = static_cast<counters::kind>(v + 0.5);       \
  fb.field = static_cast<counters::kind>(100 + v + 0.5); \
  v += 1;
  TLM_FAULT_STATS(TLM_X)
#undef TLM_X
  StagerStats ssum = sa;
  ssum += sb;
  FaultStats fsum = fa;
  fsum += fb;
  const StagerStats sd = stager_delta(ssum, sb);
  const FaultStats fd = fault_delta(fsum, fb);
  obs::MetricsRegistry reg;
  obs::export_stats(sa, reg);
  obs::export_stats(fa, reg);
#define TLM_X(kind, field, metric)                      \
  EXPECT_EQ(ssum.field, sa.field + sb.field) << #field; \
  EXPECT_EQ(sd.field, sa.field) << #field;              \
  EXPECT_EQ(exported(reg, metric), static_cast<double>(sa.field)) << metric;
  TLM_STAGER_STATS(TLM_X)
#undef TLM_X
#define TLM_X(kind, field, metric)                      \
  EXPECT_EQ(fsum.field, fa.field + fb.field) << #field; \
  EXPECT_EQ(fd.field, fa.field) << #field;              \
  EXPECT_EQ(exported(reg, metric), static_cast<double>(fa.field)) << metric;
  TLM_FAULT_STATS(TLM_X)
#undef TLM_X
}

TEST(CounterTable, SimCountersRoundTrip) {
  obs::RunReport report("sim_table");
  obs::SimCounters& s = report.add_run("r").sim;
  report.runs[0].has_sim = true;
  double v = 1;
#define TLM_X(kind, section, key, field, source)  \
  s.field = static_cast<counters::kind>(v + 0.5); \
  v += 1;
  TLM_SIM_COUNTERS(TLM_X)
#undef TLM_X
  const Json j = report.to_json();
  const Json& js = j.at("runs").arr()[0].at("sim");
  const obs::SimCounters back = obs::RunReport::from_json(j).runs[0].sim;
#define TLM_X(kind, section, key, field, source)                          \
  EXPECT_EQ(js.at(#section).at(#key).f64(), static_cast<double>(s.field)) \
      << #field;                                                          \
  EXPECT_EQ(back.field, s.field) << #field;
  TLM_SIM_COUNTERS(TLM_X)
#undef TLM_X

  // The DMA section is written only when an engine saw traffic.
  s.dma_descriptors = s.dma_lines = s.dma_bytes = 0;
  EXPECT_FALSE(
      report.to_json().at("runs").arr()[0].at("sim").contains("dma"));
}

TEST(MachineStats, AccessCountsRoundPartialLinesUp) {
  MachineStats st;
  st.total.far_read_bytes = 65;   // one full line + one partial
  st.total.near_write_bytes = 64; // exactly one line
  EXPECT_EQ(st.far_accesses(64), 2u);
  EXPECT_EQ(st.near_accesses(64), 1u);
  st.total.near_write_bytes = 63; // partial line still costs an access
  EXPECT_EQ(st.near_accesses(64), 1u);
  st.total.near_write_bytes = 0;
  EXPECT_EQ(st.near_accesses(64), 0u);
}

TEST(Machine, ChargesAfterEndPhaseLandInImplicitPhase) {
  Machine m(test_config(2.0));
  std::vector<std::uint64_t> buf(64);
  m.adopt_far(buf.data(), buf.size() * 8);
  m.begin_phase("explicit");
  m.stream_read(0, buf.data(), 64);
  m.end_phase();
  // Traffic after end_phase must not vanish from stats().
  m.stream_read(0, buf.data(), 128);
  const MachineStats st = m.stats();
  EXPECT_EQ(st.total.far_read_bytes, 192u);
}

// ----------------------------------------------------------- RunReport

obs::RunReport tiny_report() {
  const TwoLevelConfig cfg = analysis::scaled_counting_config(4.0, 2, MiB);
  const analysis::SortRun r = analysis::run_sort_counting(
      cfg, analysis::Algorithm::NMsort, 20000, 7);
  obs::RunReport report("unit_test");
  report.params["n"] = std::uint64_t{20000};
  report.wall_seconds = 0.125;
  obs::RunRecord& rec = report.add_run("nmsort");
  rec.set_config(cfg);
  rec.set_counting(r.counting, cfg.block_bytes);
  rec.wall_seconds = r.host_seconds;
  rec.gauges["modeled_seconds"] = r.modeled_seconds;
  rec.counters["verify.count"] = r.verified ? 1 : 0;
  return report;
}

TEST(RunReport, JsonRoundTripPreservesEverything) {
  const obs::RunReport report = tiny_report();
  const Json j = report.to_json();
  EXPECT_TRUE(obs::validate_report(j).empty())
      << obs::validate_report(j).front();

  const obs::RunReport back = obs::RunReport::from_json(j);
  EXPECT_EQ(back.benchmark, report.benchmark);
  EXPECT_EQ(back.runs.size(), 1u);
  EXPECT_EQ(back.runs[0].name, "nmsort");
  EXPECT_TRUE(back.runs[0].has_config);
  EXPECT_TRUE(back.runs[0].has_counting);
  EXPECT_FALSE(back.runs[0].has_sim);
  EXPECT_EQ(back.runs[0].counting.total.far_read_bytes,
            report.runs[0].counting.total.far_read_bytes);
  EXPECT_EQ(back.runs[0].counting.phases.size(),
            report.runs[0].counting.phases.size());
  // Full-fidelity round trip: serializing again yields the same document.
  EXPECT_EQ(back.to_json(), j);
}

TEST(RunReport, WriteAndLoadFile) {
  const obs::RunReport report = tiny_report();
  const std::string path =
      testing::TempDir() + "/tlm_obs_run_report_test.json";
  report.write(path);
  const obs::RunReport back = obs::RunReport::load(path);
  EXPECT_EQ(back.to_json(), report.to_json());
}

TEST(RunReport, ValidateRejectsBrokenDocuments) {
  EXPECT_FALSE(obs::validate_report(Json::parse("[]")).empty());
  EXPECT_FALSE(obs::validate_report(Json::parse("{}")).empty());
  EXPECT_FALSE(obs::validate_report(
                   Json::parse("{\"schema\": \"other\", \"schema_version\": 1,"
                               "\"benchmark\": \"x\", \"wall_seconds\": 0,"
                               "\"runs\": []}"))
                   .empty());

  Json j = tiny_report().to_json();
  j["schema_version"] = std::uint64_t{999};
  EXPECT_FALSE(obs::validate_report(j).empty());

  Json j2 = tiny_report().to_json();
  j2["runs"].arr()[0].obj().erase("name");
  EXPECT_FALSE(obs::validate_report(j2).empty());
}

TEST(RunReport, CombinedCountersMustMatchTheirTwins) {
  Json j = tiny_report().to_json();
  ASSERT_TRUE(obs::validate_report(j).empty());
  Json& total = j["runs"].arr()[0]["counting"]["total"];
  total["far_read_blocks"] = total.at("far_read_blocks").u64() + 1;
  const auto problems = obs::validate_report(j);
  ASSERT_EQ(problems.size(), 1u);
  EXPECT_NE(problems[0].find("'far_blocks'"), std::string::npos)
      << problems[0];
  EXPECT_THROW(obs::RunReport::from_json(j), std::runtime_error);
}

TEST(RunReport, PreSplitCountersRefuseToLoad) {
  // table1_quick.json predates the read/write split: it has far_blocks & co.
  // but not their twins. It stays a valid report for report_diff, but
  // loading it would derive every combined counter as zero.
  const std::string path =
      std::string(TLM_BASELINE_DIR) + "/table1_quick.json";
  EXPECT_TRUE(obs::validate_report(Json::load_file(path)).empty());
  EXPECT_THROW(obs::RunReport::load(path), std::runtime_error);

  Json j = tiny_report().to_json();
  j["runs"].arr()[0]["counting"]["phases"].arr()[0].obj().erase(
      "dma_near_write_bursts");
  EXPECT_THROW(obs::RunReport::from_json(j), std::runtime_error);
}

TEST(RunReport, SimCountersFlattenFromSimReport) {
  const auto s = analysis::simulate_sort(2.0, 4, 20000, MiB,
                                         analysis::Algorithm::NMsort, 7);
  const obs::SimCounters sc = obs::SimCounters::from(s.report);
  EXPECT_GT(sc.events, 0u);
  EXPECT_GT(sc.seconds, 0.0);
  EXPECT_GT(sc.far_reads + sc.far_writes, 0u);
  EXPECT_GT(sc.near_reads + sc.near_writes, 0u);

  obs::RunReport report("sim_unit");
  obs::RunRecord& rec = report.add_run("sim");
  rec.set_sim(s.report);
  const Json j = report.to_json();
  EXPECT_TRUE(obs::validate_report(j).empty());
  const obs::RunReport back = obs::RunReport::from_json(j);
  EXPECT_EQ(back.runs[0].sim.events, sc.events);
  EXPECT_EQ(back.runs[0].sim.l2_hits, sc.l2_hits);
}

TEST(RunReport, ExportStatsLandsInRegistry) {
  const obs::RunReport report = tiny_report();
  obs::MetricsRegistry reg;
  obs::export_stats(report.runs[0].counting, report.runs[0].line_bytes, reg);
  const auto counters = reg.counters();
  EXPECT_EQ(counters.at("machine.far_read_bytes") +
                counters.at("machine.far_write_bytes"),
            report.runs[0].counting.total.far_bytes());
  EXPECT_EQ(counters.at("machine.far_accesses"),
            report.runs[0].counting.far_accesses(report.runs[0].line_bytes));
}

TEST(RunReport, ExportStagerStatsLandsInRegistry) {
  StagerStats st;
  st.batches = 7;
  st.sync_bytes = 4096;
  st.prefetch_batches = 6;
  st.prefetch_bytes = 24576;
  st.fallback_direct = 1;
  st.restarts = 1;
  obs::MetricsRegistry reg;
  obs::export_stats(st, reg);
  const auto counters = reg.counters();
  EXPECT_EQ(counters.at("stager.batches"), 7u);
  EXPECT_EQ(counters.at("stager.sync_bytes"), 4096u);
  EXPECT_EQ(counters.at("stager.prefetch_batches"), 6u);
  EXPECT_EQ(counters.at("stager.prefetch_bytes"), 24576u);
  EXPECT_EQ(counters.at("stager.fallback_direct"), 1u);
  EXPECT_EQ(counters.at("stager.restarts"), 1u);
}

TEST(RunReport, ExportFaultStatsAlwaysEmitsFullKeySet) {
  // Zero-valued FaultStats still export every key: fault counters are
  // first-class report citizens, and report_diff's tolerance (not key
  // omission) is what keeps old baselines comparable.
  obs::MetricsRegistry reg;
  obs::export_stats(FaultStats{}, reg);
  const auto counters = reg.counters();
  EXPECT_EQ(counters.at("faults.near_alloc_injected"), 0u);
  EXPECT_EQ(counters.at("faults.near_alloc_exhausted"), 0u);
  EXPECT_EQ(counters.at("faults.near_far_fallbacks"), 0u);
  EXPECT_EQ(counters.at("faults.dma_injected"), 0u);
  EXPECT_EQ(counters.at("faults.far_stalls"), 0u);
  EXPECT_EQ(counters.at("retries.dma"), 0u);
  const auto gauges = reg.gauges();
  EXPECT_DOUBLE_EQ(gauges.at("retries.backoff_seconds"), 0.0);
  EXPECT_DOUBLE_EQ(gauges.at("faults.stall_seconds"), 0.0);

  FaultStats fs;
  fs.near_alloc_injected = 3;
  fs.dma_retries = 2;
  fs.backoff_s = 3e-6;
  obs::MetricsRegistry reg2;
  obs::export_stats(fs, reg2);
  EXPECT_EQ(reg2.counters().at("faults.near_alloc_injected"), 3u);
  EXPECT_EQ(reg2.counters().at("retries.dma"), 2u);
  EXPECT_DOUBLE_EQ(reg2.gauges().at("retries.backoff_seconds"), 3e-6);
}

// ---------------------------------------------------------------- diff

TEST(Diff, IdenticalReportsAreClean) {
  const Json j = tiny_report().to_json();
  const obs::DiffReport d = obs::diff_reports(j, j);
  EXPECT_FALSE(d.has_regression());
  EXPECT_TRUE(d.entries.empty());
  EXPECT_TRUE(d.context_mismatches.empty());
  EXPECT_GT(d.leaves_compared, 0u);
}

TEST(Diff, InjectedCostIncreaseIsFlagged) {
  const Json base = tiny_report().to_json();
  Json cur = base;
  Json& total = cur["runs"].arr()[0]["counting"]["total"];
  total["far_read_bytes"] = total.at("far_read_bytes").u64() * 2;
  const obs::DiffReport d = obs::diff_reports(base, cur);
  EXPECT_TRUE(d.has_regression());
  bool found = false;
  for (const auto& e : d.entries) {
    if (e.regression &&
        e.path.find("far_read_bytes") != std::string::npos) {
      found = true;
      EXPECT_NEAR(e.delta_rel, 1.0, 1e-9);
    }
  }
  EXPECT_TRUE(found);
}

TEST(Diff, ImprovementIsNotARegression) {
  const Json base = tiny_report().to_json();
  Json cur = base;
  Json& total = cur["runs"].arr()[0]["counting"]["total"];
  total["far_read_bytes"] = total.at("far_read_bytes").u64() / 2;
  const obs::DiffReport d = obs::diff_reports(base, cur);
  EXPECT_FALSE(d.has_regression());
  bool improvement = false;
  for (const auto& e : d.entries) improvement |= e.improvement;
  EXPECT_TRUE(improvement);
}

TEST(Diff, SmallJitterUnderThresholdPasses) {
  const Json base = tiny_report().to_json();
  Json cur = base;
  Json& total = cur["runs"].arr()[0]["counting"]["total"];
  total["seconds"] = total.at("seconds").f64() * 1.02;  // 2% < 5%
  EXPECT_FALSE(obs::diff_reports(base, cur).has_regression());
  obs::DiffOptions strict;
  strict.threshold = 0.01;
  EXPECT_TRUE(obs::diff_reports(base, cur, strict).has_regression());
}

TEST(Diff, WallClockExcludedUnlessOptedIn) {
  // Host wall-clock leaves are never compared, at any threshold, whether
  // they grow or vanish.
  const Json base = tiny_report().to_json();
  Json cur = base;
  cur["wall_seconds"] = base.at("wall_seconds").f64() * 100.0;
  obs::DiffOptions strict;
  strict.threshold = 0.0;
  const obs::DiffReport d = obs::diff_reports(base, cur, strict);
  EXPECT_FALSE(d.has_regression());
  EXPECT_TRUE(d.entries.empty());
  EXPECT_EQ(d.leaves_compared, obs::diff_reports(base, base).leaves_compared);
  cur.obj().erase("wall_seconds");
  EXPECT_TRUE(obs::diff_reports(base, cur).missing_in_current.empty());
}

TEST(Diff, ConfigChangesAreContextMismatchesNotRegressions) {
  const Json base = tiny_report().to_json();
  Json cur = base;
  cur["params"]["n"] = std::uint64_t{40000};
  const obs::DiffReport d = obs::diff_reports(base, cur);
  EXPECT_FALSE(d.has_regression());
  ASSERT_FALSE(d.context_mismatches.empty());
  EXPECT_NE(d.context_mismatches[0].find("params.n"), std::string::npos);
}

TEST(Diff, RecordsAlignByNameNotPosition) {
  obs::RunReport a("bench"), b("bench");
  a.add_run("first").counters["cost_bytes"] = 100;
  a.add_run("second").counters["cost_bytes"] = 200;
  // Same records, reversed order, one regressed.
  b.add_run("second").counters["cost_bytes"] = 500;
  b.add_run("first").counters["cost_bytes"] = 100;
  const obs::DiffReport d = obs::diff_reports(a.to_json(), b.to_json());
  EXPECT_TRUE(d.has_regression());
  EXPECT_EQ(d.regressions(), 1u);
  for (const auto& e : d.entries) {
    if (e.regression) {
      EXPECT_NE(e.path.find("second"), std::string::npos);
    }
  }
}

TEST(Diff, MissingAndAddedLeavesAreReported) {
  obs::RunReport a("bench"), b("bench");
  a.add_run("r").counters["old_bytes"] = 1;
  b.add_run("r").counters["new_bytes"] = 1;
  const obs::DiffReport d = obs::diff_reports(a.to_json(), b.to_json());
  ASSERT_EQ(d.missing_in_current.size(), 1u);
  ASSERT_EQ(d.added_in_current.size(), 1u);
  EXPECT_NE(d.missing_in_current[0].find("old_bytes"), std::string::npos);
  EXPECT_NE(d.added_in_current[0].find("new_bytes"), std::string::npos);
}

TEST(Diff, ZeroBaselineNonzeroCurrentRegresses) {
  obs::RunReport a("bench"), b("bench");
  a.add_run("r").counters["spill_bytes"] = 0;
  b.add_run("r").counters["spill_bytes"] = 4096;
  EXPECT_TRUE(obs::diff_reports(a.to_json(), b.to_json()).has_regression());
}

TEST(Diff, FaultKeysAbsentFromOldBaselineReadAsZero) {
  // A baseline checked in before the fault section existed, diffed against
  // a current run that exports the (all-zero) fault counters: absence is
  // zero, not schema drift — no added leaves, no regression.
  obs::RunReport a("bench"), b("bench");
  a.add_run("r").counters["machine.far_read_bytes"] = 100;
  obs::RunRecord& rb = b.add_run("r");
  rb.counters["machine.far_read_bytes"] = 100;
  obs::MetricsRegistry reg;
  obs::export_stats(FaultStats{}, reg);
  rb.add_metrics(reg);
  const obs::DiffReport d = obs::diff_reports(a.to_json(), b.to_json());
  EXPECT_FALSE(d.has_regression());
  EXPECT_TRUE(d.entries.empty());
  EXPECT_TRUE(d.added_in_current.empty());
  EXPECT_TRUE(d.missing_in_current.empty());
}

TEST(Diff, NonzeroFaultCounterAgainstOldBaselineIsAChangedLeaf) {
  // Same old baseline, but the current run actually saw faults: that is a
  // real change (baseline read as 0), reported as an entry — never as an
  // unexplained "new in current" schema difference.
  obs::RunReport a("bench"), b("bench");
  a.add_run("r").counters["machine.far_read_bytes"] = 100;
  obs::RunRecord& rb = b.add_run("r");
  rb.counters["machine.far_read_bytes"] = 100;
  FaultStats fs;
  fs.near_alloc_injected = 4;
  obs::MetricsRegistry reg;
  obs::export_stats(fs, reg);
  rb.add_metrics(reg);
  const obs::DiffReport d = obs::diff_reports(a.to_json(), b.to_json());
  EXPECT_TRUE(d.added_in_current.empty());
  bool found = false;
  for (const auto& e : d.entries) {
    if (e.path.find("faults.near_alloc_injected") != std::string::npos) {
      found = true;
      EXPECT_DOUBLE_EQ(e.baseline, 0.0);
      EXPECT_DOUBLE_EQ(e.current, 4.0);
    }
  }
  EXPECT_TRUE(found);
}

TEST(Diff, FaultKeysMissingFromCurrentAreToleratedToo) {
  // The mirror direction: a chaos baseline diffed against a run from a
  // build predating the fault section. The nonzero baseline leaf reads the
  // absent current as zero (an improvement), never as "missing".
  obs::RunReport a("bench"), b("bench");
  obs::RunRecord& ra = a.add_run("r");
  ra.counters["machine.far_read_bytes"] = 100;
  FaultStats fs;
  fs.dma_retries = 6;
  obs::MetricsRegistry reg;
  obs::export_stats(fs, reg);
  ra.add_metrics(reg);
  b.add_run("r").counters["machine.far_read_bytes"] = 100;
  const obs::DiffReport d = obs::diff_reports(a.to_json(), b.to_json());
  EXPECT_FALSE(d.has_regression());
  EXPECT_TRUE(d.missing_in_current.empty());
  bool improved = false;
  for (const auto& e : d.entries)
    improved |= e.improvement &&
                e.path.find("retries.dma") != std::string::npos;
  EXPECT_TRUE(improved);
}

// ----------------------------------------------------- tenant counters

// One tiny job through a real JobServer, exported the way bench/server_mixed
// does it: the naming contract the round-trip and diff tests below pin.
void tenant_metrics(obs::MetricsRegistry& reg) {
  Machine m(test_config(4.0));
  server::JobServer srv(m);
  srv.add_tenant("alpha", 64 * 1024);
  auto res = std::make_shared<server::SortJobResult>();
  srv.submit(server::make_sort_job("alpha", "tiny",
                                   server::SortBackend::kGnu, 2048, 11, res));
  srv.drain();
  EXPECT_TRUE(res->verified);
  srv.export_metrics(reg);
}

TEST(RunReport, TenantCountersRoundTripThroughSchema) {
  obs::MetricsRegistry reg;
  tenant_metrics(reg);
  obs::RunReport rep("server");
  obs::RunRecord& rec = rep.add_run("mixed");
  rec.add_metrics(reg);

  const obs::RunReport back = obs::RunReport::from_json(rep.to_json());
  ASSERT_EQ(back.runs.size(), 1u);
  const auto& c = back.runs[0].counters;
  EXPECT_EQ(c.at("tenant.alpha.quota_bytes"), 64u * 1024);
  EXPECT_EQ(c.at("tenant.alpha.admissions"), 1u);
  EXPECT_EQ(c.at("tenant.alpha.rejections"), 0u);
  EXPECT_EQ(c.at("tenant.alpha.jobs_completed"), 1u);
  EXPECT_EQ(c.at("tenant.alpha.phases"), 3u);
  EXPECT_EQ(c.at("tenant.alpha.attributed_far_bytes"),
            reg.counters().at("tenant.alpha.attributed_far_bytes"));
  EXPECT_DOUBLE_EQ(back.runs[0].gauges.at("tenant.alpha.degrade_level"),
                   0.0);
}

TEST(Diff, TenantLeavesAbsentFromOldBaselineAreAdditionsNotRegressions) {
  // A baseline checked in before the job server existed, diffed against a
  // current run that exports tenant.* counters: the new leaves are listed
  // as additions — visible, but never counted as regressions, so old
  // baselines keep gating the leaves they do have.
  obs::RunReport a("bench"), b("bench");
  a.add_run("mixed").counters["machine.far_read_bytes"] = 100;
  obs::RunRecord& rb = b.add_run("mixed");
  rb.counters["machine.far_read_bytes"] = 100;
  obs::MetricsRegistry reg;
  tenant_metrics(reg);
  rb.add_metrics(reg);
  const obs::DiffReport d = obs::diff_reports(a.to_json(), b.to_json());
  EXPECT_FALSE(d.has_regression());
  EXPECT_TRUE(d.missing_in_current.empty());
  bool listed = false;
  for (const auto& p : d.added_in_current)
    listed |= p.find("tenant.alpha.admissions") != std::string::npos;
  EXPECT_TRUE(listed);
}

TEST(Diff, RegressedTenantCounterGatesOnceBaselined) {
  // Once both sides carry tenant counters they are ordinary cost leaves:
  // a tenant suddenly burning more attributed far traffic is a regression
  // like any other.
  obs::RunReport a("bench"), b("bench");
  a.add_run("mixed").counters["tenant.alpha.attributed_far_bytes"] = 1000;
  b.add_run("mixed").counters["tenant.alpha.attributed_far_bytes"] = 2000;
  const obs::DiffReport d = obs::diff_reports(a.to_json(), b.to_json());
  EXPECT_TRUE(d.has_regression());
  ASSERT_EQ(d.regressions(), 1u);
}

TEST(Diff, GoogleBenchmarkShapedJsonWorks) {
  // The diff is schema-tolerant: any document whose numeric cost leaves
  // (here `seconds`) sit inside an array of records keyed by "name" diffs
  // record by record, whatever the array's order.
  const char* base = R"({"benchmarks": [
    {"name": "BM_X/4", "seconds": 100.0, "iterations": 7},
    {"name": "BM_Y/8", "seconds": 50.0, "iterations": 9}]})";
  const char* worse = R"({"benchmarks": [
    {"name": "BM_Y/8", "seconds": 50.0, "iterations": 9},
    {"name": "BM_X/4", "seconds": 200.0, "iterations": 7}]})";
  const obs::DiffReport d =
      obs::diff_reports(Json::parse(base), Json::parse(worse));
  EXPECT_TRUE(d.has_regression());
  for (const auto& e : d.entries) {
    if (e.regression) {
      EXPECT_NE(e.path.find("BM_X/4"), std::string::npos);
    }
  }
}

}  // namespace
}  // namespace tlm
