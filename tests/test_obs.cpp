// Observability layer: JSON round-trips, run-report schema and metric
// export, report diffing, and the counters-layer fixes it rides on.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <initializer_list>
#include <memory>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "analysis/experiment.hpp"
#include "obs/diff.hpp"
#include "obs/json.hpp"
#include "obs/run_report.hpp"
#include "scratchpad/counters.hpp"
#include "scratchpad/machine.hpp"
#include "server/job_server.hpp"
#include "server/jobs.hpp"
#include "temp_path.hpp"

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
  // 2^64 parses as a double one past the uint64 range.
  EXPECT_THROW(Json::parse("18446744073709551616").u64(), std::runtime_error);
  EXPECT_THROW(j.at("missing"), std::runtime_error);
  EXPECT_EQ(j.get_str("x", ""), "str");
  EXPECT_EQ(j.get_u64("absent", 7), 7u);
}

TEST(Json, UnicodeEscapesDecodeToUtf8) {
  const Json j = Json::parse("\"a\\u00e9\\u20acb\"");
  EXPECT_EQ(j.str(), "a\xc3\xa9\xe2\x82\xac" "b");
}

// ------------------------------------------------------- PhaseStats fix

TEST(PhaseStats, PlusEqualsAggregatesEveryField) {
  const PhaseStats a = obs::phase_from_json(Json::parse(R"({
    "far_read_bytes": 100, "far_write_bytes": 10, "near_read_bytes": 20,
    "near_write_bytes": 2, "far_read_blocks": 3, "near_read_blocks": 4,
    "far_read_bursts": 5, "near_read_bursts": 6, "compute_ops_total": 7.0,
    "compute_ops_max": 1.5, "far_s": 0.1, "near_s": 0.2, "compute_s": 0.3,
    "seconds": 0.4})"));
  PhaseStats b = a;
  b += a;
  EXPECT_EQ(b.far_read_bytes(), 200u);
  EXPECT_EQ(b.far_write_bytes(), 20u);
  EXPECT_EQ(b.near_read_bytes(), 40u);
  EXPECT_EQ(b.near_write_bytes(), 4u);
  EXPECT_EQ(b.far_blocks(), 6u);
  EXPECT_EQ(b.near_blocks(), 8u);
  EXPECT_EQ(b.far_bursts(), 10u);
  EXPECT_EQ(b.near_bursts(), 12u);
  EXPECT_DOUBLE_EQ(b.compute_ops_total(), 14.0);
  EXPECT_DOUBLE_EQ(b.compute_ops_max(), 3.0);
  EXPECT_DOUBLE_EQ(b.far_s(), 0.2);
  EXPECT_DOUBLE_EQ(b.near_s(), 0.4);
  EXPECT_DOUBLE_EQ(b.compute_s(), 0.6);
  EXPECT_DOUBLE_EQ(b.seconds(), 0.8);
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

double exported(const obs::RunRecord& rec, const std::string& key) {
  if (const auto it = rec.counters.find(key); it != rec.counters.end())
    return static_cast<double>(it->second);
  return rec.gauges.at(key);
}

// Every row of the three counter tables gets a distinct value and is checked
// by name through each operation expanded from the tables: JSON out and
// back, +=, the *_delta snapshots and the export_stats export.
TEST(CounterTable, EveryFieldRoundTrips) {
  double v = 1;
  Json ja = Json::object(), jb = Json::object();
  ja["name"] = "phase";
#define TLM_X(kind, field, fold)                           \
  ja[#field] = static_cast<counters::kind>(v + 0.5);       \
  jb[#field] = static_cast<counters::kind>(100 + v + 0.5); \
  v += 1;
  TLM_PHASE_STATS(TLM_X)
#undef TLM_X
  const PhaseStats a = obs::phase_from_json(ja);
  const PhaseStats b = obs::phase_from_json(jb);
  PhaseStats sum = a;
  sum += b;
  const PhaseStats d = phase_delta(sum, b);

  MachineStats st;
  st.total = a;
  st.phases = {a};
  st.phase_host_seconds = {0.25};
  obs::RunReport report("counter_table");
  report.add_run("r").set_counting(st, 64);
  const Json j = report.to_json();
  const Json& jt = j.at("runs").arr()[0].at("counting").at("total");
  // The phase's host seconds land in the record's host section, not in the
  // counting section.
  EXPECT_EQ(j.at("runs").arr()[0].at("host").at("phase_seconds.phase").f64(),
            0.25);
  EXPECT_FALSE(jt.contains("host_seconds"));
  const PhaseStats back = obs::phase_from_json(
      j.at("runs").arr()[0].at("counting").at("phases").arr().at(0));
  EXPECT_EQ(back.name, "phase");
#define TLM_X(kind, field, fold)                                          \
  EXPECT_EQ(static_cast<double>(a.field()), ja.at(#field).f64()) << #field; \
  EXPECT_EQ(static_cast<double>(b.field()), jb.at(#field).f64()) << #field; \
  EXPECT_EQ(jt.at(#field).f64(), static_cast<double>(a.field())) << #field; \
  EXPECT_EQ(back.field(), a.field()) << #field;                             \
  expect_folded(#field, sum.field(), a.field(), b.field(),                  \
                counters::fold{});                                          \
  expect_delta(#field, d.field(), a.field(), sum.field(), counters::fold{});
  TLM_PHASE_STATS(TLM_X)
#undef TLM_X
  // The one Max row: += keeps the larger value, the delta the later one.
  EXPECT_EQ(sum.partition_imbalance_max(), b.partition_imbalance_max());
  EXPECT_EQ(d.partition_imbalance_max(), sum.partition_imbalance_max());
  // A combined counter's twins are its name with read_/write_ inserted
  // before the last word: far_blocks = far_read_blocks + far_write_blocks.
  const auto twin = [](std::string name, const std::string& dir) {
    return name.insert(name.rfind('_') + 1, dir + "_");
  };
#define TLM_X(combined, read, write)           \
  EXPECT_EQ(twin(#combined, "read"), #read);   \
  EXPECT_EQ(twin(#combined, "write"), #write); \
  EXPECT_EQ(jt.at(#combined).u64(), a.read() + a.write()) << #combined;
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
  obs::RunRecord rec;
  obs::export_stats(sa, rec);
  obs::export_stats(fa, rec);
#define TLM_X(kind, field, metric)                      \
  EXPECT_EQ(ssum.field, sa.field + sb.field) << #field; \
  EXPECT_EQ(sd.field, sa.field) << #field;              \
  EXPECT_EQ(exported(rec, metric), static_cast<double>(sa.field)) << metric;
  TLM_STAGER_STATS(TLM_X)
#undef TLM_X
#define TLM_X(kind, field, metric)                      \
  EXPECT_EQ(fsum.field, fa.field + fb.field) << #field; \
  EXPECT_EQ(fd.field, fa.field) << #field;              \
  EXPECT_EQ(exported(rec, metric), static_cast<double>(fa.field)) << metric;
  TLM_FAULT_STATS(TLM_X)
#undef TLM_X
}

TEST(CounterTable, SimCountersRoundTrip) {
  obs::RunReport report("sim_table");
  obs::RunRecord& rec = report.add_run("r");
  rec.has_sim = true;
  sim::SimReport& r = rec.sim;
  // A different nonzero value in every stored field the tables read.
  r.seconds = 0.5;
  r.events = 2;
  r.far = {3, 4, 5, 6, 7, 8, 9};
  r.near = {10, 11, 12, 0, 0, 13, 14};
  r.l1 = {15, 16, 17, 18, 19, 20};
  r.l2 = {21, 22, 23, 24, 25, 26};
  r.noc = {27, 28};
  r.dma = {29, 30, 31, 32, 33};
  r.core_loads = 34;
  r.core_stores = 35;
  r.compute_ops = 36.5;
  r.barrier_epochs = 37;
  r.access_latency.add(38e-9);
  const Json j = report.to_json();
  const Json& js = j.at("runs").arr()[0].at("sim");
  const auto back = r.counters();
  const auto counter = [&](const std::string& name) {
    for (const auto& [k, v] : back)
      if (k == name) return v;
    ADD_FAILURE() << "counters() has no " << name;
    return -1.0;
  };
  EXPECT_EQ(js.at("seconds").f64(), counter("seconds"));
  EXPECT_EQ(js.at("events").f64(), counter("events"));
  std::size_t rows = 2;
#define TLM_X(section, key, source)                                       \
  EXPECT_EQ(js.at(#section).at(#key).f64(), static_cast<double>(source))  \
      << #section "." #key;                                               \
  EXPECT_EQ(counter(#section "." #key), static_cast<double>(source))      \
      << #section "." #key;                                               \
  ++rows;
  TLM_SIM_STATS(TLM_X)
#undef TLM_X
  // The detail rows are counters() only: the report's sim key set predates
  // them.
#define TLM_X(section, key, source)                                      \
  EXPECT_FALSE(js.contains(#section) && js.at(#section).contains(#key)) \
      << #section "." #key;                                              \
  EXPECT_EQ(counter(#section "." #key), static_cast<double>(source))     \
      << #section "." #key;                                              \
  ++rows;
  TLM_SIM_DETAIL_STATS(TLM_X)
#undef TLM_X
  EXPECT_EQ(back.size(), rows);

  // The DMA section is written even when no engine saw traffic.
  r.dma = {};
  EXPECT_EQ(report.to_json().at("runs").arr()[0].at("sim").at("dma").at(
                "bytes").u64(),
            0u);
}

TEST(MachineStats, AccessCountsRoundPartialLinesUp) {
  const auto with_total = [](std::string_view total) {
    MachineStats st;
    st.total = obs::phase_from_json(Json::parse(total));
    return st;
  };
  // One full far line + one partial; exactly one near line.
  MachineStats st =
      with_total(R"({"far_read_bytes": 65, "near_write_bytes": 64})");
  EXPECT_EQ(st.far_accesses(64), 2u);
  EXPECT_EQ(st.near_accesses(64), 1u);
  st = with_total(R"({"near_write_bytes": 63})");  // a partial line still costs
  EXPECT_EQ(st.near_accesses(64), 1u);
  st = with_total("{}");
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
  EXPECT_EQ(st.total.far_read_bytes(), 192u);
  // Each phase's host time sits beside it, the open phase's included.
  ASSERT_EQ(st.phases.size(), 2u);
  EXPECT_EQ(st.phase_host_seconds.size(), st.phases.size());
}

// ----------------------------------------------------------- RunReport

obs::RunReport tiny_report() {
  const TwoLevelConfig cfg = analysis::scaled_counting_config(4.0, 2, MiB);
  const analysis::SortRun r = analysis::run_sort_counting(
      cfg, sort::Algorithm::NMsort, 20000, 7);
  obs::RunReport report("unit_test");
  report.params["n"] = std::uint64_t{20000};
  report.host["wall_seconds"] = 0.125;
  obs::RunRecord& rec = report.add_run("nmsort");
  rec.set_config(cfg);
  rec.set_counting(r.counting, cfg.block_bytes);
  rec.host["wall_seconds"] = r.host_seconds;
  rec.gauges["modeled_seconds"] = r.modeled_seconds;
  rec.counters["verify.count"] = r.verified ? 1 : 0;
  return report;
}

TEST(RunReport, JsonRoundTripPreservesEverything) {
  const obs::RunReport report = tiny_report();
  const Json j = report.to_json();
  EXPECT_TRUE(obs::validate_report(j).empty())
      << obs::validate_report(j).front();

  EXPECT_EQ(j.at("benchmark").str(), report.benchmark);
  ASSERT_EQ(j.at("runs").arr().size(), 1u);
  const Json& run = j.at("runs").arr()[0];
  EXPECT_EQ(run.at("name").str(), "nmsort");
  EXPECT_TRUE(run.contains("config"));
  EXPECT_TRUE(run.contains("counting"));
  EXPECT_FALSE(run.contains("sim"));
  const Json& counting = run.at("counting");
  EXPECT_EQ(obs::phase_from_json(counting.at("total")).far_read_bytes(),
            report.runs[0].counting.total.far_read_bytes());
  EXPECT_EQ(counting.at("phases").arr().size(),
            report.runs[0].counting.phases.size());
  // Full-fidelity round trip: the document survives its own text.
  EXPECT_EQ(Json::parse(j.dump()), j);
}

TEST(RunReport, WriteAndLoadFile) {
  const obs::RunReport report = tiny_report();
  const TempPath json("obs_run_report_test.json");
  report.write(json.path());
  EXPECT_EQ(Json::load_file(json.path()), report.to_json());
}

TEST(RunReport, ValidateRejectsBrokenDocuments) {
  EXPECT_FALSE(obs::validate_report(Json::parse("[]")).empty());
  EXPECT_FALSE(obs::validate_report(Json::parse("{}")).empty());
  EXPECT_FALSE(obs::validate_report(
                   Json::parse("{\"schema\": \"other\", \"schema_version\": 2,"
                               "\"benchmark\": \"x\", \"runs\": []}"))
                   .empty());

  Json j = tiny_report().to_json();
  j["schema_version"] = std::uint64_t{999};
  EXPECT_FALSE(obs::validate_report(j).empty());

  Json j2 = tiny_report().to_json();
  j2["runs"].arr()[0].obj().erase("name");
  EXPECT_FALSE(obs::validate_report(j2).empty());

  Json j3 = tiny_report().to_json();
  j3["runs"].arr()[0]["host"] = 1.0;
  const auto problems = obs::validate_report(j3);
  ASSERT_EQ(problems.size(), 1u);
  EXPECT_EQ(problems[0], "runs[0]: 'host' must be an object");
}

// Every TLM_PHASE_STATS field is required in the total and in each phase,
// partition_splits among them (the hand-written key list before the table
// never named it).
TEST(RunReport, ValidateRequiresEveryPhaseStatsField) {
  Json j = tiny_report().to_json();
  ASSERT_TRUE(obs::validate_report(j).empty());
  Json& counting = j["runs"].arr()[0]["counting"];
  counting["total"].obj().erase("partition_splits");
  counting["phases"].arr()[0].obj().erase("partition_splits");
  const auto problems = obs::validate_report(j);
  ASSERT_EQ(problems.size(), 2u);
  EXPECT_EQ(problems[0],
            "runs[0].counting.total: missing required key 'partition_splits'");
  EXPECT_EQ(problems[1], "runs[0].counting.phases[0]: missing required key "
                         "'partition_splits'");
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
  // The loader derives a combined counter from its twins; it never takes
  // the edited leaf.
  EXPECT_EQ(obs::phase_from_json(total).far_blocks(),
            total.at("far_read_blocks").u64() +
                total.at("far_write_blocks").u64());
  EXPECT_NE(obs::phase_from_json(total).far_blocks(),
            total.at("far_blocks").u64());
}

TEST(RunReport, PreSplitCountersRefuseToLoad) {
  // A report from before the read/write split has far_blocks & co. but not
  // their twins; loading it would derive every combined counter as zero.
  Json j = tiny_report().to_json();
  Json& total = j["runs"].arr()[0]["counting"]["total"];
#define TLM_X(combined, read, write) \
  total.obj().erase(#read);          \
  total.obj().erase(#write);
  TLM_PHASE_COMBINED(TLM_X)
#undef TLM_X
  EXPECT_THROW(obs::phase_from_json(total), std::runtime_error);

  Json& phase = j["runs"].arr()[0]["counting"]["phases"].arr()[0];
  phase.obj().erase("dma_near_write_bursts");
  EXPECT_THROW(obs::phase_from_json(phase), std::runtime_error);
}

TEST(RunReport, SimCountersFlattenFromSimReport) {
  const auto s = analysis::simulate_sort(sim::SystemConfig::scaled(2.0, 4),
                                         2.0, 20000, MiB,
                                         sort::Algorithm::NMsort, 7);
  obs::RunReport report("sim_unit");
  obs::RunRecord& rec = report.add_run("sim");
  rec.set_sim(s.report);
  const Json j = report.to_json();
  EXPECT_TRUE(obs::validate_report(j).empty());
  const Json& sc = j.at("runs").arr()[0].at("sim");
  EXPECT_GT(sc.at("events").u64(), 0u);
  EXPECT_GT(sc.at("seconds").f64(), 0.0);
  EXPECT_GT(sc.at("far").at("reads").u64() + sc.at("far").at("writes").u64(),
            0u);
  EXPECT_GT(
      sc.at("near").at("reads").u64() + sc.at("near").at("writes").u64(), 0u);
  EXPECT_EQ(sc.at("events").u64(), s.report.events);
  EXPECT_EQ(sc.at("l2").at("hits").u64(), s.report.l2.hits());
}

TEST(RunReport, ExportStagerStatsLandsInRegistry) {
  StagerStats st;
  st.batches = 7;
  st.sync_bytes = 4096;
  st.prefetch_batches = 6;
  st.prefetch_bytes = 24576;
  st.fallback_direct = 1;
  st.restarts = 1;
  obs::RunRecord rec;
  obs::export_stats(st, rec);
  const auto& counters = rec.counters;
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
  obs::RunRecord rec;
  obs::export_stats(FaultStats{}, rec);
  const auto& counters = rec.counters;
  EXPECT_EQ(counters.at("faults.near_alloc_injected"), 0u);
  EXPECT_EQ(counters.at("faults.near_alloc_exhausted"), 0u);
  EXPECT_EQ(counters.at("faults.near_far_fallbacks"), 0u);
  EXPECT_EQ(counters.at("faults.dma_injected"), 0u);
  EXPECT_EQ(counters.at("faults.far_stalls"), 0u);
  EXPECT_EQ(counters.at("retries.dma"), 0u);
  const auto& gauges = rec.gauges;
  EXPECT_DOUBLE_EQ(gauges.at("retries.backoff_seconds"), 0.0);
  EXPECT_DOUBLE_EQ(gauges.at("faults.stall_seconds"), 0.0);

  FaultStats fs;
  fs.near_alloc_injected = 3;
  fs.dma_retries = 2;
  fs.backoff_s = 3e-6;
  obs::RunRecord rec2;
  obs::export_stats(fs, rec2);
  EXPECT_EQ(rec2.counters.at("faults.near_alloc_injected"), 3u);
  EXPECT_EQ(rec2.counters.at("retries.dma"), 2u);
  EXPECT_DOUBLE_EQ(rec2.gauges.at("retries.backoff_seconds"), 3e-6);
}

// The nine trace.* leaves of a mapped capture and its replay, each under
// its name, in its section, with its source value.
TEST(RunReport, ExportTraceStatsLandsEveryLeaf) {
  trace::MappedLogStats ml;
  ml.ops = 40;
  ml.raw_ops = 41;
  ml.encoded_bytes = 130;
  ml.file_bytes = 4096;
  ml.chunks = 2;
  trace::ReplayStats rs;
  rs.ops = 42;
  rs.fences = 5;
  rs.recovered_threads = 1;
  obs::RunReport report("trace");
  obs::RunRecord& rec = report.add_run("mapped");
  obs::export_stats(ml, rec);
  obs::export_stats(rs, rec);
  const Json j = report.to_json();
  const Json& m = j.at("runs").arr()[0].at("metrics");
  const Json& c = m.at("counters");
  EXPECT_EQ(c.obj().size(), 8u);
  EXPECT_EQ(c.at("trace.capture_ops").u64(), 40u);
  EXPECT_EQ(c.at("trace.capture_raw_ops").u64(), 41u);
  EXPECT_EQ(c.at("trace.encoded_bytes").u64(), 130u);
  EXPECT_EQ(c.at("trace.spill_bytes").u64(), 4096u);
  EXPECT_EQ(c.at("trace.spill_chunks").u64(), 2u);
  EXPECT_EQ(c.at("trace.replay_ops").u64(), 42u);
  EXPECT_EQ(c.at("trace.replay_fences").u64(), 5u);
  EXPECT_EQ(c.at("trace.replay_recovered_threads").u64(), 1u);
  const Json& g = m.at("gauges");
  EXPECT_EQ(g.obj().size(), 1u);
  EXPECT_DOUBLE_EQ(g.at("trace.capture_bytes_per_op").f64(), 130.0 / 40.0);
}

TEST(RunReport, EmptyMetricsSectionsOmittedFromJson) {
  obs::RunReport report("sections");
  report.add_run("none");
  report.add_run("counter").counters["only.counter"] = 3;
  const Json j = report.to_json();
  EXPECT_FALSE(j.at("runs").arr()[0].contains("metrics"));
  const Json& m = j.at("runs").arr()[1].at("metrics");
  EXPECT_EQ(m.at("counters").at("only.counter").u64(), 3u);
  EXPECT_FALSE(m.contains("gauges"));
}

// ---------------------------------------------------------------- diff
//
// One rule: every numeric leaf outside a `host` object compares exactly; a
// leaf that changed or vanished counts, a leaf only the current report has
// is listed but not counted.

TEST(Diff, IdenticalReportsAreClean) {
  const Json j = tiny_report().to_json();
  const obs::DiffReport d = obs::diff_reports(j, j);
  EXPECT_EQ(d.changed(), 0u);
  EXPECT_TRUE(d.entries.empty());
  EXPECT_TRUE(d.added_in_current.empty());
  EXPECT_GT(d.leaves_compared, 0u);
}

TEST(Diff, InjectedCostIncreaseIsFlagged) {
  const Json base = tiny_report().to_json();
  Json cur = base;
  Json& total = cur["runs"].arr()[0]["counting"]["total"];
  total["far_read_bytes"] = total.at("far_read_bytes").u64() * 2;
  const obs::DiffReport d = obs::diff_reports(base, cur);
  ASSERT_EQ(d.changed(), 1u);
  ASSERT_EQ(d.entries.size(), 1u);
  EXPECT_EQ(d.entries[0].path, "runs[nmsort].counting.total.far_read_bytes");
  EXPECT_EQ(d.entries[0].current, 2 * d.entries[0].baseline);
  EXPECT_NE(d.format().find("changed:            runs[nmsort].counting."
                            "total.far_read_bytes"),
            std::string::npos)
      << d.format();
}

// There is no verdict by direction: a halved cost leaf is a changed leaf
// like a doubled one, so the gate fails until the baseline is regenerated.
TEST(Diff, ImprovementIsNotARegression) {
  const Json base = tiny_report().to_json();
  Json cur = base;
  Json& total = cur["runs"].arr()[0]["counting"]["total"];
  total["far_read_bytes"] = total.at("far_read_bytes").u64() / 2;
  const obs::DiffReport d = obs::diff_reports(base, cur);
  ASSERT_EQ(d.changed(), 1u);
  ASSERT_EQ(d.entries.size(), 1u);
  EXPECT_EQ(d.entries[0].path, "runs[nmsort].counting.total.far_read_bytes");
  EXPECT_LT(d.entries[0].current, d.entries[0].baseline);
  EXPECT_NE(d.format().find("changed:            runs[nmsort].counting."
                            "total.far_read_bytes"),
            std::string::npos)
      << d.format();
}

// The one threshold left is report_diff --max-changed, a count of leaves.
// Jitter in host time never counts; a 2% change to a modeled leaf counts
// once, so it passes only a gate that allows one changed leaf.
TEST(Diff, SmallJitterUnderThresholdPasses) {
  const Json base = tiny_report().to_json();
  Json cur = base;
  for (Json* host : {&cur["host"], &cur["runs"].arr()[0]["host"]})
    (*host)["wall_seconds"] = host->at("wall_seconds").f64() * 1.02;
  EXPECT_EQ(obs::diff_reports(base, cur).changed(), 0u);
  Json& total = cur["runs"].arr()[0]["counting"]["total"];
  total["seconds"] = total.at("seconds").f64() * 1.02;
  EXPECT_EQ(obs::diff_reports(base, cur).changed(), 1u);
}

// No threshold: a drop to zero and a one-ulp change each count once.
TEST(Diff, AnyDifferenceInEitherDirectionCounts) {
  const Json base = tiny_report().to_json();
  const Json& total = base.at("runs").arr()[0].at("counting").at("total");
  const double seconds = total.at("seconds").f64();
  const auto changed = [&](const char* key, Json v) {
    Json cur = base;
    cur["runs"].arr()[0]["counting"]["total"][key] = std::move(v);
    return obs::diff_reports(base, cur).changed();
  };
  EXPECT_EQ(changed("far_read_bytes", Json(std::uint64_t{0})), 1u);
  EXPECT_EQ(changed("seconds", Json(std::nextafter(seconds, 1.0))), 1u);
}

// Host wall-clock is never compared, whether it grows or vanishes.
TEST(Diff, WallClockExcludedUnlessOptedIn) {
  const Json base = tiny_report().to_json();
  Json cur = base;
  for (Json* host : {&cur["host"], &cur["runs"].arr()[0]["host"]})
    (*host)["wall_seconds"] = host->at("wall_seconds").f64() * 100.0;
  const obs::DiffReport d = obs::diff_reports(base, cur);
  EXPECT_EQ(d.changed(), 0u);
  EXPECT_EQ(d.leaves_compared, obs::diff_reports(base, base).leaves_compared);
  cur.obj().erase("host");
  EXPECT_EQ(obs::diff_reports(base, cur).changed(), 0u);
}

// The skip is by path: a host leaf no code names, moved 100x, counts 0,
// and a host section only one side has is neither counted nor listed.
TEST(Diff, HostSectionIsNeverCompared) {
  obs::RunReport report = tiny_report();
  report.runs[0].host["new_span_ms"] = 2.0;
  const Json base = report.to_json();
  Json cur = base;
  cur["runs"].arr()[0]["host"]["new_span_ms"] = 200.0;
  EXPECT_EQ(obs::diff_reports(base, cur).changed(), 0u);
  cur["runs"].arr()[0].obj().erase("host");
  const obs::DiffReport gone = obs::diff_reports(base, cur);
  const obs::DiffReport added = obs::diff_reports(cur, base);
  EXPECT_EQ(gone.changed(), 0u);
  EXPECT_EQ(added.changed(), 0u);
  EXPECT_TRUE(added.added_in_current.empty());
}

// A simulator counter, a gauge and a config leaf are one kind of leaf:
// each counts once when it changes.
TEST(Diff, EveryLeafOutsideHostCountsOnceWhenChanged) {
  obs::RunReport report("bench");
  obs::RunRecord& rec = report.add_run("r");
  rec.set_config(test_config(4.0));
  rec.has_sim = true;
  rec.sim.l1 = {15, 16, 17, 18, 19, 20};
  rec.gauges["speedup_vs_gnu"] = 1.5;
  const Json base = report.to_json();
  // The one changed path after adding 1 to the leaf at `keys`.
  const auto changed_path = [&](std::initializer_list<const char*> keys) {
    Json cur = base;
    Json* leaf = &cur["runs"].arr()[0];
    for (const char* k : keys) leaf = &(*leaf)[k];
    *leaf = leaf->f64() + 1;
    const obs::DiffReport d = obs::diff_reports(base, cur);
    return d.changed() == 1 && d.entries.size() == 1
               ? d.entries[0].path
               : std::to_string(d.changed()) + " changed";
  };
  EXPECT_EQ(changed_path({"sim", "l1", "hits"}), "runs[r].sim.l1.hits");
  EXPECT_EQ(changed_path({"metrics", "gauges", "speedup_vs_gnu"}),
            "runs[r].metrics.gauges.speedup_vs_gnu");
  EXPECT_EQ(changed_path({"config", "rho"}), "runs[r].config.rho");
}

// A changed gauge counts; a vanished one counts too, as missing, a
// zero-valued fault leaf included.
TEST(Diff, ChangedOrVanishedContextLeavesCountAsChanged) {
  obs::RunReport a("bench");
  obs::RunRecord& ra = a.add_run("r");
  ra.gauges["verified"] = 1.0;
  ra.gauges["tenant.t.degrade_level"] = 0.0;
  ra.counters["retries.dma"] = 0;
  const Json base = a.to_json();
  EXPECT_EQ(obs::diff_reports(base, base).changed(), 0u);

  Json changed = base;
  changed["runs"].arr()[0]["metrics"]["gauges"]["verified"] = 0.0;
  obs::DiffReport d = obs::diff_reports(base, changed);
  EXPECT_EQ(d.changed(), 1u);
  ASSERT_EQ(d.entries.size(), 1u);
  EXPECT_EQ(d.entries[0].path, "runs[r].metrics.gauges.verified");

  Json vanished = base;
  vanished["runs"].arr()[0]["metrics"]["gauges"].obj().erase(
      "tenant.t.degrade_level");
  vanished["runs"].arr()[0]["metrics"].obj().erase("counters");
  d = obs::diff_reports(base, vanished);
  EXPECT_EQ(d.changed(), 2u);
  EXPECT_EQ(d.missing_in_current,
            (std::vector<std::string>{
                "runs[r].metrics.counters.retries.dma",
                "runs[r].metrics.gauges.tenant.t.degrade_level"}));
}

// A leaf only the current report has (a new gauge or params field) is
// listed as new in format(true), but the count leaves it out.
TEST(Diff, ContextLeavesOnlyInCurrentAreListedNotCounted) {
  obs::RunReport a("bench");
  a.add_run("r").gauges["verified"] = 1.0;
  const Json base = a.to_json();
  Json cur = base;
  cur["runs"].arr()[0]["metrics"]["gauges"]["checked_keys"] = 64.0;
  cur["params"]["n"] = std::uint64_t{20000};
  const obs::DiffReport d = obs::diff_reports(base, cur);
  EXPECT_EQ(d.changed(), 0u);
  ASSERT_EQ(d.added_in_current.size(), 2u);
  const std::string text = d.format(/*verbose=*/true);
  EXPECT_NE(text.find("new in current:     params.n"), std::string::npos)
      << text;
  EXPECT_NE(
      text.find("new in current:     runs[r].metrics.gauges.checked_keys"),
      std::string::npos)
      << text;
  EXPECT_EQ(d.format().find("new in current:     "), std::string::npos);
}

// Fault leaves follow the same rule as every other leaf: only in the
// current report, at zero or not, they are listed and not counted.
TEST(Diff, FaultContextLeavesOnlyInCurrentAreListedNotCounted) {
  obs::RunReport a("bench"), b("bench");
  a.add_run("r").counters["machine.far_read_bytes"] = 100;
  obs::RunRecord& rb = b.add_run("r");
  rb.counters["machine.far_read_bytes"] = 100;
  FaultStats fs;
  fs.near_alloc_injected = 4;
  obs::export_stats(fs, rb);
  rb.gauges["faults.rate"] = 0.0;
  const obs::DiffReport d = obs::diff_reports(a.to_json(), b.to_json());
  EXPECT_EQ(d.changed(), 0u);
  std::size_t faults = 0;
#define TLM_X(kind, field, metric) ++faults;
  TLM_FAULT_STATS(TLM_X)
#undef TLM_X
  EXPECT_EQ(d.added_in_current.size(), faults + 1);
  EXPECT_NE(d.format(true).find("new in current:     "
                                "runs[r].metrics.counters.faults."
                                "near_alloc_injected"),
            std::string::npos)
      << d.format(true);
}

// A baseline written before the fault section existed, diffed against a
// run that exports the all-zero fault counters: nothing counts, as if the
// absent leaves read zero; they are listed as new in current.
TEST(Diff, FaultKeysAbsentFromOldBaselineReadAsZero) {
  obs::RunReport a("bench"), b("bench");
  a.add_run("r").counters["machine.far_read_bytes"] = 100;
  obs::RunRecord& rb = b.add_run("r");
  rb.counters["machine.far_read_bytes"] = 100;
  obs::export_stats(FaultStats{}, rb);
  const obs::DiffReport d = obs::diff_reports(a.to_json(), b.to_json());
  EXPECT_EQ(d.changed(), 0u);
  EXPECT_TRUE(d.entries.empty());
  EXPECT_TRUE(d.missing_in_current.empty());
  std::size_t faults = 0;
#define TLM_X(kind, field, metric) ++faults;
  TLM_FAULT_STATS(TLM_X)
#undef TLM_X
  EXPECT_EQ(d.added_in_current.size(), faults);
}

// A baseline that pins the zero-valued fault leaves, as every regenerated
// baseline does, diffed against a run that saw faults: the nonzero counter
// is one changed leaf, reported with its baseline zero.
TEST(Diff, NonzeroFaultCounterAgainstOldBaselineIsAChangedLeaf) {
  obs::RunReport a("bench"), b("bench");
  obs::RunRecord& ra = a.add_run("r");
  ra.counters["machine.far_read_bytes"] = 100;
  obs::export_stats(FaultStats{}, ra);
  obs::RunRecord& rb = b.add_run("r");
  rb.counters["machine.far_read_bytes"] = 100;
  FaultStats fs;
  fs.near_alloc_injected = 4;
  obs::export_stats(fs, rb);
  const obs::DiffReport d = obs::diff_reports(a.to_json(), b.to_json());
  EXPECT_TRUE(d.added_in_current.empty());
  EXPECT_TRUE(d.missing_in_current.empty());
  ASSERT_EQ(d.changed(), 1u);
  ASSERT_EQ(d.entries.size(), 1u);
  EXPECT_NE(d.entries[0].path.find("faults.near_alloc_injected"),
            std::string::npos);
  EXPECT_DOUBLE_EQ(d.entries[0].baseline, 0.0);
  EXPECT_DOUBLE_EQ(d.entries[0].current, 4.0);
}

// The mirror direction: a chaos baseline diffed against a run without the
// fault section. Each vanished fault leaf, nonzero or zero, counts.
TEST(Diff, FaultKeysMissingFromCurrentCountAsVanished) {
  obs::RunReport a("bench"), b("bench");
  obs::RunRecord& ra = a.add_run("r");
  ra.counters["machine.far_read_bytes"] = 100;
  FaultStats fs;
  fs.dma_retries = 6;
  obs::export_stats(fs, ra);
  b.add_run("r").counters["machine.far_read_bytes"] = 100;
  const obs::DiffReport d = obs::diff_reports(a.to_json(), b.to_json());
  std::size_t faults = 0;
#define TLM_X(kind, field, metric) ++faults;
  TLM_FAULT_STATS(TLM_X)
#undef TLM_X
  EXPECT_TRUE(d.entries.empty());
  EXPECT_EQ(d.changed(), faults);
  EXPECT_EQ(d.missing_in_current.size(), faults);
  bool listed = false;
  for (const auto& p : d.missing_in_current)
    listed |= p.find("retries.dma") != std::string::npos;
  EXPECT_TRUE(listed);
}

TEST(Diff, HostTimedGaugesAreNeverCompared) {
  const char* host_timed[] = {"trace.capture_slowdown_ram",
                              "trace.capture_slowdown_mapped",
                              "racecheck.seconds_per_mop"};
  obs::RunReport a("bench"), b("bench"), c("bench");
  obs::RunRecord& ra = a.add_run("r");
  obs::RunRecord& rb = b.add_run("r");
  ra.gauges["verified"] = rb.gauges["verified"] = 1.0;
  c.add_run("r").gauges["verified"] = 1.0;
  for (const char* k : host_timed) {
    ra.host[k] = 1.5;
    rb.host[k] = 3.0;
  }
  const obs::DiffReport changed = obs::diff_reports(a.to_json(), b.to_json());
  EXPECT_EQ(changed.changed(), 0u);
  EXPECT_EQ(changed.leaves_compared,
            obs::diff_reports(c.to_json(), c.to_json()).leaves_compared);
  EXPECT_EQ(obs::diff_reports(a.to_json(), c.to_json()).changed(), 0u);
}

TEST(Diff, RecordsAlignByNameNotPosition) {
  obs::RunReport a("bench"), b("bench");
  a.add_run("first").counters["cost_bytes"] = 100;
  a.add_run("second").counters["cost_bytes"] = 200;
  // Same records, reversed order, one changed.
  b.add_run("second").counters["cost_bytes"] = 500;
  b.add_run("first").counters["cost_bytes"] = 100;
  const obs::DiffReport d = obs::diff_reports(a.to_json(), b.to_json());
  ASSERT_EQ(d.changed(), 1u);
  EXPECT_EQ(d.entries[0].path, "runs[second].metrics.counters.cost_bytes");
}

TEST(Diff, MissingAndAddedLeavesAreReported) {
  obs::RunReport a("bench"), b("bench");
  a.add_run("r").counters["old_bytes"] = 1;
  b.add_run("r").counters["new_bytes"] = 1;
  const obs::DiffReport d = obs::diff_reports(a.to_json(), b.to_json());
  EXPECT_EQ(d.changed(), 1u);
  ASSERT_EQ(d.missing_in_current.size(), 1u);
  ASSERT_EQ(d.added_in_current.size(), 1u);
  EXPECT_NE(d.missing_in_current[0].find("old_bytes"), std::string::npos);
  EXPECT_NE(d.added_in_current[0].find("new_bytes"), std::string::npos);
}

// A counter that leaves zero fails the gate like any other change.
TEST(Diff, ZeroBaselineNonzeroCurrentRegresses) {
  obs::RunReport a("bench"), b("bench");
  a.add_run("r").counters["spill_bytes"] = 0;
  b.add_run("r").counters["spill_bytes"] = 4096;
  EXPECT_EQ(obs::diff_reports(a.to_json(), b.to_json()).changed(), 1u);
}

// ----------------------------------------------------- tenant counters

// One tiny job through a real JobServer, exported the way bench/server_mixed
// does it: the naming contract the round-trip and diff tests below pin.
void tenant_metrics(obs::RunRecord& rec) {
  Machine m(test_config(4.0));
  server::JobServer srv(m);
  srv.add_tenant("alpha", 64 * 1024);
  auto res = std::make_shared<server::SortJobResult>();
  srv.submit(server::make_sort_job("alpha", "tiny",
                                   sort::Algorithm::GnuSort, 2048, 11, res));
  srv.drain();
  EXPECT_TRUE(res->verified);
  srv.export_metrics(rec);
}

TEST(RunReport, TenantCountersRoundTripThroughSchema) {
  obs::RunReport rep("server");
  obs::RunRecord& rec = rep.add_run("mixed");
  tenant_metrics(rec);

  const Json j = rep.to_json();
  EXPECT_TRUE(obs::validate_report(j).empty());
  ASSERT_EQ(j.at("runs").arr().size(), 1u);
  const Json& m = j.at("runs").arr()[0].at("metrics");
  const Json& c = m.at("counters");
  EXPECT_EQ(c.at("tenant.alpha.quota_bytes").u64(), 64u * 1024);
  EXPECT_EQ(c.at("tenant.alpha.admissions").u64(), 1u);
  EXPECT_EQ(c.at("tenant.alpha.rejections").u64(), 0u);
  EXPECT_EQ(c.at("tenant.alpha.jobs_completed").u64(), 1u);
  EXPECT_EQ(c.at("tenant.alpha.phases").u64(), 3u);
  EXPECT_EQ(c.at("tenant.alpha.attributed_far_bytes").u64(),
            rec.counters.at("tenant.alpha.attributed_far_bytes"));
  EXPECT_DOUBLE_EQ(m.at("gauges").at("tenant.alpha.degrade_level").f64(),
                   0.0);
}

TEST(Diff, TenantLeavesAbsentFromOldBaselineAreAdditionsNotRegressions) {
  // A baseline without the job server's tenant.* counters, diffed against
  // a run that exports them: the new leaves are listed, not counted.
  obs::RunReport a("bench"), b("bench");
  a.add_run("mixed").counters["machine.far_read_bytes"] = 100;
  obs::RunRecord& rb = b.add_run("mixed");
  rb.counters["machine.far_read_bytes"] = 100;
  tenant_metrics(rb);
  const obs::DiffReport d = obs::diff_reports(a.to_json(), b.to_json());
  EXPECT_EQ(d.changed(), 0u);
  bool listed = false;
  for (const auto& p : d.added_in_current)
    listed |= p.find("tenant.alpha.admissions") != std::string::npos;
  EXPECT_TRUE(listed);
}

TEST(Diff, RegressedTenantCounterGatesOnceBaselined) {
  // Once both sides carry tenant counters they compare like any leaf.
  obs::RunReport a("bench"), b("bench");
  a.add_run("mixed").counters["tenant.alpha.attributed_far_bytes"] = 1000;
  b.add_run("mixed").counters["tenant.alpha.attributed_far_bytes"] = 2000;
  EXPECT_EQ(obs::diff_reports(a.to_json(), b.to_json()).changed(), 1u);
}

TEST(Diff, GoogleBenchmarkShapedJsonWorks) {
  // Any document diffs: numeric leaves inside an array of records keyed by
  // "name" compare record by record, whatever the array's order.
  const char* base = R"({"benchmarks": [
    {"name": "BM_X/4", "seconds": 100.0, "iterations": 7},
    {"name": "BM_Y/8", "seconds": 50.0, "iterations": 9}]})";
  const char* worse = R"({"benchmarks": [
    {"name": "BM_Y/8", "seconds": 50.0, "iterations": 9},
    {"name": "BM_X/4", "seconds": 200.0, "iterations": 7}]})";
  const obs::DiffReport d =
      obs::diff_reports(Json::parse(base), Json::parse(worse));
  ASSERT_EQ(d.changed(), 1u);
  EXPECT_EQ(d.entries[0].path, "benchmarks[BM_X/4].seconds");
}

}  // namespace
}  // namespace tlm
