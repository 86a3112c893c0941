// Golden simulator test: replays a fixed set of captured traces on the
// scaled node and compares every SimReport counter, the latency histogram's
// count/p50/p95/p99 and each core's finish time against
// tests/data/sim_golden.json, doubles by bit pattern.
//
// The traces cover the paths a run report does not pin: GNU sort and NMsort
// 8X (caches, NoC, both memories), staged k-means with overlap_dma (the DMA
// engine and its completions) and the same k-means trace under a seeded
// fault schedule on the sim's stall and retry sites. One more GNU sort runs
// on 16 cores, so four L2s talk to the memories through four group endpoints.
//
// On a mismatch the test writes the values it computed to
// sim_golden.actual.json in its working directory. A change that moves the
// simulation on purpose regenerates the golden file by copying that file
// over tests/data/sim_golden.json.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdio>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "analysis/experiment.hpp"
#include "common/faults.hpp"
#include "kmeans/kmeans.hpp"
#include "obs/json.hpp"
#include "scratchpad/machine.hpp"
#include "sim/system.hpp"
#include "trace/capture.hpp"

namespace tlm::sim {
namespace {

constexpr std::size_t kCores = 4;
constexpr std::uint64_t kNearCap = 1 << 20;

using Entries = std::vector<std::pair<std::string, double>>;

// Per-core finish times from the SST-style dump, printed at full precision
// so every double round-trips exactly.
void add_finish_times(const System& sys, Entries& out) {
  std::ostringstream os;
  os.precision(17);
  sys.print_stats(os);
  std::istringstream is(os.str());
  std::string line;
  std::size_t core = 0;
  while (std::getline(is, line)) {
    if (line.rfind("core.", 0) != 0) continue;
    const std::size_t at = line.find(" finish_s=");
    ASSERT_NE(at, std::string::npos) << line;
    out.emplace_back("core." + std::to_string(core++) + ".finish_s",
                     std::stod(line.substr(at + 10)));
  }
  EXPECT_EQ(core, sys.config().cores);
}

Entries replay(const SystemConfig& cfg, const trace::TraceSource& trace) {
  System sys(cfg, trace);
  const SimReport r = sys.run();
  Entries out = r.counters();
  out.emplace_back("latency.count",
                   static_cast<double>(r.latency_hist.count()));
  out.emplace_back("latency.p50_s", r.latency_hist.p50());
  out.emplace_back("latency.p95_s", r.latency_hist.p95());
  out.emplace_back("latency.p99_s", r.latency_hist.p99());
  add_finish_times(sys, out);
  return out;
}

Entries sort_trace(sort::Algorithm a, double rho,
                   std::size_t cores = kCores) {
  const TwoLevelConfig cfg =
      analysis::scaled_counting_config(rho, cores, kNearCap);
  const analysis::CaptureRun cap =
      analysis::capture_sort_trace(cfg, a, 1 << 14, 20150525);
  EXPECT_TRUE(cap.counting.verified);
  return replay(SystemConfig::scaled(rho, cores), cap.trace);
}

// Staged k-means with its points at 2x a 256 KiB scratchpad: the Stager posts
// DMA descriptors, which the trace cores hand to the engine.
trace::TraceBuffer kmeans_trace() {
  TwoLevelConfig cfg =
      analysis::scaled_counting_config(4.0, kCores, 256 << 10);
  cfg.overlap_dma = true;
  kmeans::KMeansOptions opt;
  opt.k = 4;
  opt.dims = 4;
  opt.max_iters = 2;
  opt.tol = 0;
  opt.seed = 7;
  const std::size_t n = 2 * cfg.near_capacity / (opt.dims * sizeof(double));
  const std::vector<double> points =
      kmeans::make_blobs(n, opt.dims, opt.k, 7);
  trace::TraceBuffer tb(kCores);
  Machine m(cfg, &tb);
  kmeans::kmeans_staged(m, std::span<const double>(points), opt);
  m.end_phase();
  return tb;
}

double lookup(const Entries& e, const std::string& name) {
  for (const auto& [k, v] : e)
    if (k == name) return v;
  ADD_FAILURE() << "no entry " << name;
  return 0;
}

std::string bits_of(double v) {
  char buf[24];
  std::snprintf(
      buf, sizeof buf, "0x%016llx",
      static_cast<unsigned long long>(std::bit_cast<std::uint64_t>(v)));
  return buf;
}

obs::Json to_json(const std::vector<std::pair<std::string, Entries>>& runs) {
  obs::Json doc = obs::Json::object();
  doc["format"] = "tlm.sim_golden v1";
  obs::Json& traces = doc["traces"];
  for (const auto& [name, entries] : runs) {
    obs::Json& t = traces[name];
    for (const auto& [k, v] : entries) {
      obs::Json& e = t[k];
      e["bits"] = bits_of(v);
      e["value"] = v;
    }
  }
  return doc;
}

TEST(SimGolden, ReportsMatchCheckedInGolden) {
  std::vector<std::pair<std::string, Entries>> runs;
  runs.emplace_back("gnu_sort",
                    sort_trace(sort::Algorithm::GnuSort, 2.0));
  runs.emplace_back("nmsort_8x",
                    sort_trace(sort::Algorithm::NMsort, 8.0));
  runs.emplace_back("gnu_sort_16_cores",
                    sort_trace(sort::Algorithm::GnuSort, 2.0, 16));

  const trace::TraceBuffer km = kmeans_trace();
  const SystemConfig km_node = SystemConfig::scaled(4.0, kCores);
  runs.emplace_back("kmeans_overlap_dma", replay(km_node, km));

  FaultInjector fi(31);
  fi.arm(fault_site::kSimFarStall, FaultSchedule::prob(0.01, 2e-7));
  fi.arm(fault_site::kSimDmaStall, FaultSchedule::prob(0.5, 1e-6));
  fi.arm(fault_site::kSimDmaFail, FaultSchedule::prob(0.05));
  SystemConfig chaos_node = km_node;
  chaos_node.far.faults = &fi;
  chaos_node.dma.faults = &fi;
  runs.emplace_back("kmeans_fault_seed_31", replay(chaos_node, km));

  // Every access is timed exactly once.
  for (const auto& [name, entries] : runs)
    EXPECT_EQ(lookup(entries, "latency.count"),
              lookup(entries, "cores.loads") + lookup(entries, "cores.stores"))
        << name;

  // The golden only pins these paths if they were actually taken.
  EXPECT_GT(lookup(runs[2].second, "core.15.finish_s"), 0.0);
  const Entries& clean = runs[3].second;
  EXPECT_GT(lookup(clean, "dma.descriptors"), 0.0);
  const Entries& chaos = runs[4].second;
  EXPECT_GT(lookup(chaos, "far.stalls"), 0.0);
  EXPECT_GT(lookup(chaos, "dma.stalls"), 0.0);
  EXPECT_GT(lookup(chaos, "dma.retries"), 0.0);

  const obs::Json golden =
      obs::Json::load_file(TLM_TEST_DATA_DIR "/sim_golden.json");
  const obs::Json& traces = golden.at("traces");
  std::size_t mismatches = 0;
  for (const auto& [name, entries] : runs) {
    if (!traces.contains(name)) {
      ADD_FAILURE() << "golden has no trace " << name;
      ++mismatches;
      continue;
    }
    const obs::Json& want = traces.at(name);
    EXPECT_EQ(want.obj().size(), entries.size()) << name;
    for (const auto& [k, v] : entries) {
      if (!want.contains(k)) {
        ADD_FAILURE() << name << ": golden has no entry " << k;
        ++mismatches;
        continue;
      }
      const obs::Json& w = want.at(k);
      if (w.at("bits").str() != bits_of(v)) {
        ADD_FAILURE() << name << "." << k << ": golden "
                      << w.at("value").f64() << " (" << w.at("bits").str()
                      << "), got " << v << " (" << bits_of(v) << ")";
        ++mismatches;
      }
    }
  }
  if (mismatches > 0 || HasFailure()) {
    to_json(runs).write_file("sim_golden.actual.json");
    ADD_FAILURE() << "wrote the computed values to sim_golden.actual.json";
  }
}

}  // namespace
}  // namespace tlm::sim
