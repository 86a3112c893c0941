// Table I — SST simulation results for various scratchpad near-memory
// bandwidths: simulated time, scratchpad accesses, and DRAM accesses for
// the GNU-sort baseline and NMsort at 2x/4x/8x bandwidth expansion.
//
// The run captures each algorithm's memory-op trace through the Machine
// (the Ariel role) and replays it on the cycle-level system of Figs. 5/7.
// By default that node is sim::SystemConfig::scaled: the paper's 256-core
// node shrunk to a simulable core count with the compute-to-bandwidth ratio
// x:y preserved (§V-A's boundedness predicate is scale-free). --full runs
// SystemConfig::paper, Fig. 4's node, at 256 cores and 10M keys (slow).
// --quick runs the analytic counting backend only. Both clocks read the
// same node (analysis::counting_config).
//
// --trace=mapped routes the capture through the out-of-core MappedLog sink
// (per-thread mmap'd logs under --trace-dir) and replays it with the
// parallel ShardedReplay loader instead of the in-RAM TraceBuffer; the
// trace-replay CI lane diffs the two paths' reports and requires zero
// changed counters.
//
// Expected shape (paper, Table I): NMsort beats GNU sort in simulated time,
// the gap grows with the bandwidth expansion (>25% at 8x), NMsort issues
// roughly half the DRAM accesses, and only NMsort touches the scratchpad.
#include <sys/stat.h>

#include <iostream>

#include "analysis/experiment.hpp"
#include "bench_util.hpp"
#include "common/table.hpp"

namespace tlm {
namespace {

using sort::Algorithm;

int run(const bench::Flags& flags) {
  const bench::WallClock wall;
  const bool quick = flags.has("--quick");
  const bool full = flags.has("--full");
  const std::size_t cores =
      static_cast<std::size_t>(flags.u64("--cores", full ? 256 : 8));
  // 640K keys give the scaled node the paper's N:Z ratio: 320 formation
  // runs, i.e. the multi-pass regime the 10M-key/512KB-L2 node sits in.
  const std::uint64_t n = flags.u64("--n", full ? 10'000'000 : 640'000);
  const std::uint64_t near_cap =
      flags.u64("--near-mb", full ? 512 : 1) * MiB;
  const std::uint64_t seed = flags.u64("--seed", 20150525);
  const bool mapped = flags.str("--trace", "ram") == "mapped";
  const std::string trace_dir =
      flags.str("--trace-dir", "/tmp/tlm_table1_traces");
  if (mapped) ::mkdir(trace_dir.c_str(), 0755);  // per-run subdirs below

  bench::banner("table1_sst_sort", "Table I (SST simulation results)");
  std::cout << "cores=" << cores << " n=" << n << " near=" << near_cap / MiB
            << "MiB backend=" << (quick ? "counting" : "cycle-sim+counting")
            << (mapped ? " trace=mapped(" + trace_dir + ")" : "") << "\n";

  struct Col {
    const char* name;
    Algorithm algo;
    double rho;
  };
  const Col cols[] = {
      {"GNU Sort", Algorithm::GnuSort, 2.0},
      {"NMsort (2X)", Algorithm::NMsort, 2.0},
      {"NMsort (4X)", Algorithm::NMsort, 4.0},
      {"NMsort (8X)", Algorithm::NMsort, 8.0},
  };

  Table t("Table I — simulated sort on the two-level memory node");
  t.header({"metric", "GNU Sort", "NMsort (2X)", "NMsort (4X)",
            "NMsort (8X)"});

  std::vector<double> sim_s, model_s;
  std::vector<std::uint64_t> near_acc, far_acc;
  std::vector<std::uint64_t> near_acc_model, far_acc_model;
  bool all_verified = true;

  obs::RunReport report("table1_sst_sort");
  report.params["cores"] = static_cast<std::uint64_t>(cores);
  report.params["n"] = n;
  report.params["near_capacity"] = near_cap;
  report.params["seed"] = seed;
  report.params["backend"] = quick ? "counting" : "cycle-sim+counting";

  for (const Col& c : cols) {
    obs::RunRecord& rec = report.add_run(c.name);
    const sim::SystemConfig node =
        full ? sim::SystemConfig::paper(c.rho, cores)
             : sim::SystemConfig::scaled(c.rho, cores);
    const TwoLevelConfig cfg =
        analysis::counting_config(node, c.rho, near_cap);
    rec.set_config(cfg);
    if (quick) {
      const analysis::SortRun r =
          analysis::run_sort_counting(cfg, c.algo, n, seed);
      all_verified &= r.verified;
      sim_s.push_back(r.modeled_seconds);
      model_s.push_back(r.modeled_seconds);
      near_acc.push_back(r.counting.near_accesses(cfg.block_bytes));
      far_acc.push_back(r.counting.far_accesses(cfg.block_bytes));
      near_acc_model.push_back(near_acc.back());
      far_acc_model.push_back(far_acc.back());
      rec.set_counting(r.counting, cfg.block_bytes);
      rec.host["wall_seconds"] = r.host_seconds;
      rec.gauges["verified"] = r.verified ? 1.0 : 0.0;
      obs::export_stats(r.faults, rec);
    } else {
      analysis::SortRun counting;
      sim::SimReport sim;
      if (mapped) {
        const analysis::MappedSimulatedSort s = analysis::simulate_sort_mapped(
            node, c.rho, n, near_cap, c.algo, seed,
            trace_dir + "/run-" + std::to_string(report.runs.size()));
        counting = s.counting;
        sim = s.report;
        obs::export_stats(s.log, rec);
        obs::export_stats(s.replay, rec);
        std::cout << "  [" << c.name << "] spilled "
                  << s.log.file_bytes / 1024 << " KiB ("
                  << Table::num(s.log.bytes_per_op(), 2)
                  << " B/op), replayed " << s.replay.ops << " records\n";
      } else {
        analysis::SimulatedSort s =
            analysis::simulate_sort(node, c.rho, n, near_cap, c.algo, seed);
        counting = std::move(s.counting);
        sim = s.report;
      }
      all_verified &= counting.verified;
      sim_s.push_back(sim.seconds);
      model_s.push_back(counting.modeled_seconds);
      near_acc.push_back(sim.near.accesses());
      far_acc.push_back(sim.far.accesses());
      near_acc_model.push_back(counting.counting.near_accesses(64));
      far_acc_model.push_back(counting.counting.far_accesses(64));
      rec.set_counting(counting.counting, 64);
      rec.set_sim(sim);
      rec.host["wall_seconds"] = counting.host_seconds;
      rec.gauges["verified"] = counting.verified ? 1.0 : 0.0;
      obs::export_stats(counting.faults, rec);
      std::cout << "  [" << c.name << "] simulated (" << sim.events
                << " events), sorted output verified="
                << (counting.verified ? "yes" : "NO") << "\n";
    }
  }

  auto row_of = [&](const char* name, auto&& fmt, const auto& v) {
    std::vector<std::string> cells{name};
    for (const auto& x : v) cells.push_back(fmt(x));
    t.row(std::move(cells));
  };
  row_of("Sim Time (s)", [](double x) { return Table::num(x, 6); }, sim_s);
  row_of("Scratchpad Accesses",
         [](std::uint64_t x) { return Table::count(x); }, near_acc);
  row_of("DRAM Accesses", [](std::uint64_t x) { return Table::count(x); },
         far_acc);
  row_of("Counting-model Time (s)",
         [](double x) { return Table::num(x, 6); }, model_s);
  std::cout << t;

  // Shape checks against the paper's qualitative claims.
  const double gnu = sim_s[0];
  std::cout << "shape: all outputs verified sorted: "
            << (all_verified ? "yes" : "NO") << "\n";
  std::cout << "shape: NMsort speedup over GNU sort at 2X/4X/8X: "
            << Table::num(gnu / sim_s[1], 3) << " / "
            << Table::num(gnu / sim_s[2], 3) << " / "
            << Table::num(gnu / sim_s[3], 3)
            << "  (paper: 1.19 / 1.29 / 1.40)\n";
  const bool speedup_rises = sim_s[1] < gnu && sim_s[2] < sim_s[1] &&
                             sim_s[3] < sim_s[2];
  std::cout << "shape: NMsort beats GNU sort at every bandwidth and the "
               "speedup rises with rho: "
            << (speedup_rises ? "yes" : "NO") << "\n";
  std::cout << "shape: NMsort(8X) wall-clock advantage: "
            << Table::pct(1.0 - sim_s[3] / gnu)
            << "  (paper: >25%)\n";
  std::cout << "shape: DRAM access ratio GNU/NMsort(8X): "
            << Table::num(static_cast<double>(far_acc[0]) /
                              static_cast<double>(far_acc[3]),
                          2)
            << "  (paper: 2.49)\n";
  std::cout << "shape: GNU sort scratchpad accesses: " << near_acc[0]
            << " (paper: 0)\n";
  bench::write_report_if_requested(flags, report, wall);
  return all_verified && speedup_rises ? 0 : 1;
}

}  // namespace
}  // namespace tlm

int main(int argc, char** argv) {
  return tlm::run(tlm::bench::Flags(argc, argv));
}
