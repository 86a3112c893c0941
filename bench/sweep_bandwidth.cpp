// S1 — the §I/§V claim: "a linear reduction in running time for our
// algorithm when increasing the bandwidth from two to eight times".
//
// Sweeps the bandwidth-expansion factor ρ and reports NMsort's modeled time
// (counting backend across the full sweep; the cycle simulator corroborates
// a subset unless --quick). The GNU baseline is ρ-independent — it never
// touches the scratchpad — and anchors the series.
//
// Verdicts (exit 1 on any NO): NMsort's modeled time never rises with ρ;
// its modeled speedup over GNU rises strictly with ρ; its scratchpad time at
// ρ = 16 is at most 1/8 of that at ρ = 1 (the linear reduction); and,
// outside --quick, the simulated speedup at 8X exceeds the one at 2X.
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
  const std::size_t cores =
      static_cast<std::size_t>(flags.u64("--cores", 8));
  const std::uint64_t n = flags.u64("--n", 1ULL << 20);
  const std::uint64_t near_cap = flags.u64("--near-mb", 1) * MiB;
  const std::uint64_t seed = flags.u64("--seed", 41);

  bench::banner("sweep_bandwidth",
                "§V-B / §I claim: linear time reduction from 2x to 8x "
                "scratchpad bandwidth");
  std::cout << "cores=" << cores << " n=" << n << " near=" << near_cap / MiB
            << "MiB\n";

  const TwoLevelConfig base = analysis::scaled_counting_config(1.0, cores,
                                                               near_cap);
  const analysis::SortRun gnu =
      analysis::run_sort_counting(base, Algorithm::GnuSort, n, seed);

  obs::RunReport report("sweep_bandwidth");
  report.params["cores"] = static_cast<std::uint64_t>(cores);
  report.params["n"] = n;
  report.params["near_capacity"] = near_cap;
  report.params["seed"] = seed;
  {
    obs::RunRecord& rec = report.add_run("gnu.baseline");
    rec.set_config(base);
    rec.set_counting(gnu.counting, base.block_bytes);
    rec.host["wall_seconds"] = gnu.host_seconds;
    rec.gauges["modeled_seconds"] = gnu.modeled_seconds;
  }

  Table t("NMsort time vs bandwidth expansion ρ (GNU baseline = ρ-invariant)");
  t.header({"rho", "NMsort model (s)", "NMsort near time (s)",
            "speedup vs GNU", "sim time (s)", "sim speedup"});

  double prev_time = 0;
  bool monotone = true;
  double prev_speedup = 0;
  bool speedup_rises = true;
  double near_rho1 = 0, near_rho16 = 0;
  double sim_speedup_2x = 0, sim_speedup_8x = 0;
  for (double rho : {1.0, 2.0, 4.0, 8.0, 16.0}) {
    const TwoLevelConfig cfg =
        analysis::scaled_counting_config(rho, cores, near_cap);
    const analysis::SortRun nm =
        analysis::run_sort_counting(cfg, Algorithm::NMsort, n, seed);
    if (!nm.verified) return 1;
    const double speedup = gnu.modeled_seconds / nm.modeled_seconds;

    obs::RunRecord& rec =
        report.add_run("nmsort.rho" + Table::num(rho, 0));
    rec.set_config(cfg);
    rec.set_counting(nm.counting, cfg.block_bytes);
    rec.host["wall_seconds"] = nm.host_seconds;
    rec.gauges["modeled_seconds"] = nm.modeled_seconds;
    rec.gauges["speedup_vs_gnu"] = speedup;

    double near_s = 0;
    for (const auto& ph : nm.counting.phases) near_s += ph.near_s();
    if (rho == 1.0) near_rho1 = near_s;
    if (rho == 16.0) near_rho16 = near_s;

    std::string sim_cell = "-", sim_speedup = "-";
    if (!quick && (rho == 2.0 || rho == 8.0)) {
      // Corroborate the endpoints on the cycle simulator at a smaller size.
      const std::uint64_t sim_n = std::min<std::uint64_t>(n, 640'000);
      const sim::SystemConfig node = sim::SystemConfig::scaled(rho, cores);
      const auto nm_sim = analysis::simulate_sort(
          node, rho, sim_n, near_cap, Algorithm::NMsort, seed);
      const auto gnu_sim = analysis::simulate_sort(
          node, rho, sim_n, near_cap, Algorithm::GnuSort, seed);
      const double sim_x = gnu_sim.report.seconds / nm_sim.report.seconds;
      (rho == 2.0 ? sim_speedup_2x : sim_speedup_8x) = sim_x;
      sim_cell = Table::num(nm_sim.report.seconds, 6);
      sim_speedup = Table::num(sim_x, 3);
    }

    if (prev_time > 0 && nm.modeled_seconds > prev_time * 1.0001)
      monotone = false;
    prev_time = nm.modeled_seconds;
    if (prev_speedup > 0 && speedup <= prev_speedup) speedup_rises = false;
    prev_speedup = speedup;

    t.row({Table::num(rho, 1), Table::num(nm.modeled_seconds, 6),
           Table::num(near_s, 6),
           Table::num(speedup, 3), sim_cell, sim_speedup});
  }
  std::cout << t;
  const bool near_linear = near_rho16 * 8 <= near_rho1;
  bool ok = monotone && speedup_rises && near_linear;
  std::cout << "shape: NMsort time monotonically non-increasing in rho: "
            << (monotone ? "yes" : "NO") << "\n";
  std::cout << "shape: modeled speedup over GNU rises strictly with rho: "
            << (speedup_rises ? "yes" : "NO") << "\n";
  std::cout << "shape: scratchpad time falls at least 8x from rho=1 to "
               "rho=16 (linear reduction, "
            << Table::num(near_rho1 / near_rho16, 1)
            << "x): " << (near_linear ? "yes" : "NO") << "\n";
  if (!quick) {
    const bool sim_rises = sim_speedup_8x > sim_speedup_2x;
    ok = ok && sim_rises;
    std::cout << "shape: simulated speedup at 8X exceeds 2X ("
              << Table::num(sim_speedup_8x, 3) << " vs "
              << Table::num(sim_speedup_2x, 3)
              << "): " << (sim_rises ? "yes" : "NO") << "\n";
  }
  bench::write_report_if_requested(flags, report, wall);
  return ok ? 0 : 1;
}

}  // namespace
}  // namespace tlm

int main(int argc, char** argv) {
  return tlm::run(tlm::bench::Flags(argc, argv));
}
