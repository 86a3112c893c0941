// S2 — §V-B: "sorting is memory bound if the number of cores is 256 and not
// memory bound when that number is reduced to 128", and the co-design
// question of how many cores a node needs before a scratchpad pays off.
//
// Sweeps the core count at the paper's fixed per-core rate and fixed memory
// bandwidth (this sweep intentionally does NOT rescale bandwidth with the
// core count — that is the whole point) and reports the §V-A predictor next
// to the counting backend's compute/memory split and the NMsort advantage.
#include <cmath>
#include <iostream>

#include "analysis/experiment.hpp"
#include "bench_util.hpp"
#include "common/table.hpp"
#include "memmodel/membound.hpp"

namespace tlm {
namespace {

using sort::Algorithm;

int run(const bench::Flags& flags) {
  const bench::WallClock wall;
  // Large enough that per-thread work is meaningful at 512 cores; the
  // counting backend handles this size in well under a second per run.
  const std::uint64_t n = flags.u64("--n", 4'000'000);
  const std::uint64_t near_cap = flags.u64("--near-mb", 16) * MiB;
  const double rho = flags.f64("--rho", 4.0);
  const std::uint64_t seed = flags.u64("--seed", 43);

  bench::banner("sweep_cores",
                "§V-B observation: 256 cores memory-bound, 128 not; §V-A "
                "min-core estimate");

  // The paper's node, Fig. 4: fixed ~60 GB/s STREAM, 1.7 GHz cores retiring
  // ~8 machine ops per comparison, Z ≈ 1e6 blocks.
  const TwoLevelConfig fig4 = analysis::counting_config(
      sim::SystemConfig::paper(rho), rho, near_cap);
  const double per_core = fig4.core_rate;
  const double y_elems = fig4.far_bw / 8.0;  // 64-bit elements per second
  const double z_blocks = 1e6;
  std::cout << "predicted min cores for memory-boundedness (§V-A, using the "
               "*optimal* transfer volume): "
            << model::min_cores_for_memory_bound(per_core, y_elems, z_blocks)
            << "\n"
            << "note: real sorts move (1+passes)x the optimal volume, so "
               "the measured flip comes at proportionally fewer cores\n";

  Table t("core-count sweep at fixed memory bandwidth (rho=" +
          Table::num(rho, 0) + ")");
  t.header({"cores", "measured regime", "GNU compute (s)", "GNU memory (s)",
            "GNU model (s)", "NMsort model (s)", "NMsort advantage"});

  obs::RunReport report("sweep_cores");
  report.params["n"] = n;
  report.params["near_capacity"] = near_cap;
  report.params["rho"] = rho;
  report.params["seed"] = seed;

  bool crossover_seen = false;
  double prev_adv = 0;
  bool first_bound = false, last_bound = false;
  for (std::size_t cores : {32ULL, 64ULL, 128ULL, 256ULL, 512ULL}) {
    // Fig. 4's node at `cores`: far bandwidth stays fixed, since the sweep
    // varies compute only.
    TwoLevelConfig cfg = analysis::counting_config(
        sim::SystemConfig::paper(rho, cores), rho, near_cap);
    // 4M keys on 128 KiB keep N : Z near the paper's 10M keys on 512 KiB.
    cfg.cache_bytes = 128 * KiB;

    const analysis::SortRun gnu =
        analysis::run_sort_counting(cfg, Algorithm::GnuSort, n, seed);
    const analysis::SortRun nm =
        analysis::run_sort_counting(cfg, Algorithm::NMsort, n, seed);
    if (!gnu.verified || !nm.verified) return 1;

    double gnu_comp = 0, gnu_mem = 0;
    for (const auto& ph : gnu.counting.phases) {
      gnu_comp += ph.compute_s();
      gnu_mem += ph.far_s() + ph.near_s();
    }
    const bool bound = gnu_mem > gnu_comp;
    if (prev_adv == 0) first_bound = bound;
    last_bound = bound;
    const double adv = gnu.modeled_seconds / nm.modeled_seconds;
    if (adv > 1.05 && prev_adv <= 1.05 && prev_adv > 0) crossover_seen = true;
    prev_adv = adv;

    for (const auto* r : {&gnu, &nm}) {
      obs::RunRecord& rec = report.add_run(
          std::string(r == &gnu ? "gnu" : "nmsort") + ".cores" +
          std::to_string(cores));
      rec.set_config(cfg);
      rec.set_counting(r->counting, cfg.block_bytes);
      rec.host["wall_seconds"] = r->host_seconds;
      rec.gauges["modeled_seconds"] = r->modeled_seconds;
      rec.gauges["memory_bound"] = bound ? 1.0 : 0.0;
    }

    t.row({std::to_string(cores), bound ? "memory-bound" : "compute-bound",
           Table::num(gnu_comp, 6), Table::num(gnu_mem, 6),
           Table::num(gnu.modeled_seconds, 6),
           Table::num(nm.modeled_seconds, 6), Table::num(adv, 3)});
  }
  std::cout << t;
  std::cout << "shape: NMsort's advantage appears once the node becomes "
               "memory-bound (it cannot beat a compute-bound baseline)\n";
  // §V-B's claim as gates: the smallest node is compute-bound, the largest
  // memory-bound, and NMsort's advantage crosses 1.05 inside the sweep.
  const bool flips = !first_bound && last_bound;
  std::cout << "shape: regime flips from compute- to memory-bound inside "
               "the sweep: "
            << (flips ? "yes" : "NO") << "\n";
  std::cout << "shape: advantage crossover observed in sweep: "
            << (crossover_seen ? "yes" : "NO") << "\n";
  bench::write_report_if_requested(flags, report, wall);
  return flips && crossover_seen ? 0 : 1;
}

}  // namespace
}  // namespace tlm

int main(int argc, char** argv) {
  return tlm::run(tlm::bench::Flags(argc, argv));
}
