// Scratchpad-aware k-means (§VII extension): cluster synthetic blobs with
// the points staged once into near memory vs streamed from DRAM every
// iteration.
//
//   $ ./examples/kmeans_clustering [points] [k] [rho]
#include <cstdlib>
#include <iostream>

#include "common/table.hpp"
#include "kmeans/kmeans.hpp"
#include "sim/system.hpp"

int main(int argc, char** argv) {
  using namespace tlm;
  const std::size_t n =
      argc > 1 ? std::strtoull(argv[1], nullptr, 0) : 50'000;
  const std::size_t k = argc > 2 ? std::strtoull(argv[2], nullptr, 0) : 8;
  const double rho = argc > 3 ? std::strtod(argv[3], nullptr) : 4.0;

  kmeans::KMeansOptions opt;
  opt.k = k;
  opt.dims = 4;
  opt.max_iters = 25;
  opt.seed = 99;

  const std::vector<double> points = kmeans::make_blobs(n, opt.dims, k, 42);
  std::cout << "clustering " << n << " points (" << opt.dims
            << "-dim) into k=" << k << " clusters, rho=" << rho << "\n";

  TwoLevelConfig cfg = test_config(rho);
  cfg.near_capacity = 16 * MiB;
  cfg.far_bw = 2.0 * GB;
  // Fig. 4's core clock, at 8 vectorized multiply-adds a cycle.
  cfg.core_rate = 8.0 * sim::SystemConfig::paper(rho).core.freq_hz;
  cfg.threads = 4;

  Machine far_machine(cfg);
  Machine near_machine(cfg);
  const auto rf = kmeans::kmeans_far(far_machine, points, opt);
  const auto rn = kmeans::kmeans_near(near_machine, points, opt);

  Table t("k-means: DRAM-streaming vs scratchpad-resident");
  t.header({"variant", "iterations", "converged", "inertia/point",
            "modeled ms"});
  t.row({"far (baseline)", std::to_string(rf.iterations),
         rf.converged ? "yes" : "no",
         Table::num(rf.inertia / static_cast<double>(n), 2),
         Table::num(far_machine.elapsed_seconds() * 1e3, 3)});
  t.row({"near (scratchpad)", std::to_string(rn.iterations),
         rn.converged ? "yes" : "no",
         Table::num(rn.inertia / static_cast<double>(n), 2),
         Table::num(near_machine.elapsed_seconds() * 1e3, 3)});
  std::cout << t;

  const bool same = rf.centroids == rn.centroids;
  std::cout << "identical centroid trajectories: " << (same ? "yes" : "NO")
            << "\nspeedup: "
            << Table::num(far_machine.elapsed_seconds() /
                              near_machine.elapsed_seconds(),
                          2)
            << "x (paper §VII: 'a factor of rho faster' when "
               "bandwidth-bound)\n";
  return same ? 0 : 1;
}
