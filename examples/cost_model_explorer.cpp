// Cost-model explorer: evaluate the paper's closed-form bounds and the
// §V-A memory-boundedness predictor for a node you describe on the command
// line — the co-design "what if" tool.
//
//   $ ./examples/cost_model_explorer [--n=1e9] [--z-kib=512] [--m-mib=512]
//                                    [--b=64] [--cores=256] [--bw-gbs=60]
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <string>

#include "common/table.hpp"
#include "common/units.hpp"
#include "memmodel/bounds.hpp"
#include "memmodel/membound.hpp"
#include "memmodel/params.hpp"
#include "sim/system.hpp"

namespace {

double arg(int argc, char** argv, const char* name, double def) {
  const std::string prefix = std::string(name) + "=";
  for (int i = 1; i < argc; ++i)
    if (std::strncmp(argv[i], prefix.c_str(), prefix.size()) == 0)
      return std::strtod(argv[i] + prefix.size(), nullptr);
  return def;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace tlm;
  const double n = arg(argc, argv, "--n", 1e9);
  const double z_kib = arg(argc, argv, "--z-kib", 512);
  const double m_mib = arg(argc, argv, "--m-mib", 512);
  const double b = arg(argc, argv, "--b", 64);
  const double cores = arg(argc, argv, "--cores", 256);
  const double bw = arg(argc, argv, "--bw-gbs", 60) * 1e9;

  model::ScratchpadModel m;
  m.cache_z = static_cast<std::uint64_t>(z_kib * 1024 / 8);
  m.scratch_m = static_cast<std::uint64_t>(m_mib * 1024 * 1024 / 8);
  m.block_b = static_cast<std::uint64_t>(b / 8);
  m.cores_p = m.parallel_p = static_cast<std::uint64_t>(cores);

  std::cout << "node: Z=" << z_kib << "KiB M=" << m_mib << "MiB B=" << b
            << "B cores=" << cores << " far-bw=" << bw / 1e9 << "GB/s, N="
            << n << " 64-bit keys\n";

  Table t("sorting bounds (block transfers; constants = 1)");
  t.header({"rho", "Thm6 DRAM", "Thm6 scratch", "Thm6 total",
            "DRAM-only (Thm1)", "speedup", "parallel steps (Thm10)"});
  for (double rho : {1.0, 2.0, 4.0, 8.0, 16.0}) {
    m.rho = rho;
    m.validate();
    const auto s = model::scratchpad_sort_bound(m, n);
    const auto p = model::parallel_scratchpad_sort_bound(m, n);
    const double base = model::sort_bound_multiway(
        n, static_cast<double>(m.cache_z), static_cast<double>(m.block_b));
    t.row({Table::num(rho, 0),
           Table::count(static_cast<std::uint64_t>(s.dram_transfers)),
           Table::count(static_cast<std::uint64_t>(s.scratch_transfers)),
           Table::count(static_cast<std::uint64_t>(s.total())),
           Table::count(static_cast<std::uint64_t>(base)),
           Table::num(base / s.total(), 3),
           Table::count(static_cast<std::uint64_t>(p.total()))});
  }
  std::cout << t;

  std::cout << "Corollary 7: quicksort-inside-scratchpad optimal once rho >= "
            << Table::num(model::corollary7_min_rho(m), 1) << "\n";

  // §V-A: is this node memory-bandwidth bound for sorting? Each core
  // compares at Fig. 4's clock over its cycles per comparison.
  const sim::CoreConfig core = sim::SystemConfig::paper(1.0).core;
  const model::NodeThroughput node{cores * core.freq_hz / core.cycles_per_op,
                                   bw / 8.0, z_kib * 1024 / b};
  const auto est = model::sort_time_estimate(node, n);
  std::cout << "§V-A predictor: x=" << node.compare_rate
            << " cmp/s, y=" << node.memory_rate << " elem/s, ratio="
            << Table::num(model::boundedness_ratio(node), 2) << " -> "
            << (est.memory_bound ? "memory-bandwidth bound" : "compute bound")
            << " (compute " << Table::num(est.compute_s, 3) << "s vs memory "
            << Table::num(est.memory_s, 3) << "s)\n";
  return 0;
}
