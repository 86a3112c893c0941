// Cycle-level simulation walkthrough: capture an NMsort run as an
// Ariel-style trace and replay it on the Fig. 5/7 node model.
//
//   $ ./examples/nmsort_simulation [n] [rho] [cores]
//
// Shows the full co-design loop the paper describes: algorithm -> trace ->
// architectural simulation -> Table I metrics, plus the cross-check against
// the analytic counting backend.
#include <cstdlib>
#include <iostream>

#include "analysis/experiment.hpp"
#include "common/table.hpp"

int main(int argc, char** argv) {
  using namespace tlm;
  const std::uint64_t n =
      argc > 1 ? std::strtoull(argv[1], nullptr, 0) : 200'000;
  const double rho = argc > 2 ? std::strtod(argv[2], nullptr) : 4.0;
  const std::size_t cores =
      argc > 3 ? std::strtoull(argv[3], nullptr, 0) : 8;

  std::cout << "capturing NMsort trace: n=" << n << " rho=" << rho
            << " cores=" << cores << "\n";

  // One call runs the algorithm natively, records its memory behaviour,
  // builds the scaled node (x:y ratio of the paper's 256-core machine), and
  // replays the trace cycle-level.
  const analysis::SimulatedSort s = analysis::simulate_sort(
      sim::SystemConfig::scaled(rho, cores), rho, n,
      /*near_capacity=*/1 * MiB, sort::Algorithm::NMsort, /*seed=*/7);

  std::cout << "sorted output verified: "
            << (s.counting.verified ? "yes" : "NO") << "\n";

  Table t("cycle-level replay vs analytic counting model");
  t.header({"metric", "cycle sim", "counting model"});
  t.row({"time (ms)", Table::num(s.report.seconds * 1e3, 3),
         Table::num(s.counting.modeled_seconds * 1e3, 3)});
  t.row({"DRAM accesses (64B lines)", Table::count(s.report.far.accesses()),
         Table::count(s.counting.counting.far_accesses(64))});
  t.row({"scratchpad accesses", Table::count(s.report.near.accesses()),
         Table::count(s.counting.counting.near_accesses(64))});
  t.row({"DES events", Table::count(s.report.events), "-"});
  t.row({"L1 hit rate", Table::pct(s.report.l1.hit_rate()), "-"});
  t.row({"L2 hit rate", Table::pct(s.report.l2.hit_rate()), "-"});
  t.row({"barrier epochs", Table::count(s.report.barrier_epochs), "-"});
  std::cout << t;

  std::cout << "request latency: mean "
            << Table::num(s.report.access_latency.mean() * 1e9, 0)
            << " ns, p50 " << Table::num(s.report.latency_hist.p50() * 1e9, 0)
            << " ns, p95 " << Table::num(s.report.latency_hist.p95() * 1e9, 0)
            << " ns, p99 " << Table::num(s.report.latency_hist.p99() * 1e9, 0)
            << " ns\n";
  std::cout << "far row-buffer hit rate: "
            << Table::pct(static_cast<double>(s.report.far.row_hits) /
                          std::max<std::uint64_t>(
                              1, s.report.far.row_hits +
                                     s.report.far.row_misses))
            << "\n";
  return s.counting.verified ? 0 : 1;
}
