// S4b — the abstract's corroboration claim: "Memory access counts from
// simulations corroborate predicted performance." Runs the same sorts under
// the analytic counting model and the cycle-level simulator across a
// configuration matrix and reports the agreement.
#include <iostream>

#include "analysis/validate.hpp"
#include "bench_util.hpp"
#include "common/table.hpp"

namespace tlm {
namespace {

int run(const bench::Flags& flags) {
  bench::banner("validate_backends",
                "abstract: simulation access counts corroborate the "
                "analytic model's predictions");

  const analysis::ValidationSummary s =
      analysis::validate_backends({}, flags.u64("--seed", 97));

  Table t("counting model vs cycle simulator");
  t.header({"algorithm", "rho", "cores", "far acc (model)", "far acc (sim)",
            "ratio", "near ratio", "time model (ms)", "time sim (ms)"});
  for (const auto& p : s.points) {
    t.row({sort::to_string(p.algorithm), Table::num(p.rho, 0),
           std::to_string(p.cores), Table::count(p.model_far_accesses),
           Table::count(p.sim_far_accesses), Table::num(p.far_ratio(), 3),
           Table::num(p.near_ratio(), 3),
           Table::num(p.model_seconds * 1e3, 3),
           Table::num(p.sim_seconds * 1e3, 3)});
  }
  std::cout << t;

  const bool counts_ok =
      s.worst_far_ratio_dev < 0.10 && s.worst_near_ratio_dev < 0.15;
  const bool time_ok = s.worst_time_ratio_dev < 1.0;
  std::cout << "shape: all outputs verified sorted: "
            << (s.all_verified ? "yes" : "NO") << "\n";
  std::cout << "shape: access counts agree (far 10%, near 15%) (worst far dev "
            << Table::pct(s.worst_far_ratio_dev) << ", near "
            << Table::pct(s.worst_near_ratio_dev)
            << "): " << (counts_ok ? "yes" : "NO") << "\n";
  std::cout << "shape: modeled time within 2x of simulated (worst dev "
            << Table::pct(s.worst_time_ratio_dev)
            << "): " << (time_ok ? "yes" : "NO") << "\n";
  return (s.all_verified && counts_ok && time_ok) ? 0 : 1;
}

}  // namespace
}  // namespace tlm

int main(int argc, char** argv) {
  return tlm::run(tlm::bench::Flags(argc, argv));
}
