#include "analysis/validate.hpp"

#include <algorithm>
#include <cmath>

namespace tlm::analysis {

std::vector<ValidationPoint> default_validation_matrix() {
  std::vector<ValidationPoint> pts;
  for (sort::Algorithm a :
       {sort::Algorithm::GnuSort, sort::Algorithm::NMsort}) {
    for (double rho : {2.0, 8.0}) {
      for (std::size_t cores : {4ULL, 8ULL}) {
        ValidationPoint p;
        p.algorithm = a;
        p.rho = rho;
        p.cores = cores;
        // Chunks must exceed the node's L2 (as they do at paper scale),
        // otherwise the caches legitimately filter scratchpad traffic the
        // analytic model charges and the comparison conflates two effects.
        p.n = 1 << 18;
        p.near_capacity = 1 * MiB;
        pts.push_back(p);
      }
    }
  }
  return pts;
}

ValidationSummary validate_backends(std::vector<ValidationPoint> points,
                                    std::uint64_t seed) {
  if (points.empty()) points = default_validation_matrix();
  ValidationSummary out;
  for (ValidationPoint p : points) {
    const SimulatedSort s =
        simulate_sort(sim::SystemConfig::scaled(p.rho, p.cores), p.rho, p.n,
                      p.near_capacity, p.algorithm, seed);
    p.verified = s.counting.verified;
    p.model_seconds = s.counting.modeled_seconds;
    p.model_far_accesses = s.counting.counting.far_accesses(64);
    p.model_near_accesses = s.counting.counting.near_accesses(64);
    p.sim_seconds = s.report.seconds;
    p.sim_far_accesses = s.report.far.accesses();
    p.sim_near_accesses = s.report.near.accesses();

    out.all_verified &= p.verified;
    out.worst_far_ratio_dev =
        std::max(out.worst_far_ratio_dev, std::abs(p.far_ratio() - 1.0));
    out.worst_near_ratio_dev =
        std::max(out.worst_near_ratio_dev, std::abs(p.near_ratio() - 1.0));
    out.worst_time_ratio_dev =
        std::max(out.worst_time_ratio_dev, std::abs(p.time_ratio() - 1.0));
    out.points.push_back(p);
  }
  return out;
}

}  // namespace tlm::analysis
