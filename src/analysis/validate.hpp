// Cross-backend validation — the abstract's claim that "memory access
// counts from simulations corroborate predicted performance", turned into a
// first-class artifact: run the same algorithm under the analytic counting
// model and the cycle-level simulator across a configuration matrix and
// quantify the agreement.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "analysis/experiment.hpp"

namespace tlm::analysis {

struct ValidationPoint {
  sort::Algorithm algorithm = sort::Algorithm::GnuSort;
  double rho = 2.0;
  std::size_t cores = 4;
  std::uint64_t n = 1 << 16;
  std::uint64_t near_capacity = 256 * KiB;

  // Counting-model predictions.
  double model_seconds = 0;
  std::uint64_t model_far_accesses = 0;
  std::uint64_t model_near_accesses = 0;
  // Cycle-simulator measurements.
  double sim_seconds = 0;
  std::uint64_t sim_far_accesses = 0;
  std::uint64_t sim_near_accesses = 0;

  bool verified = false;  // sorted output checked

  double far_ratio() const {
    return model_far_accesses
               ? static_cast<double>(sim_far_accesses) /
                     static_cast<double>(model_far_accesses)
               : 1.0;
  }
  double near_ratio() const {
    return model_near_accesses
               ? static_cast<double>(sim_near_accesses) /
                     static_cast<double>(model_near_accesses)
               : 1.0;
  }
  double time_ratio() const {
    return model_seconds ? sim_seconds / model_seconds : 1.0;
  }
};

struct ValidationSummary {
  std::vector<ValidationPoint> points;
  double worst_far_ratio_dev = 0;   // max |ratio - 1| over points
  double worst_near_ratio_dev = 0;
  double worst_time_ratio_dev = 0;
  bool all_verified = true;
};

// Runs the default matrix ({GNU, NMsort} × rho {2,8} × cores {4,8}) or the
// caller's points. Access-count agreement is expected within a few percent
// (the sim differs only by cache filtering and residual dirty lines); time
// agreement within a factor ~2 (the analytic model has no queueing).
ValidationSummary validate_backends(std::vector<ValidationPoint> points = {},
                                    std::uint64_t seed = 97);

// The default matrix used when none is supplied.
std::vector<ValidationPoint> default_validation_matrix();

}  // namespace tlm::analysis
