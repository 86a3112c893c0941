// report_diff core: compares two run-report JSON documents and flags
// counter/time regressions beyond a threshold — the gate baseline_gate runs
// against the checked-in baselines.
//
// The comparison is schema-tolerant: both documents are flattened to
// dotted-path numeric leaves (array elements keyed by their "name" field
// when present, so reordering records does not misalign runs), and only
// cost-like leaves — seconds, bytes, blocks, bursts, accesses, events,
// reads/writes, misses, fills, writebacks, messages — participate in the
// regression verdict. Host wall-clock ("wall_seconds"/"host_seconds") is
// noisy across machines and is never compared; host time is the perf
// ledger's (perfledger/). Config/params leaves never regress; differing
// values are reported as context mismatches, which usually mean the two
// reports are not comparable runs.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "obs/json.hpp"

namespace tlm::obs {

struct DiffOptions {
  double threshold = 0.05;    // relative increase flagged as regression
  double abs_epsilon = 1e-12; // |a-b| below this is "equal" (fp noise)
};

struct DiffEntry {
  std::string path;
  double baseline = 0;
  double current = 0;
  // (current - baseline) / |baseline|; +inf-like values are clamped by
  // treating a zero baseline with a nonzero current as a 100% increase.
  double delta_rel = 0;
  bool regression = false;
  bool improvement = false;
};

struct DiffReport {
  std::vector<DiffEntry> entries;  // every compared cost leaf that changed
  std::vector<std::string> context_mismatches;  // config/params differences
  std::vector<std::string> missing_in_current;  // cost leaves that vanished
  std::vector<std::string> added_in_current;    // new cost leaves
  std::size_t leaves_compared = 0;

  bool has_regression() const {
    for (const auto& e : entries)
      if (e.regression) return true;
    return false;
  }
  std::size_t regressions() const {
    std::size_t n = 0;
    for (const auto& e : entries) n += e.regression;
    return n;
  }

  // Human-readable summary; `all` includes unchanged-but-compared context.
  std::string format(bool verbose = false) const;
};

DiffReport diff_reports(const Json& baseline, const Json& current,
                        const DiffOptions& opt = {});

}  // namespace tlm::obs
