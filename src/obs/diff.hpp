// report_diff core: compares two run-report JSON documents leaf by leaf —
// the gate baseline_gate and the determinism CI lanes run.
//
// Both documents are flattened to dotted-path numeric leaves (array
// elements keyed by their "name" field when present, so reordering records
// does not misalign runs). Every `host` object is skipped by path: it holds
// what the run measured on the host (wall-clock, phase host seconds,
// host-timed gauges), and host time is the perf ledger's (perfledger/).
// Every other leaf is deterministic at a fixed seed and compares exactly: a
// leaf that differs or vanished is a change. A leaf only the current report
// has is listed, not counted, since a run may add instrumentation (the
// mapped-trace lane adds trace.* leaves).
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "obs/json.hpp"

namespace tlm::obs {

struct DiffEntry {
  std::string path;
  double baseline = 0;
  double current = 0;
};

struct DiffReport {
  std::vector<DiffEntry> entries;               // leaves whose value changed
  std::vector<std::string> missing_in_current;  // leaves that vanished
  std::vector<std::string> added_in_current;    // leaves only current has
  std::size_t leaves_compared = 0;

  // The count report_diff --max-changed gates: leaves that changed or
  // vanished. Leaves only the current report has are not counted.
  std::size_t changed() const {
    return entries.size() + missing_in_current.size();
  }

  // Human-readable summary: every changed and vanished leaf; `verbose`
  // also lists the leaves only the current report has.
  std::string format(bool verbose = false) const;
};

DiffReport diff_reports(const Json& baseline, const Json& current);

}  // namespace tlm::obs
