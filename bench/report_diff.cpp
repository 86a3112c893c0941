// report_diff — the regression and determinism gate over run-report JSON.
//
// Usage:
//   report_diff --validate report.json
//       Schema-check a tlm.run_report document. Exit 0 when valid, 1 when
//       invalid, 2 on parse/usage errors.
//   report_diff baseline.json current.json [--threshold=0.05] [--verbose]
//               [--max-changed=<n>]
//       Compare two reports (any JSON with numeric leaves works). Host
//       wall-clock leaves are never compared. Exit 0 when no cost leaf
//       regressed beyond the threshold, 1 on regression, 2 on parse/usage
//       errors.
//
//       --max-changed=<n> adds a determinism gate on top of the regression
//       check: fail when more than n cost leaves changed or vanished, in
//       either direction and by any amount. The trace-replay CI lane runs
//       with --max-changed=0 — mapped-log replay must reproduce the in-RAM
//       report bit for bit (new trace.* leaves in the current report are
//       additions, not changes, and are listed but never counted).
#include <cstdint>
#include <exception>
#include <iostream>
#include <string>
#include <vector>

#include "obs/diff.hpp"
#include "obs/run_report.hpp"

namespace {

int usage() {
  std::cerr
      << "usage: report_diff --validate <report.json>\n"
      << "       report_diff <baseline.json> <current.json> [options]\n"
      << "options:\n"
      << "  --threshold=<frac>  relative cost increase flagged as regression"
         " (default 0.05)\n"
      << "  --verbose           list every compared leaf, not just changes\n"
      << "  --max-changed=<n>   determinism gate: fail when more than n cost\n"
         "                      leaves changed or vanished\n";
  return 2;
}

int validate(const std::string& path) {
  const tlm::obs::Json j = tlm::obs::Json::load_file(path);
  const std::vector<std::string> problems = tlm::obs::validate_report(j);
  if (problems.empty()) {
    std::cout << path << ": valid tlm.run_report v"
              << tlm::obs::RunReport::kSchemaVersion << "\n";
    return 0;
  }
  std::cerr << path << ": INVALID run report:\n";
  for (const auto& p : problems) std::cerr << "  - " << p << "\n";
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> positional;
  tlm::obs::DiffOptions opt;
  bool verbose = false, do_validate = false;
  bool have_max_changed = false;
  std::uint64_t max_changed = 0;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--validate") {
      do_validate = true;
    } else if (a == "--verbose") {
      verbose = true;
    } else if (a.rfind("--threshold=", 0) == 0) {
      try {
        opt.threshold = std::stod(a.substr(12));
      } catch (const std::exception&) {
        std::cerr << "error: bad --threshold value: " << a << "\n";
        return 2;
      }
    } else if (a.rfind("--max-changed=", 0) == 0) {
      try {
        max_changed = std::stoull(a.substr(14));
        have_max_changed = true;
      } catch (const std::exception&) {
        std::cerr << "error: bad --max-changed value: " << a << "\n";
        return 2;
      }
    } else if (a.rfind("--", 0) == 0) {
      std::cerr << "error: unknown option: " << a << "\n";
      return usage();
    } else {
      positional.push_back(a);
    }
  }

  try {
    if (do_validate) {
      if (positional.size() != 1) return usage();
      return validate(positional[0]);
    }
    if (positional.size() != 2) return usage();

    const tlm::obs::Json baseline = tlm::obs::Json::load_file(positional[0]);
    const tlm::obs::Json current = tlm::obs::Json::load_file(positional[1]);
    const tlm::obs::DiffReport d =
        tlm::obs::diff_reports(baseline, current, opt);
    std::cout << d.format(verbose);
    if (have_max_changed) {
      // Vanished leaves count as changes (a replay that drops a counter is
      // not deterministic); leaves only the current report has do not (the
      // mapped path legitimately adds trace.* instrumentation).
      const std::uint64_t changed =
          d.entries.size() + d.missing_in_current.size();
      if (changed > max_changed) {
        std::cout << "FAIL: " << changed << " cost leaf(s) changed/vanished,"
                  << " --max-changed=" << max_changed << "\n";
        return 1;
      }
      std::cout << "determinism: " << changed << " changed leaf(s) within"
                << " --max-changed=" << max_changed << "\n";
    }
    if (d.has_regression()) {
      std::cout << "FAIL: " << d.regressions()
                << " cost leaf(s) regressed beyond "
                << opt.threshold * 100.0 << "%\n";
      return 1;
    }
    std::cout << "OK: no regression beyond " << opt.threshold * 100.0
              << "% across " << d.leaves_compared << " cost leaves\n";
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 2;
  }
}
