// report_diff — the determinism gate over run-report JSON.
//
// Usage:
//   report_diff --validate report.json
//       Schema-check a tlm.run_report document. Exit 0 when valid, 1 when
//       invalid, 2 on parse/usage errors.
//   report_diff baseline.json current.json [--max-changed=<n>] [--verbose]
//       Compare two reports (any JSON with numeric leaves works). Every
//       `host` section is skipped; every other numeric leaf compares
//       exactly. Exit 1 when more than n leaves (default 0) changed or
//       vanished, 0 otherwise, 2 on parse/usage errors. Leaves only the
//       current report has are listed with --verbose and never counted: the
//       trace-replay CI lane's mapped run adds trace.* leaves to the in-RAM
//       run's report, which must otherwise reproduce bit for bit.
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
      << "  --max-changed=<n>   fail when more than n leaves outside `host`\n"
         "                      changed or vanished (default 0)\n"
      << "  --verbose           also list the leaves only current.json has\n";
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
  bool verbose = false, do_validate = false;
  std::uint64_t max_changed = 0;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--validate") {
      do_validate = true;
    } else if (a == "--verbose") {
      verbose = true;
    } else if (a.rfind("--max-changed=", 0) == 0) {
      try {
        max_changed = std::stoull(a.substr(14));
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
        tlm::obs::diff_reports(baseline, current);
    std::cout << d.format(verbose);
    if (d.changed() > max_changed) {
      std::cout << "FAIL: " << d.changed() << " leaf(s) changed/vanished,"
                << " --max-changed=" << max_changed << "\n";
      return 1;
    }
    std::cout << "OK: " << d.changed() << " changed leaf(s) within"
              << " --max-changed=" << max_changed << "\n";
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 2;
  }
}
