// Shared plumbing for the bench binaries: tiny flag parser, common
// formatting, and the --json run-report emitter. Every bench prints the
// paper artifact it regenerates plus the knobs it was run with, so
// bench_output.txt is self-describing; with `--json <path>` it additionally
// writes a machine-readable obs::RunReport (the BENCH_*.json artifacts the
// CI perf-regression pipeline diffs against checked-in baselines).
#pragma once

#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <string>
#include <string_view>
#include <vector>

#include "obs/run_report.hpp"

namespace tlm::bench {

class Flags {
 public:
  Flags(int argc, char** argv) {
    for (int i = 1; i < argc; ++i) args_.emplace_back(argv[i]);
  }

  bool has(std::string_view name) const {
    for (const auto& a : args_)
      if (a == name) return true;
    return false;
  }

  // Value flags accept both `--name=value` and `--name value`.
  std::string str(std::string_view name, std::string_view def) const {
    const std::string prefix = std::string(name) + "=";
    for (std::size_t i = 0; i < args_.size(); ++i) {
      if (args_[i].rfind(prefix, 0) == 0)
        return args_[i].substr(prefix.size());
      if (args_[i] == name && i + 1 < args_.size()) return args_[i + 1];
    }
    return std::string(def);
  }

  std::uint64_t u64(std::string_view name, std::uint64_t def) const {
    const std::string v = str(name, "");
    return v.empty() ? def : std::strtoull(v.c_str(), nullptr, 0);
  }

  double f64(std::string_view name, double def) const {
    const std::string v = str(name, "");
    return v.empty() ? def : std::strtod(v.c_str(), nullptr);
  }

 private:
  std::vector<std::string> args_;
};

inline void banner(std::string_view title, std::string_view paper_ref) {
  std::cout << "\n################################################################\n"
            << "# " << title << "\n"
            << "# reproduces: " << paper_ref << "\n"
            << "################################################################\n";
}

// Wall-clock for the report's host.wall_seconds: construct at the top of run().
class WallClock {
 public:
  double seconds() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start_)
        .count();
  }

 private:
  std::chrono::steady_clock::time_point start_ =
      std::chrono::steady_clock::now();
};

// Writes `report` to the path given by --json (if any). Returns false when
// no path was requested; exits the process with status 1 on write failure
// so CI does not mistake a missing artifact for success.
inline bool write_report_if_requested(const Flags& flags,
                                      obs::RunReport& report,
                                      const WallClock& wall) {
  const std::string path = flags.str("--json", "");
  if (path.empty()) return false;
  report.host["wall_seconds"] = wall.seconds();
  try {
    report.write(path);
  } catch (const std::exception& e) {
    std::cerr << "error: failed to write --json report: " << e.what() << "\n";
    std::exit(1);
  }
  std::cout << "wrote run report to " << path << "\n";
  return true;
}

}  // namespace tlm::bench
