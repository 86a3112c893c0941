// tlm_racecheck — offline happens-before race/fence analysis of trace logs.
//
// Modes (exactly one source):
//   --trace-dir=DIR     analyze a MappedLog capture via ShardedReplay
//                       (--jobs=N reads the logs on N workers)
//   --capture=ALG       capture a sort run in-process and analyze it
//                       (--n, --seed, --threads, --near-kb, --rho,
//                        --overlap-dma, --chaos-seed reproduce the CI
//                        chaos schedules); ALG is a sort catalogue name
//                       (sort/catalogue.hpp), which the usage text lists
//
// The injected-bug fixtures for every detector live in
// tests/test_racecheck.cpp.
//
// Output: human-readable digest on stdout; --json[=PATH] additionally
// emits the tlm.racecheck v1 report. Exit codes: 0 clean (or --warn-only),
// 1 findings, 2 usage/load errors.
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <iostream>
#include <optional>
#include <string>

#include "analysis/experiment.hpp"
#include "analyze/racecheck.hpp"
#include "common/faults.hpp"
#include "common/thread_pool.hpp"
#include "obs/json.hpp"
#include "sort/catalogue.hpp"
#include "trace/capture.hpp"
#include "trace/replay.hpp"

namespace {

using namespace tlm;

struct Cli {
  std::string trace_dir, capture, json_path;
  bool json = false, warn_only = false;
  std::size_t jobs = 1;  // log readers; 0 or 1 reads inline
  std::uint64_t n = 100'000, seed = 2026;
  std::size_t threads = 4;
  std::uint64_t near_kb = 256;
  double rho = 4.0;
  bool overlap_dma = false;
  std::optional<unsigned> chaos_seed;
  std::size_t max_findings = 100;
};

bool parse_flag(const char* arg, const char* name, std::string* out) {
  const std::size_t n = std::strlen(name);
  if (std::strncmp(arg, name, n) != 0) return false;
  if (arg[n] == '=') {
    *out = arg + n + 1;
    return true;
  }
  if (arg[n] == '\0') {
    *out = "";
    return true;
  }
  return false;
}

int usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s (--trace-dir=DIR [--jobs=N] |\n"
      "           --capture=ALG [--n=N] [--seed=S] [--threads=T]\n"
      "             [--near-kb=KB] [--rho=R] [--overlap-dma]\n"
      "             [--chaos-seed=S])\n"
      "          [--json[=PATH]] [--warn-only] [--max-findings=N]\n"
      "  ALG:",
      argv0);
  const char* sep = " ";
  for (const sort::Algorithm a : sort::kAlgorithms) {
    std::fprintf(stderr, "%s%s", sep, sort::to_string(a));
    sep = " | ";
  }
  std::fprintf(stderr, "\n");
  return 2;
}

// Mirror of the chaos CI schedule (tests/test_chaos.cpp arm_mixed_chaos):
// probabilistic near-alloc denial, DMA failure, DMA + far stalls.
void arm_mixed_chaos(FaultInjector& fi) {
  fi.arm(fault_site::kNearAlloc, FaultSchedule::prob(0.25));
  fi.arm(fault_site::kDmaFail, FaultSchedule::prob(0.05));
  fi.arm(fault_site::kDmaStall, FaultSchedule::prob(0.1, 1e-6));
  fi.arm(fault_site::kFarStall, FaultSchedule::prob(0.002, 5e-7));
}

int report_and_exit(const analyze::RacecheckReport& rep, const Cli& cli) {
  analyze::print(rep, std::cout);
  if (cli.json) {
    const obs::Json j = analyze::to_json(rep);
    if (cli.json_path.empty()) {
      std::cout << j.dump(2) << "\n";
    } else {
      j.write_file(cli.json_path);
      std::printf("racecheck: report written to %s\n",
                  cli.json_path.c_str());
    }
  }
  if (rep.clean()) return 0;
  return cli.warn_only ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  Cli cli;
  for (int i = 1; i < argc; ++i) {
    const char* a = argv[i];
    std::string v;
    if (parse_flag(a, "--trace-dir", &v)) {
      cli.trace_dir = v;
    } else if (parse_flag(a, "--capture", &v)) {
      cli.capture = v;
    } else if (parse_flag(a, "--jobs", &v)) {
      cli.jobs = std::stoul(v);
    } else if (parse_flag(a, "--n", &v)) {
      cli.n = std::stoull(v);
    } else if (parse_flag(a, "--seed", &v)) {
      cli.seed = std::stoull(v);
    } else if (parse_flag(a, "--threads", &v)) {
      cli.threads = std::stoul(v);
    } else if (parse_flag(a, "--near-kb", &v)) {
      cli.near_kb = std::stoull(v);
    } else if (parse_flag(a, "--rho", &v)) {
      cli.rho = std::stod(v);
    } else if (std::strcmp(a, "--overlap-dma") == 0) {
      cli.overlap_dma = true;
    } else if (parse_flag(a, "--chaos-seed", &v)) {
      cli.chaos_seed = static_cast<unsigned>(std::stoul(v));
    } else if (parse_flag(a, "--max-findings", &v)) {
      cli.max_findings = std::stoul(v);
    } else if (parse_flag(a, "--json", &v)) {
      cli.json = true;
      cli.json_path = v;
    } else if (std::strcmp(a, "--warn-only") == 0) {
      cli.warn_only = true;
    } else {
      std::fprintf(stderr, "unknown argument: %s\n", a);
      return usage(argv[0]);
    }
  }

  if (cli.trace_dir.empty() == cli.capture.empty()) return usage(argv[0]);

  analyze::RacecheckOptions opt;
  opt.max_findings = cli.max_findings;

  try {
    if (!cli.trace_dir.empty()) {
      ThreadPool pool(std::max<std::size_t>(cli.jobs, 1));
      const trace::ShardedReplay replay(cli.trace_dir, pool);
      std::printf("racecheck: %s (%llu ops)\n", cli.trace_dir.c_str(),
                  (unsigned long long)replay.stats().ops);
      return report_and_exit(analyze::racecheck(replay, opt), cli);
    }
    const auto alg = sort::parse_algorithm(cli.capture);
    if (!alg) {
      std::fprintf(stderr, "unknown sort: %s\n", cli.capture.c_str());
      return usage(argv[0]);
    }
    TwoLevelConfig cfg = test_config(cli.rho);
    cfg.near_capacity = cli.near_kb * 1024;
    cfg.threads = cli.threads;
    cfg.overlap_dma = cli.overlap_dma;
    FaultInjector faults(cli.chaos_seed.value_or(0));
    if (cli.chaos_seed) arm_mixed_chaos(faults);
    const analysis::CaptureRun run = analysis::capture_sort_trace(
        cfg, *alg, cli.n, cli.seed, cli.chaos_seed ? &faults : nullptr);
    std::printf("racecheck: captured %s n=%llu%s\n", cli.capture.c_str(),
                (unsigned long long)cli.n,
                cli.chaos_seed ? " (chaos schedule armed)" : "");
    return report_and_exit(analyze::racecheck(run.trace, opt), cli);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "racecheck: error: %s\n", e.what());
    return 2;
  }
}
