// Experiment harness: runs {algorithm × backend × configuration} and
// returns uniform results for the bench binaries that regenerate the
// paper's tables and figures.
//
// Two backends are offered:
//  * counting — the Machine's analytic traffic/time model (fast; used for
//    sweeps and theory validation), and
//  * capture  — the same run with a TraceBuffer attached, producing the
//    per-thread record logs that sim::System replays cycle-level (Table I).
#pragma once

#include <cstdint>
#include <string>

#include "common/faults.hpp"
#include "scratchpad/config.hpp"
#include "scratchpad/counters.hpp"
#include "sim/system.hpp"
#include "sort/catalogue.hpp"
#include "trace/capture.hpp"
#include "trace/mapped_log.hpp"
#include "trace/replay.hpp"

namespace tlm::analysis {

struct SortRun {
  std::uint64_t n = 0;
  double rho = 1.0;
  bool verified = false;   // output == std::sort(input): is_sorted_permutation
  MachineStats counting;   // analytic traffic + modeled time
  FaultStats faults;       // injected faults / retries / fallbacks observed
  StagerStats stager;      // every Stager the run released, folded
  double modeled_seconds = 0;
  double host_seconds = 0;  // wall-clock of the kernel, not of the check
};

// Runs `a` on `n` random 64-bit keys under the counting backend. An
// optional fault injector (not owned) is attached to the machine for the
// duration of the run — the chaos harness drives every algorithm through
// this one entry point.
SortRun run_sort_counting(const TwoLevelConfig& cfg, sort::Algorithm a,
                          std::uint64_t n, std::uint64_t seed,
                          FaultInjector* faults = nullptr);

struct CaptureRun {
  SortRun counting;          // the counting-side view of the same run
  trace::TraceBuffer trace;  // per-thread record logs for sim::System
};

// Same run with trace capture attached (the Ariel role). An optional fault
// injector makes the captured run a chaos run — capture under faults is how
// a chaos schedule becomes deterministically re-playable from its log.
CaptureRun capture_sort_trace(const TwoLevelConfig& cfg, sort::Algorithm a,
                              std::uint64_t n, std::uint64_t seed,
                              FaultInjector* faults = nullptr);

// Out-of-core capture: streams the trace to append-only memory-mapped logs
// under `trace_dir` (trace/mapped_log.hpp) instead of RAM. The log is
// finalized (closed) before returning; load it back with ShardedReplay.
struct MappedCaptureRun {
  SortRun counting;
  trace::MappedLogStats log;  // bytes/op, spill bytes, chunk growths
  std::string trace_dir;
};
MappedCaptureRun capture_sort_trace_mapped(
    const TwoLevelConfig& cfg, sort::Algorithm a, std::uint64_t n,
    std::uint64_t seed, const std::string& trace_dir,
    FaultInjector* faults = nullptr,
    std::size_t chunk_bytes = trace::MappedLog::kDefaultChunkBytes);

// The counting-backend view of a simulator node, read field by field from
// it: B is the L1 line, Z the L2, far_bw the far channels' total, the near
// latency the scratchpad's, core_rate freq_hz / cycles_per_op and p the
// core count. Both clocks of a run therefore describe the same node. `rho`
// must be the node's own (near.total_bw == rho * far.total_bw()).
TwoLevelConfig counting_config(const sim::SystemConfig& node, double rho,
                               std::uint64_t near_capacity_bytes);

// counting_config of the scaled node, sim::SystemConfig::scaled(rho, cores).
TwoLevelConfig scaled_counting_config(double rho, std::size_t cores,
                                      std::uint64_t near_capacity_bytes);

// Convenience: capture a trace on counting_config(node, rho, ...) and replay
// it on `node`. Returns the cycle-level report plus the counting view.
struct SimulatedSort {
  SortRun counting;
  sim::SimReport report;
};
SimulatedSort simulate_sort(const sim::SystemConfig& node, double rho,
                            std::uint64_t n, std::uint64_t near_capacity_bytes,
                            sort::Algorithm a, std::uint64_t seed,
                            std::uint64_t max_events = ~0ULL);

// The out-of-core twin of simulate_sort: capture spills to mmap'd logs
// under `trace_dir`, a ShardedReplay reads and validates them on at most
// one host thread per usable CPU, and `node` replays their records. Reports
// are bit-identical to simulate_sort on the same inputs (the trace-replay CI
// lane's contract).
struct MappedSimulatedSort {
  SortRun counting;
  sim::SimReport report;
  trace::MappedLogStats log;
  trace::ReplayStats replay;
};
MappedSimulatedSort simulate_sort_mapped(const sim::SystemConfig& node,
                                         double rho, std::uint64_t n,
                                         std::uint64_t near_capacity_bytes,
                                         sort::Algorithm a, std::uint64_t seed,
                                         const std::string& trace_dir,
                                         std::uint64_t max_events = ~0ULL);

}  // namespace tlm::analysis
