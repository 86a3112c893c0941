// Experiment harness: runs {algorithm × backend × configuration} and
// returns uniform results for the bench binaries that regenerate the
// paper's tables and figures.
//
// Two backends are offered:
//  * counting — the Machine's analytic traffic/time model (fast; used for
//    sweeps and theory validation), and
//  * capture  — the same run with a TraceBuffer attached, producing the
//    per-thread op streams that sim::System replays cycle-level (Table I).
#pragma once

#include <cstdint>
#include <string>

#include "common/faults.hpp"
#include "scratchpad/config.hpp"
#include "scratchpad/counters.hpp"
#include "sim/system.hpp"
#include "sort/sort.hpp"
#include "trace/capture.hpp"
#include "trace/mapped_log.hpp"
#include "trace/replay.hpp"

namespace tlm::analysis {

enum class Algorithm {
  GnuSort,             // single-level parallel multiway mergesort baseline
  NMsort,              // §IV-D practical near-memory sort
  NMsortNaive,         // NMsort with eager bucket scatter (ablation A2)
  ScratchpadSeq,       // §III sequential recursive sort, mergesort inner
  ScratchpadSeqQuick,  // §III with quicksort inner (Corollary 7 / A1)
  ScratchpadPar,       // §IV-C theoretical parallel sort (Theorem 10)
  NMsortWriteEff,      // write-efficient NMsort (asymmetric ω variant)
};

const char* to_string(Algorithm a);

struct SortRun {
  Algorithm algorithm = Algorithm::GnuSort;
  std::uint64_t n = 0;
  double rho = 1.0;
  bool verified = false;   // output == std::sort(input): is_sorted_permutation
  MachineStats counting;   // analytic traffic + modeled time
  FaultStats faults;       // injected faults / retries / fallbacks observed
  double modeled_seconds = 0;
  double host_seconds = 0;  // wall-clock of the kernel, not of the check
};

// Runs `a` on `n` random 64-bit keys under the counting backend. An
// optional fault injector (not owned) is attached to the machine for the
// duration of the run — the chaos harness drives every algorithm through
// this one entry point.
SortRun run_sort_counting(const TwoLevelConfig& cfg, Algorithm a,
                          std::uint64_t n, std::uint64_t seed,
                          FaultInjector* faults = nullptr);

struct CaptureRun {
  SortRun counting;          // the counting-side view of the same run
  trace::TraceBuffer trace;  // per-thread op streams for sim::System
};

// Same run with trace capture attached (the Ariel role). An optional fault
// injector makes the captured run a chaos run — capture under faults is how
// a chaos schedule becomes deterministically re-playable from its log.
CaptureRun capture_sort_trace(const TwoLevelConfig& cfg, Algorithm a,
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
    const TwoLevelConfig& cfg, Algorithm a, std::uint64_t n,
    std::uint64_t seed, const std::string& trace_dir,
    FaultInjector* faults = nullptr,
    std::size_t chunk_bytes = trace::MappedLog::kDefaultChunkBytes);

// Effective machine operations retired per modeled comparison: compare,
// data movement, and branch misprediction cost in a sort inner loop. Mirrors
// the paper's effective processing rate (their §V-A example uses x ≈ 1e10
// for 256 cores at 1.7 GHz, i.e. far below 1 comparison/cycle) and places
// the simulated node near the memory-boundedness boundary, as theirs was.
inline constexpr double kOpsPerComparison = 8.0;

// The counting-backend configuration matching sim::SystemConfig::scaled:
// per-core 1.7 GHz effective comparison rate, far bandwidth shrunk with the
// core count so the x : y compute-to-bandwidth ratio equals the paper's
// 256-core node, and the algorithm-structure cache (run sizing, merge
// fan-in) matching the scaled node's L2.
TwoLevelConfig scaled_counting_config(double rho, std::size_t cores,
                                      std::uint64_t near_capacity_bytes);

// Convenience: capture a trace and replay it on the matching scaled
// simulator node. Returns the cycle-level report plus the counting view.
struct SimulatedSort {
  SortRun counting;
  sim::SimReport report;
};
SimulatedSort simulate_sort(double rho, std::size_t cores, std::uint64_t n,
                            std::uint64_t near_capacity_bytes, Algorithm a,
                            std::uint64_t seed,
                            std::uint64_t max_events = ~0ULL);

// The out-of-core twin of simulate_sort: capture spills to mmap'd logs
// under `trace_dir`, a ShardedReplay decodes them in parallel shards, and
// the same scaled simulator node replays the decoded streams. Reports are
// bit-identical to simulate_sort on the same inputs (the trace-replay CI
// lane's contract).
struct MappedSimulatedSort {
  SortRun counting;
  sim::SimReport report;
  trace::MappedLogStats log;
  trace::ReplayStats replay;
};
MappedSimulatedSort simulate_sort_mapped(double rho, std::size_t cores,
                                         std::uint64_t n,
                                         std::uint64_t near_capacity_bytes,
                                         Algorithm a, std::uint64_t seed,
                                         const std::string& trace_dir,
                                         std::uint64_t max_events = ~0ULL);

}  // namespace tlm::analysis
