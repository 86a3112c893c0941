#include "analysis/experiment.hpp"

#include <algorithm>
#include <chrono>
#include <vector>

#include "common/assert.hpp"
#include "common/faults.hpp"
#include "common/rng.hpp"
#include "common/sorted_check.hpp"
#include "common/thread_pool.hpp"

namespace tlm::analysis {

namespace {

SortRun run_with_sink(const TwoLevelConfig& cfg, sort::Algorithm a,
                      std::uint64_t n, std::uint64_t seed,
                      trace::TraceSink* sink, FaultInjector* faults = nullptr) {
  Machine m(cfg, sink);
  m.set_fault_injector(faults);
  const std::vector<std::uint64_t> input =
      random_keys(static_cast<std::size_t>(n), seed);
  // Zeroed, so a slot the sort never writes cannot pass for sorted.
  std::vector<std::uint64_t> output(input.size());
  const auto t0 = std::chrono::steady_clock::now();
  sort::sort_into(m, a, input, output, seed);
  const auto t1 = std::chrono::steady_clock::now();
  if (faults && !output.empty() &&
      faults->should_fail(fault_site::kOutputFlip))
    output[output.size() / 2] ^= 1;

  SortRun r;
  r.n = n;
  r.rho = cfg.rho;
  r.verified = is_sorted_permutation(input, output);
  m.end_phase();
  r.counting = m.stats();
  r.faults = m.fault_stats();
  r.stager = m.stager_stats();
  r.modeled_seconds = r.counting.total.seconds();
  r.host_seconds = std::chrono::duration<double>(t1 - t0).count();
  return r;
}

}  // namespace

SortRun run_sort_counting(const TwoLevelConfig& cfg, sort::Algorithm a,
                          std::uint64_t n, std::uint64_t seed,
                          FaultInjector* faults) {
  return run_with_sink(cfg, a, n, seed, nullptr, faults);
}

CaptureRun capture_sort_trace(const TwoLevelConfig& cfg, sort::Algorithm a,
                              std::uint64_t n, std::uint64_t seed,
                              FaultInjector* faults) {
  CaptureRun out{SortRun{}, trace::TraceBuffer(cfg.threads)};
  out.counting = run_with_sink(cfg, a, n, seed, &out.trace, faults);
  return out;
}

MappedCaptureRun capture_sort_trace_mapped(const TwoLevelConfig& cfg,
                                           sort::Algorithm a, std::uint64_t n,
                                           std::uint64_t seed,
                                           const std::string& trace_dir,
                                           FaultInjector* faults,
                                           std::size_t chunk_bytes) {
  MappedCaptureRun out;
  out.trace_dir = trace_dir;
  trace::MappedLog log(trace_dir, cfg.threads, chunk_bytes);
  out.counting = run_with_sink(cfg, a, n, seed, &log, faults);
  log.close();
  out.log = log.stats();
  return out;
}

TwoLevelConfig counting_config(const sim::SystemConfig& node, double rho,
                               std::uint64_t near_capacity_bytes) {
  TLM_REQUIRE(node.near.total_bw == rho * node.far.total_bw(),
              "rho must be the node's near : far bandwidth ratio");
  TwoLevelConfig cfg;
  cfg.near_capacity = near_capacity_bytes;
  cfg.block_bytes = node.l1.line_bytes;
  cfg.cache_bytes = node.l2.size_bytes;
  cfg.rho = rho;
  cfg.far_bw = node.far.total_bw();
  cfg.near_latency = to_seconds(node.near.access_latency);
  cfg.core_rate = node.core.freq_hz / node.core.cycles_per_op;
  cfg.threads = node.cores;
  return cfg;
}

TwoLevelConfig scaled_counting_config(double rho, std::size_t cores,
                                      std::uint64_t near_capacity_bytes) {
  return counting_config(sim::SystemConfig::scaled(rho, cores), rho,
                         near_capacity_bytes);
}

SimulatedSort simulate_sort(const sim::SystemConfig& node, double rho,
                            std::uint64_t n, std::uint64_t near_capacity_bytes,
                            sort::Algorithm a, std::uint64_t seed,
                            std::uint64_t max_events) {
  CaptureRun cap = capture_sort_trace(
      counting_config(node, rho, near_capacity_bytes), a, n, seed);
  sim::System system(node, cap.trace);
  return {std::move(cap.counting), system.run(max_events)};
}

MappedSimulatedSort simulate_sort_mapped(const sim::SystemConfig& node,
                                         double rho, std::uint64_t n,
                                         std::uint64_t near_capacity_bytes,
                                         sort::Algorithm a, std::uint64_t seed,
                                         const std::string& trace_dir,
                                         std::uint64_t max_events) {
  MappedCaptureRun cap = capture_sort_trace_mapped(
      counting_config(node, rho, near_capacity_bytes), a, n, seed, trace_dir);
  // Validate the logs on at most one host thread per usable CPU, as Machine
  // runs its cores; the records (not the pool width) determine the
  // simulation, so any width replays identically.
  ThreadPool pool(std::min(node.cores, ThreadPool::host_cpus()));
  trace::ShardedReplay replay(trace_dir, pool);
  sim::System system(node, replay);
  MappedSimulatedSort out;
  out.report = system.run(max_events);
  out.counting = std::move(cap.counting);
  out.log = cap.log;
  out.replay = replay.stats();
  return out;
}

}  // namespace tlm::analysis
