#include "analysis/experiment.hpp"

#include <chrono>
#include <vector>

#include "common/assert.hpp"
#include "common/faults.hpp"
#include "common/rng.hpp"
#include "common/sorted_check.hpp"
#include "common/thread_pool.hpp"

namespace tlm::analysis {

const char* to_string(Algorithm a) {
  switch (a) {
    case Algorithm::GnuSort:
      return "GNU sort";
    case Algorithm::NMsort:
      return "NMsort";
    case Algorithm::NMsortNaive:
      return "NMsort (eager scatter)";
    case Algorithm::ScratchpadSeq:
      return "scratchpad sort (seq)";
    case Algorithm::ScratchpadSeqQuick:
      return "scratchpad sort (seq, quicksort)";
    case Algorithm::ScratchpadPar:
      return "parallel scratchpad sort (§IV-C)";
    case Algorithm::NMsortWriteEff:
      return "NMsort (write-efficient)";
  }
  return "?";
}

namespace {

SortRun run_with_sink(const TwoLevelConfig& cfg, Algorithm a, std::uint64_t n,
                      std::uint64_t seed, trace::TraceSink* sink,
                      FaultInjector* faults = nullptr) {
  Machine m(cfg, sink);
  m.set_fault_injector(faults);
  const std::vector<std::uint64_t> input =
      random_keys(static_cast<std::size_t>(n), seed);
  // In-place backends sort a copy of the input; the others sort into a
  // zeroed buffer, so a slot they never write cannot pass for sorted.
  const bool in_place = a == Algorithm::GnuSort ||
                        a == Algorithm::ScratchpadSeq ||
                        a == Algorithm::ScratchpadSeqQuick ||
                        a == Algorithm::ScratchpadPar;
  std::vector<std::uint64_t> output =
      in_place ? input : std::vector<std::uint64_t>(input.size());
  const std::span<std::uint64_t> out(output);

  const auto t0 = std::chrono::steady_clock::now();
  switch (a) {
    case Algorithm::GnuSort: {
      sort::gnu_like_sort(m, out);
      break;
    }
    case Algorithm::NMsort:
    case Algorithm::NMsortNaive: {
      sort::NMSortOptions opt;
      opt.use_bucket_metadata = (a == Algorithm::NMsort);
      opt.seed = seed ^ 0x9e3779b97f4a7c15ULL;
      sort::nm_sort_into(m, std::span<const std::uint64_t>(input), out, opt);
      break;
    }
    case Algorithm::ScratchpadSeq:
    case Algorithm::ScratchpadSeqQuick: {
      sort::ScratchpadSortOptions opt;
      opt.quicksort_inner = (a == Algorithm::ScratchpadSeqQuick);
      opt.seed = seed ^ 0x517cc1b727220a95ULL;
      sort::scratchpad_sort(m, out, opt);
      break;
    }
    case Algorithm::ScratchpadPar: {
      sort::ParallelScratchpadSortOptions opt;
      opt.seed = seed ^ 0x2545f4914f6cdd1dULL;
      sort::parallel_scratchpad_sort(m, out, opt);
      break;
    }
    case Algorithm::NMsortWriteEff: {
      sort::WESortOptions opt;
      opt.seed = seed ^ 0x9e3779b97f4a7c15ULL;
      sort::we_sort_into(m, std::span<const std::uint64_t>(input), out, opt);
      break;
    }
  }
  const auto t1 = std::chrono::steady_clock::now();
  if (faults && !output.empty() &&
      faults->should_fail(fault_site::kOutputFlip))
    output[output.size() / 2] ^= 1;

  SortRun r;
  r.algorithm = a;
  r.n = n;
  r.rho = cfg.rho;
  r.verified = is_sorted_permutation(input, output);
  m.end_phase();
  r.counting = m.stats();
  r.faults = m.fault_stats();
  r.modeled_seconds = r.counting.total.seconds();
  r.host_seconds = std::chrono::duration<double>(t1 - t0).count();
  return r;
}

}  // namespace

SortRun run_sort_counting(const TwoLevelConfig& cfg, Algorithm a,
                          std::uint64_t n, std::uint64_t seed,
                          FaultInjector* faults) {
  return run_with_sink(cfg, a, n, seed, nullptr, faults);
}

CaptureRun capture_sort_trace(const TwoLevelConfig& cfg, Algorithm a,
                              std::uint64_t n, std::uint64_t seed,
                              FaultInjector* faults) {
  CaptureRun out{SortRun{}, trace::TraceBuffer(cfg.threads)};
  out.counting = run_with_sink(cfg, a, n, seed, &out.trace, faults);
  return out;
}

MappedCaptureRun capture_sort_trace_mapped(const TwoLevelConfig& cfg,
                                           Algorithm a, std::uint64_t n,
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

TwoLevelConfig scaled_counting_config(double rho, std::size_t cores,
                                      std::uint64_t near_capacity_bytes) {
  TwoLevelConfig cfg;
  cfg.near_capacity = near_capacity_bytes;
  cfg.block_bytes = 64;
  // The scaled node's shared L2 (the sim shrinks the cache with the node so
  // the N : Z ratio — and therefore the baseline's merge-pass count — stays
  // in the paper's regime at simulable sizes).
  cfg.cache_bytes = 128 * KiB;
  cfg.rho = rho;
  cfg.far_bw = 60.0 * GB * static_cast<double>(cores) / 256.0;
  cfg.core_rate = 1.7e9 / kOpsPerComparison;
  cfg.threads = cores;
  return cfg;
}

SimulatedSort simulate_sort(double rho, std::size_t cores, std::uint64_t n,
                            std::uint64_t near_capacity_bytes, Algorithm a,
                            std::uint64_t seed, std::uint64_t max_events) {
  const TwoLevelConfig cfg =
      scaled_counting_config(rho, cores, near_capacity_bytes);
  CaptureRun cap = capture_sort_trace(cfg, a, n, seed);
  sim::SystemConfig sys = sim::SystemConfig::scaled(rho, cores);
  sim::System system(sys, cap.trace);
  SimulatedSort out{std::move(cap.counting), system.run(max_events)};
  return out;
}

MappedSimulatedSort simulate_sort_mapped(double rho, std::size_t cores,
                                         std::uint64_t n,
                                         std::uint64_t near_capacity_bytes,
                                         Algorithm a, std::uint64_t seed,
                                         const std::string& trace_dir,
                                         std::uint64_t max_events) {
  const TwoLevelConfig cfg =
      scaled_counting_config(rho, cores, near_capacity_bytes);
  MappedCaptureRun cap =
      capture_sort_trace_mapped(cfg, a, n, seed, trace_dir);
  // Decode shards on the same pool width the capture ran with; the decoded
  // streams (not the shard split) determine the simulation, so any width
  // replays identically.
  ThreadPool pool(cores);
  trace::ShardedReplay replay(trace_dir, pool);
  sim::SystemConfig sys = sim::SystemConfig::scaled(rho, cores);
  sim::System system(sys, replay);
  MappedSimulatedSort out;
  out.report = system.run(max_events);
  out.counting = std::move(cap.counting);
  out.log = cap.log;
  out.replay = replay.stats();
  return out;
}

}  // namespace tlm::analysis
