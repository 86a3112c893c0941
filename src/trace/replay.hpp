// ShardedReplay — loads a MappedLog capture back for cycle-level replay.
//
// Each per-thread log file is mmapped read-only and decoded with the v3
// wire codec; decoding is sharded across a ThreadPool (contiguous groups of
// trace threads per worker), which is where the parallelism of "parallel
// sharded replay" lives — the DES simulator itself stays deterministic and
// single-threaded, consuming the decoded streams through TraceSource.
//
// Merge rules at fence points: after the shards decode independently, they
// are merged by validating the global fence schedule — every thread must
// have crossed the identical ordered sequence of Barrier ids (the SPMD
// rendezvous points at which the sim's BarrierController synchronizes all
// TraceCores, and the completion fences for any DmaCopy descriptors posted
// since the previous barrier). A log whose shards disagree on that schedule
// cannot replay (the sim would deadlock at the first divergent rendezvous),
// so the merge fails loudly instead.
//
// Crash-cut logs (header never finalized by MappedLog::close()) are
// recovered by decoding the longest clean record prefix; `stats().
// recovered_threads` reports how many streams took that path.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "trace/capture.hpp"

namespace tlm {
class ThreadPool;
}

namespace tlm::trace {

struct ReplayStats {
  std::uint64_t threads = 0;
  std::uint64_t shards = 0;        // parallel decode shards actually used
  std::uint64_t ops = 0;           // decoded records
  std::uint64_t mapped_bytes = 0;  // bytes mmapped across all log files
  std::uint64_t fences = 0;        // barrier fence points per thread
  std::uint64_t dmas = 0;          // DmaCopy descriptors fenced by them
  std::uint64_t recovered_threads = 0;  // streams restored from a cut tail
};

class ShardedReplay final : public TraceSource {
 public:
  // Decodes every per-thread log under `dir`, sharding the work across
  // `pool`. Throws std::invalid_argument on a missing/corrupt capture and
  // std::logic_error when the per-thread fence schedules cannot merge. Of
  // several corrupt logs, the lowest-numbered thread's error is the one
  // thrown, whatever the pool's width.
  ShardedReplay(const std::string& dir, ThreadPool& pool);
  // Single-shard convenience: decodes on a one-worker pool, which runs
  // inline on the calling thread.
  explicit ShardedReplay(const std::string& dir);

  std::size_t threads() const override { return streams_.size(); }
  const std::vector<TraceOp>& stream(std::size_t thread) const override {
    return streams_.at(thread);
  }

  const ReplayStats& stats() const { return stats_; }

 private:
  void load(const std::string& dir, ThreadPool& pool);

  std::vector<std::vector<TraceOp>> streams_;
  ReplayStats stats_;
};

}  // namespace tlm::trace
