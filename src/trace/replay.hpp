// ShardedReplay — loads a MappedLog capture back for cycle-level replay.
//
// Each thread's payload is read into an owned byte vector (no mapping is
// kept, so a later capture into the same directory cannot change it) and
// validated with one scan on a ThreadPool: header, record count against the
// finalized header, and the barrier schedule. The simulator reads the
// records through TraceSource::cursor().
//
// Merge rule at fence points: every thread must have crossed the identical
// ordered sequence of Barrier ids (the SPMD rendezvous points, which are
// also the completion fences of posted DmaCopy descriptors), or the sim
// would deadlock at the first divergent rendezvous; the merge fails loudly.
//
// Crash-cut logs (header never finalized by MappedLog::close()) keep their
// longest clean record prefix, and then every log ends just past the
// deepest fence all threads reached (`stats().recovered_threads`).
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "trace/capture.hpp"

namespace tlm {
class ThreadPool;
}

namespace tlm::trace {

struct ReplayStats {
  std::uint64_t ops = 0;                // records replayed
  std::uint64_t fences = 0;             // barrier fence points per thread
  std::uint64_t recovered_threads = 0;  // logs restored from a cut tail
};

class ShardedReplay final : public TraceSource {
 public:
  // Reads and validates every per-thread log under `dir`, spreading the
  // scans across `pool`. Throws std::invalid_argument on a missing/corrupt
  // capture and std::logic_error when the per-thread fence schedules cannot
  // merge. Of several corrupt logs, the lowest-numbered thread's error is
  // the one thrown, whatever the pool's width.
  ShardedReplay(const std::string& dir, ThreadPool& pool);
  // Scans every log on the calling thread.
  explicit ShardedReplay(const std::string& dir);

  std::size_t threads() const override { return logs_.size(); }
  std::span<const std::uint8_t> log(std::size_t thread) const override {
    return logs_.at(thread);
  }

  const ReplayStats& stats() const { return stats_; }

 private:
  void load(const std::string& dir, ThreadPool& pool);

  std::vector<std::vector<std::uint8_t>> logs_;
  ReplayStats stats_;
};

}  // namespace tlm::trace
