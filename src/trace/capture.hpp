// TraceBuffer: an in-memory TraceSink that records one ordered op stream per
// thread, coalescing adjacent compatible ops to keep traces compact.
//
// Attach one to a Machine, run an algorithm, then hand the streams to the
// simulator's TraceCores (sim/system.hpp) for cycle-level replay. For runs
// too large to hold in RAM, MappedLog (trace/mapped_log.hpp) is the
// out-of-core sink with the identical coalescing contract, and ShardedReplay
// (trace/replay.hpp) loads its logs back as a TraceSource.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "trace/sink.hpp"

namespace tlm::trace {

struct TraceSummary {
  std::uint64_t reads = 0, writes = 0, computes = 0, barriers = 0;
  std::uint64_t dmas = 0;
  std::uint64_t read_bytes = 0, write_bytes = 0, dma_bytes = 0;
  double compute_ops = 0;
  std::uint64_t total_ops() const {
    return reads + writes + computes + barriers + dmas;
  }
  void note(const TraceOp& op, bool coalesced);
  TraceSummary& operator+=(const TraceSummary& o);
};

// Attempts to fold `op` into `tail` (the thread's most recent record):
// adjacent compute segments merge, contiguous read/write bursts of the same
// kind extend, contiguous DmaCopy descriptors with matching src/dst strides
// extend. Returns true when `tail` absorbed the op. This single function IS
// the coalescing contract — every sink (TraceBuffer, MappedLog) and every
// loader routes through it so capture and replay agree bit for bit.
bool try_coalesce(TraceOp& tail, const TraceOp& op);

// Read-side view of a captured trace: exactly the per-thread coalesced op
// streams sim::System replays. Implemented by TraceBuffer (in-RAM) and
// ShardedReplay (decoded from memory-mapped logs).
class TraceSource {
 public:
  virtual ~TraceSource() = default;
  virtual std::size_t threads() const = 0;
  virtual const std::vector<TraceOp>& stream(std::size_t thread) const = 0;
};

class TraceBuffer final : public TraceSink, public TraceSource {
 public:
  explicit TraceBuffer(std::size_t threads);

  // Appends `op` to its thread's stream, folding it into the stream's tail
  // when try_coalesce allows.
  void record(std::size_t thread, const TraceOp& op) override;

  std::size_t threads() const override { return streams_.size(); }
  const std::vector<TraceOp>& stream(std::size_t thread) const override {
    return streams_.at(thread);
  }
  const std::vector<std::vector<TraceOp>>& streams() const { return streams_; }

  // O(threads): each stream's summary is maintained incrementally as ops
  // arrive (a billion-op capture must not be re-scanned to answer "how many
  // ops"), and the streams' summaries are added up here.
  TraceSummary summary() const;

  // Resets the buffer for reuse: drops every stream AND the incremental
  // summary/coalescing state, so a subsequent op can neither merge into a
  // stale predecessor nor inherit stale totals.
  void clear();

  // Human-readable digest (op counts per thread) for logs and tests.
  std::string describe() const;

 private:
  std::vector<std::vector<TraceOp>> streams_;
  // One summary per stream, each on its own cache line: threads append to
  // their streams concurrently, so a shared summary would be a data race.
  struct alignas(64) StreamSummary {
    TraceSummary s;
  };
  std::vector<StreamSummary> summaries_;
};

}  // namespace tlm::trace
