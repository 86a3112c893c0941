// The trace encoding and the in-memory sink. From sink to simulator each
// thread's ops are one log of v3 records (3–6 B each): an op tag, vaddrs
// zigzag-delta-coded against the end of the previous burst (a contiguous
// burst encodes a 1-byte zero delta), lengths and barrier ids as LEB128
// varints, compute amounts as byte-swapped doubles (short for small
// integers). TraceBuffer keeps the logs in RAM, MappedLog
// (trace/mapped_log.hpp) in mapped files; readers walk a wire::Cursor.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "trace/sink.hpp"

namespace tlm::trace {

inline constexpr std::uint32_t kTraceVersionVarint = 3;

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
// the coalescing contract — wire::Writer applies it for every sink, so
// capture and replay agree bit for bit.
bool try_coalesce(TraceOp& tail, const TraceOp& op);

namespace wire {

// Per-stream delta state. Deltas are computed with wrapping u64 arithmetic,
// so any address pair — including a max-u64 jump that sign-wraps the zigzag
// intermediate — round-trips exactly.
struct Codec {
  std::uint64_t prev_end = 0;      // end of the last Read/Write/DmaCopy dst
  std::uint64_t prev_src_end = 0;  // end of the last DmaCopy src
};

// Writes the v3 encoding of `op` at `out`, which has room for
// kMaxRecordBytes, and returns its length.
inline constexpr std::size_t kMaxRecordBytes = 1 + 3 * 10;
std::size_t encode_op(std::uint8_t* out, Codec& c, const TraceOp& op);

// Decodes one record from [*p, end). Returns false (without advancing *p)
// when the range holds only a truncated record — the recovery signal for
// crash-cut logs. Throws on a corrupt op tag or an over-long varint.
bool decode_op(const std::uint8_t** p, const std::uint8_t* end, Codec& c,
               TraceOp* op);

// Forward reader over one thread's records.
class Cursor {
 public:
  explicit Cursor(std::span<const std::uint8_t> log)
      : p_(log.data()), end_(log.data() + log.size()) {}
  // Decodes the next record into *op; false at the end of the log. Throws
  // std::invalid_argument on a record the log cuts short.
  bool next(TraceOp* op);

 private:
  const std::uint8_t* p_ = nullptr;
  const std::uint8_t* end_ = nullptr;
  Codec codec_;
};

// One thread's record writer, on its own cache lines. Each op is encoded
// when it arrives; one that try_coalesce folds into the tail record
// re-encodes the merged tail from the codec state before it, so the log is
// always complete: no op is held back.
class alignas(64) Writer {
 public:
  // Adds `op` and returns the bytes of the new or merged tail record. They
  // belong at tail_offset(); the log is then size() bytes long, and
  // anything past that is stale.
  std::span<const std::uint8_t> append(const TraceOp& op);
  // Restarts at the end of an existing log, so that appends continue it.
  // Throws std::invalid_argument on a truncated or corrupt record.
  void resume(std::span<const std::uint8_t> log);

  std::uint64_t tail_offset() const { return tail_off_; }
  std::uint64_t size() const { return tail_off_ + tail_len_; }
  std::uint64_t records() const { return records_; }
  // Kept as ops arrive, never re-scanned.
  const TraceSummary& summary() const { return summary_; }

 private:
  Codec codec_;        // state after the tail record
  Codec before_tail_;  // state the tail record is encoded from
  TraceOp tail_{};
  std::uint64_t tail_off_ = 0, tail_len_ = 0, records_ = 0;
  TraceSummary summary_;
  std::array<std::uint8_t, kMaxRecordBytes> rec_{};  // the tail's encoding
};

}  // namespace wire

// Read-side view of a captured trace: each thread's complete record log,
// exactly what sim::System replays. Implemented by TraceBuffer (in RAM) and
// ShardedReplay (read back from MappedLog files).
class TraceSource {
 public:
  virtual ~TraceSource() = default;
  virtual std::size_t threads() const = 0;
  virtual std::span<const std::uint8_t> log(std::size_t thread) const = 0;

  wire::Cursor cursor(std::size_t thread) const {
    return wire::Cursor(log(thread));
  }
  // The thread's ops decoded in full, for tests and tools that compare
  // captures op by op; the simulator and the race checker use cursor().
  std::vector<TraceOp> stream(std::size_t thread) const;
};

class TraceBuffer final : public TraceSink, public TraceSource {
 public:
  explicit TraceBuffer(std::size_t threads);

  // Appends `op` to its thread's log, folding it into the log's tail record
  // when try_coalesce allows.
  void record(std::size_t thread, const TraceOp& op) override;

  std::size_t threads() const override { return logs_.size(); }
  std::span<const std::uint8_t> log(std::size_t thread) const override {
    return logs_.at(thread).bytes;
  }
  std::uint64_t records(std::size_t thread) const {
    return logs_.at(thread).writer.records();
  }
  // Encoded bytes across all threads.
  std::uint64_t bytes() const;

  // Replaces the thread's log with `bytes` so that later ops continue it.
  // Throws std::invalid_argument unless they decode to `records` records.
  void adopt(std::size_t thread, std::vector<std::uint8_t> bytes,
             std::uint64_t records);

  // O(threads): adds up the per-thread summaries.
  TraceSummary summary() const;

  // Resets the buffer for reuse: drops every log AND the incremental
  // summary/coalescing state, so a subsequent op can neither merge into a
  // stale predecessor nor inherit stale totals.
  void clear();

  // Human-readable digest (op counts per thread) for logs and tests.
  std::string describe() const;

 private:
  struct Log {
    wire::Writer writer;
    std::vector<std::uint8_t> bytes;
  };
  std::vector<Log> logs_;
};

}  // namespace tlm::trace
