// MappedLog — the out-of-core TraceSink: streams each thread's op log to an
// append-only memory-mapped file instead of holding it in RAM, so capture
// size is bounded by disk, not memory (the unlock for Table-I-scale runs).
//
// Layout per thread (`<dir>/thread-<i>.tlmlog`):
//
//   FileHeader (64 B) | v3 varint/delta op records (trace/capture.hpp)
//
// The file grows in fixed chunks (ftruncate + remap); encoded records are
// contiguous in the file and may straddle a chunk boundary. The header's
// `committed_bytes`/`ops` fields are only finalized by close() — while a
// capture is in flight they hold kUnfinalized, so a crash-cut log is
// recognizable and ShardedReplay recovers the longest cleanly-decodable
// record prefix instead of trusting a stale length.
//
// Each thread appends through a wire::Writer, as TraceBuffer does, so a log's
// payload is byte-identical to the in-RAM capture of the same ops.
//
// Threading: record(thread, op) calls touch only that thread's cache-line-
// separated state, matching the TraceSink contract (concurrent calls must
// use distinct thread ids). summary()/stats()/close() are capture-quiescent
// operations: call them only after the traced run has joined its threads.
// They serialize against each other under lifecycle_mu_ (so a concurrent
// close()+stats() pair cannot observe a half-finalized log), and record()
// checks the closed flag through an atomic — a late appender racing close()
// is a caller bug, but it fails the TLM_CHECK deterministically instead of
// tearing a plain bool.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/thread_annotations.hpp"
#include "trace/capture.hpp"

namespace tlm::trace {

inline constexpr char kMappedLogMagic[8] = {'T', 'L', 'M', 'M',
                                            'L', 'O', 'G', '3'};
inline constexpr std::uint64_t kUnfinalized = ~0ULL;

struct MappedLogFileHeader {
  char magic[8];
  std::uint32_t version;          // kTraceVersionVarint
  std::uint32_t thread;           // stream id this file carries
  std::uint64_t committed_bytes;  // payload length; kUnfinalized until close
  std::uint64_t ops;              // record count; kUnfinalized until close
  std::uint8_t reserved[32];
};
static_assert(sizeof(MappedLogFileHeader) == 64, "header is one cache line");

struct MappedLogStats {
  std::uint64_t ops = 0;            // coalesced records written
  std::uint64_t raw_ops = 0;        // sink calls before coalescing
  std::uint64_t encoded_bytes = 0;  // payload bytes across all threads
  std::uint64_t file_bytes = 0;     // bytes spilled to disk (incl. headers)
  std::uint64_t chunks = 0;         // chunk growth operations
  double bytes_per_op() const {
    return ops ? static_cast<double>(encoded_bytes) / static_cast<double>(ops)
               : 0.0;
  }
};

class MappedLog final : public TraceSink {
 public:
  static constexpr std::size_t kDefaultChunkBytes = 1 << 20;

  // Creates `dir` (one level) if needed and truncates any previous capture
  // in it. `chunk_bytes` is the growth quantum (smaller values exercise
  // boundary straddling; tests use a few hundred bytes).
  MappedLog(std::string dir, std::size_t threads,
            std::size_t chunk_bytes = kDefaultChunkBytes);
  ~MappedLog() override;

  MappedLog(const MappedLog&) = delete;
  MappedLog& operator=(const MappedLog&) = delete;

  void record(std::size_t thread, const TraceOp& op) override;

  // Finalizes every header (committed_bytes/ops), trims chunk slack,
  // msyncs, and unmaps. Idempotent; called by the destructor.
  void close() TLM_EXCLUDES(lifecycle_mu_);
  bool closed() const { return closed_.load(std::memory_order_acquire); }

  // Aggregated over all threads.
  TraceSummary summary() const TLM_EXCLUDES(lifecycle_mu_);
  MappedLogStats stats() const TLM_EXCLUDES(lifecycle_mu_);

 private:
  struct PerThread;

  std::string dir_;
  std::size_t chunk_bytes_;
  // The PerThread blocks themselves are lock-free by ownership: each is
  // written only by its appender thread while the capture runs, and only by
  // the (quiescent) finalizer/observers afterwards. The vector is immutable
  // after construction.
  std::vector<std::unique_ptr<PerThread>> per_thread_;
  // Serializes finalization against the aggregate observers and makes
  // double-close idempotent even when racing.
  mutable Mutex lifecycle_mu_;
  bool finalized_ TLM_GUARDED_BY(lifecycle_mu_) = false;
  // Fast-path flag record() checks without taking the lifecycle lock.
  std::atomic<bool> closed_{false};
};

// Writes `<dir>/manifest.tlm` naming the format version, thread count, and
// chunk size — the loader's entry point.
std::string mapped_log_manifest_path(const std::string& dir);
std::string mapped_log_file_path(const std::string& dir, std::size_t thread);

}  // namespace tlm::trace
