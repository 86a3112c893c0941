// Trace event model — the Ariel/Pin substitute.
//
// In the paper, the real application runs under Pin and its memory
// operations are routed through shared-memory queues to SST's virtual Ariel
// cores. Here the algorithms run natively against a `Machine`, which
// forwards the same information (thread id, op kind, virtual address, size,
// compute amounts, barrier crossings) to a TraceSink. The cycle-level
// simulator replays the recorded streams on its TraceCores.
#pragma once

#include <cstddef>
#include <cstdint>

namespace tlm::trace {

// Virtual address layout used by traces: the near (scratchpad) region lives
// in its own range so the simulator's directory controllers can route by
// address, exactly like the fixed-address-range scheme of §VI-B.
inline constexpr std::uint64_t kFarBase = 0x0000'0100'0000'0000ULL;
inline constexpr std::uint64_t kNearBase = 0x0000'8000'0000'0000ULL;

constexpr bool is_near_addr(std::uint64_t vaddr) { return vaddr >= kNearBase; }

enum class OpKind : std::uint8_t {
  Read = 0,     // memory load burst: [vaddr, vaddr + bytes)
  Write = 1,    // memory store burst
  Compute = 2,  // `ops` units of computation (comparisons/moves)
  Barrier = 3,  // all threads rendezvous on `barrier_id`
  DmaCopy = 4,  // descriptor handed to the DMA engine: src -> addr, bytes
};

struct TraceOp {
  OpKind kind = OpKind::Compute;
  std::uint64_t addr = 0;   // virtual address (Read/Write/DmaCopy dst) or
                            // barrier id
  std::uint64_t bytes = 0;  // burst length (Read/Write/DmaCopy)
  double ops = 0;           // work amount (Compute)
  std::uint64_t src = 0;    // source virtual address (DmaCopy only)
};

// Receives the instrumentation stream as TraceOp records through one hook,
// `record`. Implementations must be safe to call concurrently from distinct
// `thread` ids (each thread owns its stream). The on_* helpers build each
// kind's record, so the per-kind field layout lives only here.
class TraceSink {
 public:
  virtual ~TraceSink() = default;

  virtual void record(std::size_t thread, const TraceOp& op) = 0;

  void on_read(std::size_t thread, std::uint64_t vaddr, std::uint64_t bytes) {
    record(thread, TraceOp{OpKind::Read, vaddr, bytes});
  }
  void on_write(std::size_t thread, std::uint64_t vaddr, std::uint64_t bytes) {
    record(thread, TraceOp{OpKind::Write, vaddr, bytes});
  }
  void on_compute(std::size_t thread, double ops) {
    record(thread, TraceOp{OpKind::Compute, 0, 0, ops});
  }
  void on_barrier(std::size_t thread, std::uint64_t barrier_id) {
    record(thread, TraceOp{OpKind::Barrier, barrier_id});
  }
  // A cross-space copy delegated to the DMA engine (Fig. 5/7's "DMA
  // Engines"): the issuing core posts a descriptor and keeps executing; the
  // next barrier is the completion fence.
  void on_dma(std::size_t thread, std::uint64_t dst_vaddr,
              std::uint64_t src_vaddr, std::uint64_t bytes) {
    record(thread, TraceOp{OpKind::DmaCopy, dst_vaddr, bytes, 0, src_vaddr});
  }
};

}  // namespace tlm::trace
