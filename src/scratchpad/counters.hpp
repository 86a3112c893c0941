// Traffic and time accounting for the counting backend.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/math.hpp"

namespace tlm {

// Every counter below is declared once, in a table; the struct members (for
// PhaseStats, private storage plus a const accessor), operator+=, the *_delta
// snapshots, Machine::fold_open_phase, the run-report JSON, the Stager/fault
// export_stats export and the job server's attribution check are all
// expanded from these tables, so a field cannot be missing from any of them.
// A row is X(kind, field, fold) or, for the Stager and fault tables,
// X(kind, field, metric):
//   kind    u64 (a count) or f64 (a time or a ratio);
//   fold    Sum: += adds and *_delta subtracts; Max: += keeps the larger
//           and *_delta takes the later snapshot, since a maximum has no
//           meaningful difference;
//   metric  the run-record key export_stats writes (every row sums).
namespace counters {
using u64 = std::uint64_t;
using f64 = double;
struct Sum {
  template <typename T>
  static void add(T& a, T b) { a += b; }
  template <typename T>
  static T delta(T after, T before) { return after - before; }
};
struct Max {
  template <typename T>
  static void add(T& a, T b) { a = a > b ? a : b; }
  template <typename T>
  static T delta(T after, T /*before*/) { return after; }
};
}  // namespace counters

// The directional traffic counters: {bytes, blocks, bursts, DMA bytes, DMA
// bursts} x {far, near} x {read, write}, aggregated over all threads.
//   blocks  §II block transfers: far blocks of B bytes, near blocks of ρB
//           bytes, charged per stream/copy call (partial blocks round up);
//   bursts  copy/stream calls. Each burst pays the memory's access latency
//           once, which makes many small transfers slower than few large
//           ones at equal byte volume (§IV-D's motivation for the bucket
//           metadata);
//   dma_*   the slice of the traffic issued as DMA descriptors
//           (Machine::dma_copy) rather than core loads/stores. Under
//           `overlap_dma` only this slice runs in the background engine and
//           overlaps with core work (§VI-B).
// Only directions are stored: the asymmetric-ω model weighs far reads and
// writes apart, and every combined count is derived (TLM_PHASE_COMBINED).
// Row order is the Machine's charge layout: each quantity's four rows run
// far read, far write, near read, near write.
#define TLM_PHASE_TRAFFIC(X)        \
  X(u64, far_read_bytes, Sum)       \
  X(u64, far_write_bytes, Sum)      \
  X(u64, near_read_bytes, Sum)      \
  X(u64, near_write_bytes, Sum)     \
  X(u64, far_read_blocks, Sum)      \
  X(u64, far_write_blocks, Sum)     \
  X(u64, near_read_blocks, Sum)     \
  X(u64, near_write_blocks, Sum)    \
  X(u64, far_read_bursts, Sum)      \
  X(u64, far_write_bursts, Sum)     \
  X(u64, near_read_bursts, Sum)     \
  X(u64, near_write_bursts, Sum)    \
  X(u64, dma_far_read_bytes, Sum)   \
  X(u64, dma_far_write_bytes, Sum)  \
  X(u64, dma_near_read_bytes, Sum)  \
  X(u64, dma_near_write_bytes, Sum) \
  X(u64, dma_far_read_bursts, Sum)  \
  X(u64, dma_far_write_bursts, Sum) \
  X(u64, dma_near_read_bursts, Sum) \
  X(u64, dma_near_write_bursts, Sum)

// Every number a PhaseStats holds: the traffic above, then
//   partition_*        merge-partition balance: how many k-way partitions
//                      were computed, and the worst (max slice / ideal
//                      slice) ratio; 1.0 is an exactly even share;
//   compute_ops_*      aggregate work, and the per-thread maximum (the
//                      parallel span);
//   far_s .. dma_s     time attributed by the analytic model; dma_s is the
//                      background DMA engine's busy time (overlap model);
//   stall_s            injected-fault stall and retry-backoff time, the
//                      per-thread maximum: stalls serialize the thread that
//                      hits them, so the phase pays the worst-stalled
//                      thread's span. Zero in clean runs.
// Every row is deterministic at a fixed seed: host time is measured, not
// modeled, and stays out of this table (MachineStats::phase_host_seconds).
#define TLM_PHASE_STATS(X)             \
  TLM_PHASE_TRAFFIC(X)                 \
  X(u64, partition_splits, Sum)        \
  X(f64, partition_imbalance_max, Max) \
  X(f64, compute_ops_total, Sum)       \
  X(f64, compute_ops_max, Sum)         \
  X(f64, far_s, Sum)                   \
  X(f64, near_s, Sum)                  \
  X(f64, compute_s, Sum)               \
  X(f64, dma_s, Sum)                   \
  X(f64, stall_s, Sum)                 \
  X(f64, seconds, Sum)

// Combined counters, each the exact uint64 sum of its read and write twins:
// X(combined, read, write). PhaseStats derives them as accessors; reports
// still carry them as leaves.
#define TLM_PHASE_COMBINED(X)                                  \
  X(far_blocks, far_read_blocks, far_write_blocks)             \
  X(near_blocks, near_read_blocks, near_write_blocks)          \
  X(far_bursts, far_read_bursts, far_write_bursts)             \
  X(near_bursts, near_read_bursts, near_write_bursts)          \
  X(dma_far_bytes, dma_far_read_bytes, dma_far_write_bytes)    \
  X(dma_near_bytes, dma_near_read_bytes, dma_near_write_bytes) \
  X(dma_far_bursts, dma_far_read_bursts, dma_far_write_bursts) \
  X(dma_near_bursts, dma_near_read_bursts, dma_near_write_bursts)

class Machine;
struct PhaseStats;
namespace obs {
class Json;
PhaseStats phase_from_json(const Json& j);
}  // namespace obs

// One phase of an algorithm (e.g. "phase1.sort_chunks"). Every counter is
// read the same way, `p.field()`, stored or combined. The stored counters
// are private: only the Machine's charge and fold paths and the report
// loader obs::phase_from_json write them.
struct PhaseStats {
  std::string name;

#define TLM_X(kind, field, fold) \
  counters::kind field() const { return field##_; }
  TLM_PHASE_STATS(TLM_X)
#undef TLM_X

#define TLM_X(combined, read, write) \
  std::uint64_t combined() const { return read##_ + write##_; }
  TLM_PHASE_COMBINED(TLM_X)
#undef TLM_X
  std::uint64_t far_bytes() const { return far_read_bytes_ + far_write_bytes_; }
  std::uint64_t near_bytes() const {
    return near_read_bytes_ + near_write_bytes_;
  }
  std::uint64_t dma_bytes() const { return dma_far_bytes() + dma_near_bytes(); }

  PhaseStats& operator+=(const PhaseStats& o) {
#define TLM_X(kind, field, fold) counters::fold::add(field##_, o.field##_);
    TLM_PHASE_STATS(TLM_X)
#undef TLM_X
    return *this;
  }

  // Counter-wise difference of two cumulative PhaseStats snapshots, for
  // attributing machine-lifetime totals to a window of work (the job server
  // brackets each scheduled tenant phase with Machine::totals() snapshots
  // and charges the delta to that tenant). Callers must pass snapshots of
  // the same monotone series (`after` taken later than `before`).
  friend PhaseStats phase_delta(const PhaseStats& after,
                                const PhaseStats& before) {
    PhaseStats d;
    d.name = after.name;
#define TLM_X(kind, field, fold) \
  d.field##_ = counters::fold::delta(after.field##_, before.field##_);
    TLM_PHASE_STATS(TLM_X)
#undef TLM_X
    return d;
  }

 private:
  friend class Machine;
  friend PhaseStats obs::phase_from_json(const obs::Json& j);

#define TLM_X(kind, field, fold) counters::kind field##_ = 0;
  TLM_PHASE_STATS(TLM_X)
#undef TLM_X
};

// Observables of the staged-streaming primitive (scratchpad/stager.hpp):
//   batches            items processed out of a buffer;
//   sync_bytes         gathered synchronously by cores;
//   prefetch_*         gathered by the DMA engine;
//   fallback_direct    oversized items processed from far;
//   restarts           pipeline restarts after a fallback;
//   degrade_to_*       degradation-ladder transitions (double-buffered ->
//                      single-buffered -> direct-from-far) taken under
//                      near-memory pressure instead of aborting.
// One StagerStats per Stager; Machine::note_stager folds them into a
// machine-lifetime aggregate that the observability layer exports.
#define TLM_STAGER_STATS(X)                             \
  X(u64, batches, "stager.batches")                     \
  X(u64, sync_bytes, "stager.sync_bytes")               \
  X(u64, prefetch_batches, "stager.prefetch_batches")   \
  X(u64, prefetch_bytes, "stager.prefetch_bytes")       \
  X(u64, fallback_direct, "stager.fallback_direct")     \
  X(u64, restarts, "stager.restarts")                   \
  X(u64, degrade_to_single, "degrade.to_single_buffer") \
  X(u64, degrade_to_direct, "degrade.to_direct_far")

// Machine-lifetime fault/retry accounting: how often the fallible paths
// were denied (injected, or genuinely exhausted), how callers recovered
// (far fallbacks: near_or_far allocations that went far), and what the
// recovery cost the time model (retry backoff and injected stall time).
#define TLM_FAULT_STATS(X)                                    \
  X(u64, near_alloc_injected, "faults.near_alloc_injected")   \
  X(u64, near_alloc_exhausted, "faults.near_alloc_exhausted") \
  X(u64, near_far_fallbacks, "faults.near_far_fallbacks")     \
  X(u64, dma_injected, "faults.dma_injected")                 \
  X(u64, dma_retries, "retries.dma")                          \
  X(u64, far_stalls, "faults.far_stalls")                     \
  X(f64, backoff_s, "retries.backoff_seconds")                \
  X(f64, stall_s, "faults.stall_seconds")

struct StagerStats {
#define TLM_X(kind, field, metric) counters::kind field = 0;
  TLM_STAGER_STATS(TLM_X)
#undef TLM_X

  StagerStats& operator+=(const StagerStats& o) {
#define TLM_X(kind, field, metric) field += o.field;
    TLM_STAGER_STATS(TLM_X)
#undef TLM_X
    return *this;
  }
};

struct FaultStats {
#define TLM_X(kind, field, metric) counters::kind field = 0;
  TLM_FAULT_STATS(TLM_X)
#undef TLM_X

  FaultStats& operator+=(const FaultStats& o) {
#define TLM_X(kind, field, metric) field += o.field;
    TLM_FAULT_STATS(TLM_X)
#undef TLM_X
    return *this;
  }
};

// Snapshot deltas for the stager/fault aggregates, same contract as
// phase_delta.
inline StagerStats stager_delta(const StagerStats& after,
                                const StagerStats& before) {
  StagerStats d;
#define TLM_X(kind, field, metric) d.field = after.field - before.field;
  TLM_STAGER_STATS(TLM_X)
#undef TLM_X
  return d;
}

inline FaultStats fault_delta(const FaultStats& after,
                              const FaultStats& before) {
  FaultStats d;
#define TLM_X(kind, field, metric) d.field = after.field - before.field;
  TLM_FAULT_STATS(TLM_X)
#undef TLM_X
  return d;
}

struct MachineStats {
  PhaseStats total;                // sums over all closed phases
  std::vector<PhaseStats> phases;  // in begin_phase order
  // Host wall-clock between each phase's begin_phase and end_phase, in
  // `phases` order. It is measured, not modeled, so it sits beside the
  // counters rather than in them; run reports write it under `host`.
  std::vector<double> phase_host_seconds;

  // Line-granularity access counts (64-byte lines unless configured
  // otherwise) — the unit Table I reports. A trailing partial line still
  // costs an access, so the byte total rounds up.
  std::uint64_t far_accesses(std::uint64_t line_bytes) const {
    return ceil_div(total.far_bytes(), line_bytes);
  }
  std::uint64_t near_accesses(std::uint64_t line_bytes) const {
    return ceil_div(total.near_bytes(), line_bytes);
  }

  // Directional line-granularity accesses — what the ω model weighs. Each
  // direction rounds up independently, so far_reads + far_writes may exceed
  // far_accesses by at most one line; the byte totals conserve exactly.
  std::uint64_t far_reads(std::uint64_t line_bytes) const {
    return ceil_div(total.far_read_bytes(), line_bytes);
  }
  std::uint64_t far_writes(std::uint64_t line_bytes) const {
    return ceil_div(total.far_write_bytes(), line_bytes);
  }
  std::uint64_t near_reads(std::uint64_t line_bytes) const {
    return ceil_div(total.near_read_bytes(), line_bytes);
  }
  std::uint64_t near_writes(std::uint64_t line_bytes) const {
    return ceil_div(total.near_write_bytes(), line_bytes);
  }
};

}  // namespace tlm
