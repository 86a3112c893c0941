// Stager — the reusable staged-streaming primitive over Machine (§VI-B).
//
// Streaming a far-resident operand through the scratchpad in Θ(M)-sized
// batches is the canonical two-level pattern (NMsort Phase 2's batch
// gather, the §III bucketizing scan, out-of-core k-means). The recipe is
// always the same and easy to get subtly wrong when hand-rolled:
//
//   * a batch plan — the greedy largest prefix of work items whose total
//     fits one staging buffer, with an escape hatch for a single item
//     larger than the buffer (processed directly from far memory, correct
//     but without the bandwidth advantage),
//   * one or two near staging buffers — two when the machine has an
//     overlapping DMA engine, so the gather of batch i+1 can be posted
//     while batch i is processed out of the other buffer,
//   * the completion fence — the prefetch is issued from inside the
//     processing step's SPMD section (or posted by the orchestrator), and
//     the next barrier (the SPMD join) is where the DMA is known complete,
//   * the pipeline restart — after an oversized fallback nothing was
//     prefetched, so the next staged batch gathers synchronously.
//
// The Stager owns all of it: buffer parity, lazy allocation of the second
// buffer, the synchronous first gather, and per-stager counters
// (StagerStats) that Machine aggregates for the observability layer.
//
// Contract notes:
//   * Buffers are phase-scoped: destroy (or release()) the stager before
//     end_phase() — the model sanitizer enforces this.
//   * In worker-hook mode (Options::worker_hook), run() passes a non-empty
//     hook to the process callback whenever a prefetch is pending; the
//     callback MUST invoke hook(w) exactly once on every worker inside its
//     SPMD section (e.g. via parallel_multiway_merge's per_worker), since
//     the section's join barrier is the transfer's completion fence.
//   * With worker_hook false, the stager posts the DMA descriptors itself
//     from the orchestrating thread before invoking the process callback;
//     any barrier inside the callback fences them.
//   * run() calls Machine::poll_cancel() at the top of every batch
//     iteration — the quiescent point where any previously posted prefetch
//     has been fenced and no worker is running — so a cancelled or
//     deadline-expired job unwinds between batches, never mid-DMA. The
//     unwind rides ~Stager/release(): the buffers are returned (and, under
//     a tenant gate, refunded) like any other early exit.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <source_location>
#include <span>
#include <vector>

#include "scratchpad/machine.hpp"

namespace tlm {

class Stager {
 public:
  // The degradation ladder (ordered, monotonic): under near-memory
  // pressure — a staging-buffer allocation denied by the arena or by a
  // FaultInjector — the stager steps down instead of aborting.
  //   kDouble  both staging buffers available; prefetch pipeline eligible
  //   kSingle  the second buffer was denied; every batch gathers
  //            synchronously into the front buffer (no prefetch overlap)
  //   kDirect  no staging buffer at all; every item is handed to the
  //            process callback with a null data pointer, exactly like the
  //            oversized escape hatch — correct, from far memory
  // Transitions are recorded in StagerStats::degrade_to_{single,direct} and
  // persist for the stager's lifetime (pressure is assumed persistent; a
  // later run() never climbs back up).
  enum class Level { kDouble = 0, kSingle = 1, kDirect = 2 };

  // One contiguous piece of a gather: `bytes` from far-resident `src` land
  // at offset `dst_off` in the staging buffer.
  struct Slice {
    const std::byte* src = nullptr;
    std::uint64_t dst_off = 0;
    std::uint64_t bytes = 0;
  };

  // One unit of the batch plan. A non-oversized item's slices must total
  // `bytes` <= Options::buffer_bytes; an oversized item is handed to the
  // process callback with a null staging pointer and its slices untouched.
  struct Item {
    std::vector<Slice> slices;
    std::uint64_t bytes = 0;
    bool oversized = false;
    std::size_t index = 0;  // caller tag (e.g. position in its own plan)
  };

  // How synchronous gathers (and worker-hook prefetches) split their
  // copies: kParallel issues one burst per worker per slice from an SPMD
  // section; kSequential drives every slice from the orchestrator, for
  // single-threaded pipelines like the §III sequential sort.
  enum class Gather { kSequential, kParallel };

  struct Options {
    std::uint64_t buffer_bytes = 0;  // capacity of one staging buffer
    // Copy-split granularity for kParallel: per-worker splits land on
    // multiples of this (use sizeof(T)), keeping burst boundaries — and
    // therefore ceil-rounded block counts — element-aligned.
    std::uint64_t elem_bytes = 1;
    // Permit the two-buffer pipeline (still requires the machine's
    // overlap_dma and more than one item). Callers set this to "two
    // buffers fit the scratchpad budget".
    bool double_buffer = true;
    Gather gather = Gather::kParallel;
    // True: prefetches ride a per-worker hook through the process
    // callback's SPMD section. False: the orchestrator posts them.
    bool worker_hook = true;
  };

  // The batch plan as ranges over the caller's item-size array: [first,
  // last) with the range's byte total, oversized when a single size
  // exceeds `cap`. Greedy largest-prefix packing, exactly §IV-D's "take
  // the largest prefix of not-yet-consumed buckets that fits".
  struct Range {
    std::size_t first = 0, last = 0;
    std::uint64_t bytes = 0;
    bool oversized = false;
  };

  using WorkerHook = std::function<void(std::size_t)>;
  // data is the staging buffer holding the item's gathered bytes, or
  // nullptr for an oversized fallback item — and for *every* item once the
  // ladder reaches Level::kDirect, so a process callback must treat "null
  // data" as "operate directly on far memory", not "oversized only".
  // `prefetch` is non-empty only in worker-hook mode with a pending
  // prefetch (see contract above).
  using ProcessFn =
      std::function<void(const Item&, std::byte* data,
                         const WorkerHook& prefetch)>;

  Stager(Machine& m, Options opt,
         std::source_location loc = std::source_location::current());
  ~Stager();

  Stager(const Stager&) = delete;
  Stager& operator=(const Stager&) = delete;

  // Streams every item through the staging buffers in order, invoking
  // `process` once per item. May be called multiple times; the pipeline
  // state resets between runs.
  void run(std::span<const Item> items, const ProcessFn& process);

  // Frees the staging buffers early and folds the counters into the
  // Machine's aggregate (idempotent; the destructor calls it).
  void release();

  const StagerStats& stats() const { return stats_; }
  Level level() const { return level_; }

  static std::vector<Range> plan(std::span<const std::uint64_t> sizes,
                                 std::uint64_t cap);

  // Element-typed slice helper: offsets/lengths in elements of T.
  template <typename T>
  static Slice slice_of(const T* src, std::uint64_t dst_off_elems,
                        std::uint64_t len_elems) {
    return Slice{reinterpret_cast<const std::byte*>(src),
                 dst_off_elems * sizeof(T), len_elems * sizeof(T)};
  }

 private:
  std::byte* buffer(std::size_t i);
  void degrade(Level to);
  void sync_gather(const Item& it, std::byte* dst);
  void post_prefetch(const Item& it, std::byte* dst);
  WorkerHook make_hook(const Item& it, std::byte* dst);

  Machine& m_;
  Options opt_;
  std::source_location loc_;
  std::span<std::byte> bufs_[2];
  StagerStats stats_;
  Level level_ = Level::kDouble;
  bool released_ = false;
};

}  // namespace tlm
