// The user-controlled two-level memory machine — the substrate every
// algorithm in this repository runs on.
//
// A Machine owns:
//   * far memory (the regular heap, registered so traces get stable virtual
//     addresses),
//   * a NearArena of M bytes (the scratchpad, §VI-B),
//   * p simulated cores (§IV-A), run on a ThreadPool of
//     h = min(p, host CPUs) host threads,
//   * traffic counters and an analytic time model (the counting backend),
//   * an optional TraceSink — when attached, every operation is also
//     recorded for replay on the cycle-level simulator (the Ariel role).
//
// Algorithms express their memory behaviour explicitly: copy() stages data
// between spaces, stream_read()/stream_write() account for in-place passes,
// compute() charges work, and run_spmd() forks the p cores and joins them.
// Because the data movement is explicit, one implementation of each
// algorithm serves correctness testing, analytic counting, and trace-driven
// simulation.
//
// Simulated cores are not host threads. Host thread i runs the core ids of
// ThreadPool::chunk(p, i, h) one after another, so an SPMD body must never
// wait on another core inside a section: every rendezvous is a run_spmd
// join. Everything per core (the accumulators, the trace streams and their
// fork/join markers) is keyed by core id, so no modeled, traced or
// simulated number depends on h.
#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <source_location>
#include <span>
#include <string>
#include <vector>

#include "common/cancel.hpp"
#include "common/faults.hpp"
#include "common/thread_annotations.hpp"
#include "common/thread_pool.hpp"
#include "scratchpad/arena.hpp"
#include "scratchpad/config.hpp"
#include "scratchpad/counters.hpp"
#include "scratchpad/model_check.hpp"
#include "scratchpad/space.hpp"
#include "trace/sink.hpp"

namespace tlm {

// Per-tenant admission hook for every near allocation. The job server
// (src/server) installs one around each scheduled tenant phase so each
// near byte — fallible or not — is charged against that tenant's quota
// before it reaches the arena. All callbacks run under the Machine's
// alloc_mu_ — implementations need no locking of their own for state
// touched only here, but must not call back into the installing Machine.
//
// Protocol per allocation: admit() may reject (try_alloc_near returns
// nullopt, exactly like arena exhaustion, and the caller degrades; the
// infallible alloc throws ScratchpadError at site server.tenant_quota
// carrying available()); if admit() accepted but the arena itself is full,
// refund() returns the charge; on success granted() records ownership of
// the base pointer. freed() fires for every near deallocation while the
// gate is installed — including pointers the gate never granted (another
// tenant's, or pre-server allocations) — so implementations must track
// ownership and ignore foreign frees.
class NearQuotaGate {
 public:
  virtual ~NearQuotaGate() = default;
  virtual bool admit(std::uint64_t bytes, const std::source_location& loc) = 0;
  virtual void granted(const void* p, std::uint64_t bytes) = 0;
  virtual void refund(std::uint64_t bytes) = 0;
  virtual void freed(const void* p, std::uint64_t bytes) = 0;
  // Bytes admit() would still accept; reported by a denied alloc.
  virtual std::uint64_t available() const = 0;
};

class Stager;
struct DmaTestAccess;

// Retry policy for transient DMA failures (only exercised when a
// FaultInjector is attached): re-issue i waits kDmaRetryBaseS * 2^(i-1)
// seconds, capped at kDmaRetryMaxBackoffS, charged to the issuing core as
// stall time; a transfer failing more than kDmaRetryBudget re-issues in a
// row is a fatal fault.retry_budget.
inline constexpr double kDmaRetryBaseS = 1e-6;
inline constexpr std::uint32_t kDmaRetryBudget = 8;
inline constexpr double kDmaRetryMaxBackoffS = 1e-3;

// Passkey for Machine::dma_copy. A posted transfer is only correct together
// with its completion fence, and Stager is the one primitive that owns both,
// so only Stager can construct a key. DmaTestAccess, which only the tests
// define (tests/dma_test_access.hpp), mints one for the transfers Stager
// never posts, such as near->far writebacks.
class DmaKey {
  DmaKey() = default;
  friend class Stager;
  friend struct DmaTestAccess;
};

class Machine {
 public:
  explicit Machine(TwoLevelConfig cfg, trace::TraceSink* sink = nullptr);
  ~Machine();

  Machine(const Machine&) = delete;
  Machine& operator=(const Machine&) = delete;

  const TwoLevelConfig& config() const { return cfg_; }
  std::size_t threads() const { return cfg_.threads; }

  // ---- memory management -------------------------------------------------
  // The trailing source_location defaults capture the algorithm call site,
  // which the model sanitizer echoes in its diagnostics. Near allocations
  // are quota-gated like try_alloc_near's but never fault-injected.
  std::byte* alloc(Space s, std::uint64_t bytes, std::uint64_t align = 64,
                   std::source_location loc = std::source_location::current());
  void dealloc(Space s, std::byte* p);

  template <typename T>
  std::span<T> alloc_array(
      Space s, std::size_t n,
      std::source_location loc = std::source_location::current()) {
    auto* p = alloc(s, array_bytes(n, sizeof(T)),
                    alignof(T) < 64 ? 64 : alignof(T), loc);
    return {reinterpret_cast<T*>(p), n};
  }
  template <typename T>
  void free_array(Space s, std::span<T> a) {
    dealloc(s, reinterpret_cast<std::byte*>(a.data()));
  }

  // ---- fallible near allocation (the degradation entry point) ------------
  // Like alloc_array(Space::Near, ...) but returns nullopt instead of
  // throwing when the quota gate or the arena cannot satisfy the request —
  // or when an attached FaultInjector denies it (site machine.near_alloc).
  // The optional makes the caller test for denial before touching the span,
  // and [[nodiscard]] (an error under -Werror=unused-result) rejects a call
  // that drops it: degrade by falling back to far memory, shrinking, or
  // stepping a Stager's ladder.
  template <typename T = std::byte>
  [[nodiscard]] std::optional<std::span<T>> try_alloc_near(
      std::size_t n,
      std::source_location loc = std::source_location::current()) {
    std::byte* p = try_alloc_near_bytes(
        array_bytes(n, sizeof(T)), alignof(T) < 64 ? 64 : alignof(T), loc);
    if (p == nullptr) return std::nullopt;
    return std::span<T>{reinterpret_cast<T*>(p), n};
  }

  // Infallible two-level allocation: near when it fits (and injection
  // permits), far otherwise. The far fallback is counted in
  // faults.near_far_fallbacks. Free with the space-inferred free_array
  // overload below.
  template <typename T>
  std::span<T> alloc_array_near_or_far(
      std::size_t n,
      std::source_location loc = std::source_location::current()) {
    if (auto a = try_alloc_near<T>(n, loc)) return *a;
    count_far_fallback();
    return alloc_array<T>(Space::Far, n, loc);
  }

  // Space-inferred frees for pointers that may live in either space (the
  // near_or_far fallbacks above).
  void dealloc(std::byte* p) { dealloc(space_of(p), p); }
  template <typename T>
  void free_array(std::span<T> a) {
    dealloc(reinterpret_cast<std::byte*>(a.data()));
  }

  // Attaches (or detaches, with nullptr) the fault injector consulted by
  // try_alloc_near, dma_copy, and the far charge paths. Not owned.
  void set_fault_injector(FaultInjector* fi) { fi_ = fi; }
  FaultInjector* fault_injector() const { return fi_; }

  // Installs (or clears, with nullptr) the tenant quota gate consulted by
  // every near allocation (alloc and try_alloc_near) and credited by the
  // near dealloc path. Not owned; the caller keeps it alive while installed.
  void set_near_gate(NearQuotaGate* g);
  NearQuotaGate* near_gate() const;
  // Machine-lifetime fault/retry/fallback accounting.
  FaultStats fault_stats() const;

  // Installs (or clears, with nullptr) the cooperative cancellation token
  // consulted by poll_cancel(). Orchestrator-swapped around scheduled
  // phases like the quota gate; not owned. Same single-writer discipline as
  // set_fault_injector: swaps happen only between phases, on the thread
  // that runs them.
  void set_cancel_token(CancelToken* t) { cancel_ = t; }
  CancelToken* cancel_token() const { return cancel_; }

  // Cooperative cancellation checkpoint. Must be called from quiescent
  // orchestrator-side points only (Stager batch boundaries, the job
  // server's phase brackets): a positive answer throws CancelledError
  // through the caller, so no DMA transfer may be in flight and no worker
  // may be mid-section. Checks, in order: an already-requested
  // cancellation, the wall-clock watchdog, and the open phase's modeled
  // seconds against the armed deadline budget. A no-op when no token is
  // installed, so library code may call it unconditionally.
  void poll_cancel();

  // Charges an injected stall to `thread`'s accumulator and the fault
  // totals, extending the open phase's modeled time exactly like a
  // far-stall fire. The job server routes server.slow_phase through this so
  // seeded chaos advances the deterministic deadline clock.
  void charge_stall(std::size_t thread, double seconds);

  // Declares that a live near allocation intentionally spans explicit
  // phases (e.g. NMsort's BucketTot matrix is "scratchpad-resident
  // throughout"), exempting it from the sanitizer's model.phase_leak check.
  // `p` must be the base of a live near allocation; a far pointer (the far
  // fallback of alloc_array_near_or_far) has nothing to retain and is
  // ignored. A no-op outside TLM_CHECK_MODEL builds.
  void retain_across_phases(const void* p);

  // Registers an externally-owned far buffer (e.g. the caller's input array)
  // so traces can address it. Idempotent per base pointer. Earlier
  // adoptions that start inside the buffer are dropped as stale: the caller
  // owns that memory now, so whatever was adopted there has been freed.
  void adopt_far(const void* p, std::uint64_t bytes);

  Space space_of(const void* p) const;
  const NearArena& near_arena() const { return arena_; }

  // ---- instrumented operations (callable from any core's share) ----------
  // Moves bytes between spaces (memmove semantics) and charges both sides.
  void copy(std::size_t thread, void* dst, const void* src,
            std::uint64_t bytes,
            std::source_location loc = std::source_location::current());
  // Like copy(), but the transfer is posted to the DMA engine instead of
  // being driven by the core (§VI-B): the issuing core continues, and the
  // next run_spmd() join is the completion fence. Under
  // `overlap_dma` the time model runs this traffic on a background engine
  // concurrent with core work, and the trace records a DmaCopy descriptor
  // that sim::System routes to its DmaEngine. Callers need a DmaKey.
  void dma_copy(DmaKey, std::size_t thread, void* dst, const void* src,
                std::uint64_t bytes,
                std::source_location loc = std::source_location::current());
  // Parallel staged copy of `n` elements of `elem_bytes` each: [0, n) is
  // split across all cores (parallel_for), and each core copies its
  // contiguous share in one copy() burst. An empty copy opens no SPMD
  // section. Call from the orchestrating thread.
  void parallel_copy(
      void* dst, const void* src, std::uint64_t n, std::uint64_t elem_bytes,
      std::source_location loc = std::source_location::current());
  template <typename T>
  void parallel_copy(
      T* dst, const T* src, std::uint64_t n,
      std::source_location loc = std::source_location::current()) {
    parallel_copy(static_cast<void*>(dst), static_cast<const void*>(src), n,
                  sizeof(T), loc);
  }
  // Accounts for a streaming pass that reads/writes in place (no movement).
  void stream_read(std::size_t thread, const void* p, std::uint64_t bytes,
                   std::source_location loc = std::source_location::current());
  void stream_write(
      std::size_t thread, void* p, std::uint64_t bytes,
      std::source_location loc = std::source_location::current());
  // Charges `ops` units of computation to `thread`.
  void compute(std::size_t thread, double ops);
  // Records the balance of a k-way merge partition: `max_slice` is the
  // largest slice handed to any part, `total`/`parts` the ideal share.
  // Feeds the phase's partition_splits / partition_imbalance_max counters.
  void note_partition(std::size_t thread, std::size_t parts,
                      std::uint64_t max_slice, std::uint64_t total);
  // Folds a finished Stager's counters into the machine-lifetime aggregate
  // (called by Stager::release; algorithms never call this directly).
  void note_stager(const StagerStats& s);
  // Aggregate over every stager that has released on this machine.
  StagerStats stager_stats() const;

  // SPMD section with an implicit join barrier: runs fn(core) once for
  // every core id in [0, p), waits, and records one fork and one join marker
  // per core so the trace replay preserves the fork/join dependency
  // structure. A throwing share skips no other core: every share runs, then
  // the exception of the lowest-numbered core that threw reaches the caller.
  void run_spmd(const std::function<void(std::size_t)>& fn);
  // Same, over static contiguous chunks of [begin, end).
  void parallel_for(std::size_t begin, std::size_t end,
                    const std::function<void(std::size_t, std::size_t,
                                             std::size_t)>& fn);

  // ---- phase structure (call from the orchestrating thread) --------------
  void begin_phase(std::string name);
  void end_phase();

  // Aggregated statistics; finalizes an open phase view without closing it.
  MachineStats stats() const;
  // Machine-lifetime totals without copying the per-phase vector — O(p)
  // instead of O(#phases), so long-lived callers (the job server snapshots
  // totals around every scheduled phase) stay cheap as phases accumulate.
  PhaseStats totals() const;
  // Per-thread compute accumulated in the currently open phase — for load
  // balance diagnostics.
  std::vector<double> thread_ops() const {
    std::vector<double> out(acc_.size());
    for (std::size_t i = 0; i < acc_.size(); ++i) out[i] = acc_[i].ops;
    return out;
  }
  // Total modeled seconds, the open phase's included: totals().seconds().
  double elapsed_seconds() const;

  // Virtual address of a host pointer under the trace layout. Exposed for
  // tests and the capture layer.
  std::uint64_t vaddr_of(const void* p) const;

 private:
  // Index of each directional counter in ThreadAcc::traffic, in
  // TLM_PHASE_TRAFFIC row order.
  struct Slot {
    enum : std::size_t {
#define TLM_X(kind, field, fold) field,
      TLM_PHASE_TRAFFIC(TLM_X)
#undef TLM_X
      kCount
    };
  };
  struct alignas(64) ThreadAcc {
    std::array<std::uint64_t, Slot::kCount> traffic{};
    std::uint64_t partition_splits = 0;
    double partition_imbalance = 0;
    double ops = 0;
    double stall = 0;  // injected stalls + retry backoff charged to this core
  };

  // n * elem_bytes; a count whose byte size would wrap is refused.
  static std::uint64_t array_bytes(std::size_t n, std::size_t elem_bytes);

  // The one charge path behind copy, dma_copy and the stream calls.
  void charge(std::size_t thread, const void* p, std::uint64_t bytes,
              bool is_write, const std::source_location& loc,
              bool via_dma = false);
  void consult_far_stall(std::size_t thread);
  void dma_retry_gate(std::size_t thread, std::uint64_t bytes,
                      const std::source_location& loc);
  void count_far_fallback();
  // try_alloc_near's untyped body: the machine.near_alloc injector check,
  // then alloc_near_locked. nullptr on any denial.
  std::byte* try_alloc_near_bytes(std::uint64_t bytes, std::uint64_t align,
                                  const std::source_location& loc);
  // The one near-allocation body behind alloc(Space::Near) and
  // try_alloc_near: gate admit, arena, granted/refund, sanitizer shadow.
  // Fallible callers get nullptr on a gate denial or a full arena; the
  // infallible ones get the typed ScratchpadError instead.
  std::byte* alloc_near_locked(std::uint64_t bytes, std::uint64_t align,
                               const std::source_location& loc,
                               bool fallible) TLM_REQUIRES(alloc_mu_);
  void fold_open_phase(PhaseStats& out) const;
  // The open phase folded, unnamed; nullopt when no phase is open or
  // nothing was charged in it.
  std::optional<PhaseStats> folded_open_phase() const;
  // Host wall-clock since the open phase began.
  double phase_host_seconds() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         phase_start_)
        .count();
  }
  // Drops the adopted regions that start inside live far memory
  // [base, base + bytes); left in place they would misattribute charges and
  // trace addresses in that memory.
  void drop_stale_adoptions(const std::byte* base, std::uint64_t bytes)
      TLM_REQUIRES(alloc_mu_);

  TwoLevelConfig cfg_;
  ThreadPool pool_;
  NearArena arena_;
  trace::TraceSink* sink_;

  // alloc_mu_ guards the far registry, the arena's allocation maps (all
  // allocate/deallocate calls happen under it), and the sanitizer shadow
  // state. The hot charge path stays lock-free (per-thread accumulators);
  // it only takes alloc_mu_ for trace vaddr resolution and model checks.
  mutable Mutex alloc_mu_;
  // Far registry: host base -> (length, trace virtual base).
  struct FarRegion {
    std::uint64_t bytes;
    std::uint64_t vbase;
    bool owned;
  };
  std::map<const std::byte*, FarRegion> far_regions_ TLM_GUARDED_BY(alloc_mu_);
  std::uint64_t next_far_vbase_ TLM_GUARDED_BY(alloc_mu_) = trace::kFarBase;
  StagerStats stager_totals_ TLM_GUARDED_BY(alloc_mu_);

  // Optional chaos layer: consulted only on fallible paths, so a schedule
  // can never crash code that did not opt into degradation. nullptr (the
  // default) keeps every fault hook a single predictable branch.
  FaultInjector* fi_ = nullptr;
  FaultStats fault_stats_ TLM_GUARDED_BY(alloc_mu_);

  // Cancellation token: read only by poll_cancel() on the thread that also
  // installs it (the phase orchestrator), so a plain pointer suffices.
  CancelToken* cancel_ = nullptr;

  // Tenant quota gate: consulted in alloc_near_locked and credited in the
  // near dealloc path, both of which already hold alloc_mu_, so gate swaps
  // and gate callbacks are mutually serialized.
  NearQuotaGate* gate_ TLM_GUARDED_BY(alloc_mu_) = nullptr;

#if TLM_MODEL_CHECKS_ENABLED
  // Shadow per-allocation state for the model sanitizer: which phase an
  // allocation was born in and where, so end_phase() can name leaks.
  struct ShadowNearAlloc {
    std::uint64_t bytes;
    std::uint64_t phase_epoch;
    bool born_in_explicit_phase;
    bool retained;
    std::string phase;
    std::source_location site;
  };
  std::map<std::uint64_t, ShadowNearAlloc> shadow_near_
      TLM_GUARDED_BY(alloc_mu_);  // keyed by arena offset
  std::uint64_t phase_epoch_ TLM_GUARDED_BY(alloc_mu_) = 0;
  bool phase_is_explicit_ TLM_GUARDED_BY(alloc_mu_) = false;

  void check_capacity(std::uint64_t bytes, const std::source_location& loc)
      const TLM_REQUIRES(alloc_mu_);
  void check_charge(const void* p, std::uint64_t bytes,
                    const std::source_location& loc) const;
  void check_dma_granularity(const void* dst, const void* src,
                             std::uint64_t bytes,
                             const std::source_location& loc) const;
  void check_phase_end() const;
  void advance_phase_epoch(bool next_is_explicit);
  std::string open_phase_name() const {
    return open_phase_ ? *open_phase_ : "(none)";
  }
#endif

  std::vector<ThreadAcc> acc_;
  std::atomic<std::uint64_t> barrier_id_{0};

  std::optional<std::string> open_phase_;
  std::chrono::steady_clock::time_point phase_start_ =
      std::chrono::steady_clock::now();
  MachineStats stats_;
};

}  // namespace tlm
