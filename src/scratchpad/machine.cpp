#include "scratchpad/machine.hpp"

#include <algorithm>
#include <cstring>
#include <exception>
#include <iterator>
#include <new>

#include "common/math.hpp"

namespace tlm {

namespace {
constexpr std::uint64_t kFarRegionAlign = 4096;  // trace vaddr granularity
constexpr std::uint64_t kFarAllocAlign = 64;
}  // namespace

Machine::Machine(TwoLevelConfig cfg, trace::TraceSink* sink)
    : cfg_(cfg),
      pool_(std::min(cfg.threads, ThreadPool::host_cpus())),
      arena_(cfg.near_capacity),
      sink_(sink),
      acc_(cfg.threads) {
  cfg_.validate();
  open_phase_ = "(run)";
}

Machine::~Machine() {
  // Release any far allocations the machine still owns.
  MutexLock lock(alloc_mu_);
  for (auto& [base, region] : far_regions_) {
    if (region.owned)
      ::operator delete(const_cast<std::byte*>(base),
                        std::align_val_t{kFarAllocAlign});
  }
}

std::uint64_t Machine::array_bytes(std::size_t n, std::size_t elem_bytes) {
  TLM_REQUIRE(n <= UINT64_MAX / elem_bytes, "array byte size overflows");
  return n * elem_bytes;
}

std::byte* Machine::alloc(Space s, std::uint64_t bytes, std::uint64_t align,
                          std::source_location loc) {
  TLM_REQUIRE(bytes > 0, "zero-byte allocation");
  MutexLock lock(alloc_mu_);
  if (s == Space::Near)
    return alloc_near_locked(bytes, align, loc, /*fallible=*/false);
  TLM_REQUIRE(align <= kFarAllocAlign, "far allocations are 64-byte aligned");
  auto* p = static_cast<std::byte*>(
      ::operator new(bytes, std::align_val_t{kFarAllocAlign}));
  FarRegion region{bytes, next_far_vbase_, /*owned=*/true};
  next_far_vbase_ += round_up(bytes, kFarRegionAlign);
  // The heap may hand back an address a caller previously adopted and has
  // since freed; the fresh allocation supersedes any stale registry entry.
  far_regions_.insert_or_assign(p, region);
  drop_stale_adoptions(p, bytes);
  return p;
}

void Machine::drop_stale_adoptions(const std::byte* base,
                                   std::uint64_t bytes) {
  auto it = far_regions_.upper_bound(base);
  while (it != far_regions_.end() && it->first < base + bytes)
    it = it->second.owned ? std::next(it) : far_regions_.erase(it);
}

std::byte* Machine::try_alloc_near_bytes(std::uint64_t bytes,
                                         std::uint64_t align,
                                         const std::source_location& loc) {
  TLM_REQUIRE(bytes > 0, "zero-byte allocation");
  MutexLock lock(alloc_mu_);
  if (fi_ && fi_->should_fail(fault_site::kNearAlloc)) {
    // Injected denial: the arena is untouched, so infallible alloc() calls
    // that fit the clean run still fit under any schedule.
    ++fault_stats_.near_alloc_injected;
    return nullptr;
  }
  return alloc_near_locked(bytes, align, loc, /*fallible=*/true);
}

std::byte* Machine::alloc_near_locked(std::uint64_t bytes, std::uint64_t align,
                                      const std::source_location& loc,
                                      bool fallible) {
  // Tenant quota gate: on the fallible path a rejection looks exactly like
  // arena exhaustion (nullptr), so the degradation ladder handles both —
  // an over-quota tenant steps its own Stagers toward direct-from-far
  // without ever touching the shared arena. The gate runs before
  // check_capacity so both builds raise the same typed error.
  if (gate_ && !gate_->admit(bytes, loc)) {
    if (fallible) return nullptr;
    throw ScratchpadError(fault_site::kTenantQuota, bytes,
                          gate_->available());
  }
#if TLM_MODEL_CHECKS_ENABLED
  // Genuine exhaustion is a recoverable outcome of the fallible API, not a
  // model violation: the model.capacity abort is the infallible path's.
  if (!fallible) check_capacity(bytes, loc);
#endif
  std::byte* p = nullptr;
  try {
    p = arena_.allocate(bytes, align);
  } catch (const std::bad_alloc&) {
    if (gate_) gate_->refund(bytes);
    if (!fallible) throw;
    ++fault_stats_.near_alloc_exhausted;
    return nullptr;
  }
  if (gate_) gate_->granted(p, bytes);
#if TLM_MODEL_CHECKS_ENABLED
  shadow_near_.insert_or_assign(
      arena_.offset_of(p),
      ShadowNearAlloc{bytes, phase_epoch_, phase_is_explicit_,
                      /*retained=*/false, open_phase_name(), loc});
#else
  (void)loc;
#endif
  return p;
}

void Machine::count_far_fallback() {
  MutexLock lock(alloc_mu_);
  ++fault_stats_.near_far_fallbacks;
}

FaultStats Machine::fault_stats() const {
  MutexLock lock(alloc_mu_);
  return fault_stats_;
}

void Machine::poll_cancel() {
  CancelToken* t = cancel_;
  if (t == nullptr) return;
  if (t->requested() != CancelReason::kNone) throw CancelledError(t->requested());
  const double wall = t->wall_budget_s();
  if (wall > 0 && t->wall_elapsed_s() > wall) {
    t->request(CancelReason::kWatchdog);
    throw CancelledError(t->requested());
  }
  const double budget = t->model_budget_s();
  if (budget > 0) {
    PhaseStats open;
    fold_open_phase(open);
    if (open.seconds() > budget) {
      t->request(CancelReason::kDeadline);
      throw CancelledError(t->requested());
    }
  }
}

void Machine::charge_stall(std::size_t thread, double seconds) {
  TLM_CHECK(thread < acc_.size(), "thread id out of range");
  if (seconds <= 0) return;
  acc_[thread].stall += seconds;
  MutexLock lock(alloc_mu_);
  fault_stats_.stall_s += seconds;
}

void Machine::set_near_gate(NearQuotaGate* g) {
  MutexLock lock(alloc_mu_);
  gate_ = g;
}

NearQuotaGate* Machine::near_gate() const {
  MutexLock lock(alloc_mu_);
  return gate_;
}

void Machine::dealloc(Space s, std::byte* p) {
  MutexLock lock(alloc_mu_);
  if (s == Space::Near) {
    if (gate_) {
      // Credit the installed gate before the block metadata disappears; the
      // gate ignores pointers it never granted (another tenant's, or
      // pre-server allocations), so this is safe to fire unconditionally.
      const auto blk = arena_.live_block_of(arena_.offset_of(p));
      if (blk) gate_->freed(p, blk->second);
    }
#if TLM_MODEL_CHECKS_ENABLED
    shadow_near_.erase(arena_.offset_of(p));
#endif
    arena_.deallocate(p);
    return;
  }
  auto it = far_regions_.find(p);
  TLM_REQUIRE(it != far_regions_.end() && it->second.owned,
              "unknown far pointer");
  ::operator delete(p, std::align_val_t{kFarAllocAlign});
  far_regions_.erase(it);
}

void Machine::retain_across_phases([[maybe_unused]] const void* p) {
#if TLM_MODEL_CHECKS_ENABLED
  if (!arena_.contains(p)) return;  // far memory is never a phase leak
  MutexLock lock(alloc_mu_);
  auto it = shadow_near_.find(arena_.offset_of(p));
  TLM_REQUIRE(it != shadow_near_.end(),
              "retain_across_phases: not a live allocation base");
  it->second.retained = true;
#endif
}

void Machine::adopt_far(const void* p, std::uint64_t bytes) {
  TLM_REQUIRE(p != nullptr && bytes > 0, "cannot adopt an empty region");
  TLM_REQUIRE(!arena_.contains(p), "near pointers are already registered");
  MutexLock lock(alloc_mu_);
  const auto* base = static_cast<const std::byte*>(p);
  auto it = far_regions_.find(base);
  if (it != far_regions_.end()) {
    it->second.bytes = std::max(it->second.bytes, bytes);
  } else {
    far_regions_.emplace(base,
                         FarRegion{bytes, next_far_vbase_, /*owned=*/false});
    next_far_vbase_ += round_up(bytes, kFarRegionAlign);
  }
  drop_stale_adoptions(base, bytes);
}

Space Machine::space_of(const void* p) const {
  return arena_.contains(p) ? Space::Near : Space::Far;
}

std::uint64_t Machine::vaddr_of(const void* p) const {
  if (arena_.contains(p)) return trace::kNearBase + arena_.offset_of(p);
  MutexLock lock(alloc_mu_);
  const auto* b = static_cast<const std::byte*>(p);
  auto it = far_regions_.upper_bound(b);
  TLM_REQUIRE(it != far_regions_.begin(), "far pointer was never registered");
  --it;
  TLM_REQUIRE(b < it->first + it->second.bytes,
              "pointer past the end of its far region");
  return it->second.vbase + static_cast<std::uint64_t>(b - it->first);
}

void Machine::charge(std::size_t thread, const void* p, std::uint64_t bytes,
                     bool is_write, const std::source_location& loc,
                     bool via_dma) {
  TLM_CHECK(thread < acc_.size(), "thread id out of range");
#if TLM_MODEL_CHECKS_ENABLED
  check_charge(p, bytes, loc);
#else
  (void)loc;
#endif
  // Each quantity's four slots run far read, far write, near read, near
  // write, so one lane offset picks the right counter in all five.
  constexpr auto lanes = [](std::size_t fr, std::size_t fw, std::size_t nr,
                            std::size_t nw) {
    return fw == fr + 1 && nr == fr + 2 && nw == fr + 3;
  };
  static_assert(lanes(Slot::far_read_bytes, Slot::far_write_bytes,
                      Slot::near_read_bytes, Slot::near_write_bytes));
  static_assert(lanes(Slot::far_read_blocks, Slot::far_write_blocks,
                      Slot::near_read_blocks, Slot::near_write_blocks));
  static_assert(lanes(Slot::far_read_bursts, Slot::far_write_bursts,
                      Slot::near_read_bursts, Slot::near_write_bursts));
  static_assert(lanes(Slot::dma_far_read_bytes, Slot::dma_far_write_bytes,
                      Slot::dma_near_read_bytes, Slot::dma_near_write_bytes));
  static_assert(lanes(Slot::dma_far_read_bursts, Slot::dma_far_write_bursts,
                      Slot::dma_near_read_bursts,
                      Slot::dma_near_write_bursts));
  const bool near = space_of(p) == Space::Near;
  const std::size_t lane = (near ? 2 : 0) + (is_write ? 1 : 0);
  auto& t = acc_[thread].traffic;
  t[Slot::far_read_bytes + lane] += bytes;
  t[Slot::far_read_blocks + lane] +=
      ceil_div(bytes, near ? cfg_.near_block_bytes() : cfg_.block_bytes);
  t[Slot::far_read_bursts + lane] += 1;
  if (via_dma) {
    t[Slot::dma_far_read_bytes + lane] += bytes;
    t[Slot::dma_far_read_bursts + lane] += 1;
  }
  if (!near && fi_) consult_far_stall(thread);
  if (sink_ && !via_dma) {
    if (is_write)
      sink_->on_write(thread, vaddr_of(p), bytes);
    else
      sink_->on_read(thread, vaddr_of(p), bytes);
  }
}

void Machine::consult_far_stall(std::size_t thread) {
  const double s = fi_->consult_stall(fault_site::kFarStall);
  if (s <= 0) return;
  acc_[thread].stall += s;
  MutexLock lock(alloc_mu_);
  ++fault_stats_.far_stalls;
  fault_stats_.stall_s += s;
}

// Consulted by dma_copy before the transfer: an injected descriptor stall
// just charges time; a transient failure is re-issued with bounded
// exponential backoff (base * 2^(attempt-1), capped), every pause charged
// to the issuing core as stall time. A streak longer than the retry budget
// is fatal — at that point the transfer is not transiently failing.
void Machine::dma_retry_gate(std::size_t thread, std::uint64_t bytes,
                             const std::source_location& loc) {
  const double stall = fi_->consult_stall(fault_site::kDmaStall);
  if (stall > 0) {
    acc_[thread].stall += stall;
    MutexLock lock(alloc_mu_);
    fault_stats_.stall_s += stall;
  }
  std::uint32_t attempt = 0;
  double backoff = kDmaRetryBaseS;
  // A transfer draws all its attempts under the lock, so a burst schedule
  // fails one transfer's retries instead of splitting them across workers
  // that post DMA at the same moment.
  MutexLock lock(alloc_mu_);
  while (fi_->should_fail(fault_site::kDmaFail)) {
    ++attempt;
    if (attempt > kDmaRetryBudget) {
      fault_fatal(fault_rule::kRetryBudget, fault_site::kDmaFail,
                  "dma_copy of " + std::to_string(bytes) +
                      " bytes on thread " + std::to_string(thread) +
                      " failed " + std::to_string(attempt) +
                      " consecutive times (budget " +
                      std::to_string(kDmaRetryBudget) + ") at " +
                      std::string(loc.file_name()) + ":" +
                      std::to_string(loc.line()));
    }
    const double pause = std::min(backoff, kDmaRetryMaxBackoffS);
    acc_[thread].stall += pause;
    backoff *= 2;
    ++fault_stats_.dma_injected;
    ++fault_stats_.dma_retries;
    fault_stats_.backoff_s += pause;
  }
}

void Machine::copy(std::size_t thread, void* dst, const void* src,
                   std::uint64_t bytes, std::source_location loc) {
  if (bytes == 0) return;
#if TLM_MODEL_CHECKS_ENABLED
  check_dma_granularity(dst, src, bytes, loc);
#endif
  std::memmove(dst, src, bytes);
  charge(thread, src, bytes, /*is_write=*/false, loc);
  charge(thread, dst, bytes, /*is_write=*/true, loc);
}

void Machine::dma_copy(DmaKey, std::size_t thread, void* dst,
                       const void* src, std::uint64_t bytes,
                       std::source_location loc) {
  // Before dma_retry_gate, which charges per-thread and fault state.
  TLM_CHECK(thread < acc_.size(), "thread id out of range");
  if (bytes == 0) return;
#if TLM_MODEL_CHECKS_ENABLED
  check_dma_granularity(dst, src, bytes, loc);
#endif
  if (fi_) dma_retry_gate(thread, bytes, loc);
  // Host semantics are identical to copy() — the data really moves now; the
  // model treats the transfer as engine-driven, so the bytes land in the
  // dma_* accumulators and the trace carries one descriptor instead of a
  // core read+write burst pair.
  std::memmove(dst, src, bytes);
  charge(thread, src, bytes, /*is_write=*/false, loc, /*via_dma=*/true);
  charge(thread, dst, bytes, /*is_write=*/true, loc, /*via_dma=*/true);
  if (sink_) sink_->on_dma(thread, vaddr_of(dst), vaddr_of(src), bytes);
}

void Machine::note_partition(std::size_t thread, std::size_t parts,
                             std::uint64_t max_slice, std::uint64_t total) {
  TLM_CHECK(thread < acc_.size(), "thread id out of range");
  if (parts == 0 || total == 0) return;
  auto& a = acc_[thread];
  a.partition_splits += 1;
  const double ideal =
      static_cast<double>(total) / static_cast<double>(parts);
  const double ratio = static_cast<double>(max_slice) / ideal;
  a.partition_imbalance = std::max(a.partition_imbalance, ratio);
}

void Machine::stream_read(std::size_t thread, const void* p,
                          std::uint64_t bytes, std::source_location loc) {
  if (bytes) charge(thread, p, bytes, /*is_write=*/false, loc);
}

void Machine::stream_write(std::size_t thread, void* p, std::uint64_t bytes,
                           std::source_location loc) {
  if (bytes) charge(thread, p, bytes, /*is_write=*/true, loc);
}

void Machine::compute(std::size_t thread, double ops) {
  TLM_CHECK(thread < acc_.size(), "thread id out of range");
  acc_[thread].ops += ops;
  if (sink_ && ops > 0) sink_->on_compute(thread, ops);
}

void Machine::note_stager(const StagerStats& s) {
  MutexLock lock(alloc_mu_);
  stager_totals_ += s;
}

StagerStats Machine::stager_stats() const {
  MutexLock lock(alloc_mu_);
  return stager_totals_;
}

void Machine::run_spmd(const std::function<void(std::size_t)>& fn) {
  if (sink_) {
    // The fork is a rendezvous too: everything the orchestrator did before
    // dispatch happens-before every core's section ops (the pool handoff
    // is the host-side edge). Without this marker an offline analyzer
    // (analyze/racecheck.hpp) would see the orchestrator's sequential-tail
    // writes as concurrent with the section that reads them.
    const std::uint64_t fork_id =
        barrier_id_.fetch_add(1, std::memory_order_acq_rel);
    for (std::size_t t = 0; t < cfg_.threads; ++t)
      sink_->on_barrier(t, fork_id);
  }
  // Each host thread runs its block of core ids in order (one core each
  // when h == p); a throwing core does not skip the rest of the block.
  pool_.run_spmd([&fn, this](std::size_t host) {
    const auto [lo, hi] = ThreadPool::chunk(cfg_.threads, host, pool_.size());
    std::exception_ptr error;
    for (std::size_t core = lo; core < hi; ++core) {
      try {
        fn(core);
      } catch (...) {
        if (!error) error = std::current_exception();
      }
    }
    if (error) std::rethrow_exception(error);
  });
  if (sink_) {
    // The join is a rendezvous of every core: record it in each stream.
    // Emitted from the orchestrating thread, after all host threads are idle.
    const std::uint64_t id =
        barrier_id_.fetch_add(1, std::memory_order_acq_rel);
    for (std::size_t t = 0; t < cfg_.threads; ++t) sink_->on_barrier(t, id);
  }
}

void Machine::parallel_copy(void* dst, const void* src, std::uint64_t n,
                            std::uint64_t elem_bytes,
                            std::source_location loc) {
  if (n == 0) return;
  auto* d = static_cast<std::byte*>(dst);
  const auto* s = static_cast<const std::byte*>(src);
  parallel_for(0, static_cast<std::size_t>(n),
               [&](std::size_t w, std::size_t lo, std::size_t hi) {
                 copy(w, d + lo * elem_bytes, s + lo * elem_bytes,
                      static_cast<std::uint64_t>(hi - lo) * elem_bytes, loc);
               });
}

void Machine::parallel_for(
    std::size_t begin, std::size_t end,
    const std::function<void(std::size_t, std::size_t, std::size_t)>& fn) {
  TLM_REQUIRE(begin <= end, "empty-forward range required");
  const std::size_t n = end - begin;
  run_spmd([&](std::size_t w) {
    auto [lo, hi] = ThreadPool::chunk(n, w, cfg_.threads);
    if (lo < hi) fn(w, begin + lo, begin + hi);
  });
}

void Machine::begin_phase(std::string name) {
  end_phase();
  open_phase_ = std::move(name);
#if TLM_MODEL_CHECKS_ENABLED
  advance_phase_epoch(/*next_is_explicit=*/true);
#endif
  phase_start_ = std::chrono::steady_clock::now();
}

void Machine::end_phase() {
  if (!open_phase_) return;
#if TLM_MODEL_CHECKS_ENABLED
  check_phase_end();
#endif
  if (std::optional<PhaseStats> phase = folded_open_phase()) {
    phase->name = *open_phase_;
    stats_.total += *phase;
    stats_.phases.push_back(std::move(*phase));
    stats_.phase_host_seconds.push_back(phase_host_seconds());
  }
  std::fill(acc_.begin(), acc_.end(), ThreadAcc{});
  // Fall back to the implicit phase so traffic charged after an explicit
  // end_phase() still lands in stats() instead of being dropped silently.
  open_phase_ = "(run)";
#if TLM_MODEL_CHECKS_ENABLED
  advance_phase_epoch(/*next_is_explicit=*/false);
#endif
  phase_start_ = std::chrono::steady_clock::now();
}

#if TLM_MODEL_CHECKS_ENABLED

void Machine::check_capacity(std::uint64_t bytes,
                             const std::source_location& loc) const {
  if (arena_.used() + bytes <= arena_.capacity()) return;
  model_check_fail(
      model_rule::kCapacity, open_phase_name(),
      "scratchpad allocation of " + std::to_string(bytes) +
          " bytes would push occupancy to " +
          std::to_string(arena_.used() + bytes) + " of M = " +
          std::to_string(arena_.capacity()) + " bytes",
      loc);
}

void Machine::check_charge(const void* p, std::uint64_t bytes,
                           const std::source_location& loc) const {
  // Line-rounded probes (galloping merge lookahead, sweep reads) may run a
  // ragged tail past the end of a region; the model charges whole blocks
  // for those anyway, so tolerate up to one far line of overshoot.
  const std::uint64_t slack = cfg_.block_bytes;
  if (arena_.contains(p)) {
    const std::uint64_t off = arena_.offset_of(p);
    MutexLock lock(alloc_mu_);
    const auto block = arena_.live_block_of(off);
    if (!block) {
      model_check_fail(model_rule::kSpaceAttribution, open_phase_name(),
                       "near charge of " + std::to_string(bytes) +
                           " bytes at arena offset " + std::to_string(off) +
                           " hits no live scratchpad allocation "
                           "(freed or never allocated)",
                       loc);
    }
    if (off + bytes > block->first + block->second + slack) {
      model_check_fail(model_rule::kSpaceAttribution, open_phase_name(),
                       "near charge of " + std::to_string(bytes) +
                           " bytes at arena offset " + std::to_string(off) +
                           " overruns its allocation [" +
                           std::to_string(block->first) + ", " +
                           std::to_string(block->first + block->second) + ")",
                       loc);
    }
    return;
  }
  // Far charge: it must never claim DRAM cost for scratchpad-resident
  // bytes...
  const auto* b = static_cast<const std::byte*>(p);
  const std::byte* arena_lo = arena_.base();
  const std::byte* arena_hi = arena_lo + arena_.capacity();
  if (b < arena_hi && b + bytes > arena_lo) {
    model_check_fail(model_rule::kSpaceAttribution, open_phase_name(),
                     "far charge of " + std::to_string(bytes) +
                         " bytes overlaps the scratchpad — DRAM traffic "
                         "charged for near-resident data",
                     loc);
  }
  // ...and when it starts inside a registered far region it must stay
  // inside it. Unregistered far pointers (plain heap the caller never
  // adopted) are legal in counting-only runs and stay unchecked.
  MutexLock lock(alloc_mu_);
  auto it = far_regions_.upper_bound(b);
  if (it == far_regions_.begin()) return;
  --it;
  if (b >= it->first + it->second.bytes) return;
  if (b + bytes > it->first + it->second.bytes + slack) {
    model_check_fail(model_rule::kSpaceAttribution, open_phase_name(),
                     "far charge of " + std::to_string(bytes) +
                         " bytes overruns its registered region of " +
                         std::to_string(it->second.bytes) + " bytes",
                     loc);
  }
}

void Machine::check_dma_granularity(const void* dst, const void* src,
                                    std::uint64_t bytes,
                                    const std::source_location& loc) const {
  if (!cfg_.strict_dma_lines) return;
  const bool dst_near = arena_.contains(dst);
  const bool src_near = arena_.contains(src);
  if (dst_near == src_near) return;  // not a cross-space DMA
  const void* nearp = dst_near ? dst : src;
  const std::uint64_t line = cfg_.near_block_bytes();
  const std::uint64_t off = arena_.offset_of(nearp);
  MutexLock lock(alloc_mu_);
  const auto block = arena_.live_block_of(off);
  if (!block) return;  // attribution check reports this one
  const std::uint64_t rel = off - block->first;
  const bool aligned = rel % line == 0;
  // Whole lines only, except a trailing partial line flush at the end of
  // the allocation (the model ceil-rounds that to a full line anyway).
  const bool whole =
      bytes % line == 0 || rel + bytes >= block->second;
  if (aligned && whole) return;
  model_check_fail(
      model_rule::kLineGranularity, open_phase_name(),
      "cross-space copy of " + std::to_string(bytes) +
          " bytes at line offset " + std::to_string(rel % line) +
          " within its allocation is not rho*B-line granular (line = " +
          std::to_string(line) + " bytes, strict_dma_lines = true)",
      loc);
}

void Machine::check_phase_end() const {
  MutexLock lock(alloc_mu_);
  if (!phase_is_explicit_) return;  // implicit "(run)" phases are exempt
  for (const auto& [off, a] : shadow_near_) {
    if (a.phase_epoch != phase_epoch_ || a.retained) continue;
    model_check_fail(
        model_rule::kPhaseLeak, open_phase_name(),
        "allocation of " + std::to_string(a.bytes) +
            " bytes (arena offset " + std::to_string(off) +
            ", allocated at " + std::string(a.site.file_name()) + ":" +
            std::to_string(a.site.line()) +
            ") is still live at end_phase(); free it or mark it with "
            "retain_across_phases()",
        a.site);
  }
}

void Machine::advance_phase_epoch(bool next_is_explicit) {
  MutexLock lock(alloc_mu_);
  ++phase_epoch_;
  phase_is_explicit_ = next_is_explicit;
}

#endif  // TLM_MODEL_CHECKS_ENABLED

void Machine::fold_open_phase(PhaseStats& out) const {
  for (const auto& a : acc_) {
#define TLM_X(kind, field, fold) out.field##_ += a.traffic[Slot::field];
    TLM_PHASE_TRAFFIC(TLM_X)
#undef TLM_X
    out.partition_splits_ += a.partition_splits;
    out.partition_imbalance_max_ =
        std::max(out.partition_imbalance_max_, a.partition_imbalance);
    out.compute_ops_total_ += a.ops;
    out.compute_ops_max_ = std::max(out.compute_ops_max_, a.ops);
    out.stall_s_ = std::max(out.stall_s_, a.stall);
  }
  // Per-burst access latencies amortize across the p cores issuing them.
  const double p = static_cast<double>(cfg_.threads);
  // Asymmetric ω model (Blelloch et al.): a far write costs ω× a far read
  // in both bandwidth occupancy and per-burst latency. Near memory stays
  // symmetric. At ω = 1 this is the symmetric model bit for bit: counts
  // below 2^53 convert to double exactly, and so does their sum.
  const double omega = cfg_.far_write_cost;
  const auto far_time = [&](std::uint64_t read_bytes, std::uint64_t write_bytes,
                            std::uint64_t read_bursts,
                            std::uint64_t write_bursts) {
    return (static_cast<double>(read_bytes) +
            omega * static_cast<double>(write_bytes)) /
               cfg_.far_bw +
           (static_cast<double>(read_bursts) +
            omega * static_cast<double>(write_bursts)) *
               cfg_.far_latency / p;
  };
  out.far_s_ = far_time(out.far_read_bytes_, out.far_write_bytes_,
                        out.far_read_bursts_, out.far_write_bursts_);
  out.near_s_ = static_cast<double>(out.near_bytes()) / cfg_.near_bw() +
                static_cast<double>(out.near_bursts()) * cfg_.near_latency / p;
  out.compute_s_ = out.compute_ops_max_ / cfg_.core_rate;
  // Overlap model (§VI-B): only traffic posted through dma_copy() runs on
  // the background engine. The engine pipelines its far reads into near
  // writes, so its busy time is the slower of its two sides; the cores'
  // serial time covers everything they still drive themselves. Without
  // overlap_dma the engine waits like the paper's prototype ("simply waits
  // for the transfer to complete") and everything serializes. The far side
  // of the engine is ω-weighted like the core-driven far traffic, so the
  // overlap subtraction below stays consistent at any ω.
  const double dma_far_s =
      far_time(out.dma_far_read_bytes_, out.dma_far_write_bytes_,
               out.dma_far_read_bursts_, out.dma_far_write_bursts_);
  const double dma_near_s =
      static_cast<double>(out.dma_near_bytes()) / cfg_.near_bw() +
      static_cast<double>(out.dma_near_bursts()) * cfg_.near_latency / p;
  out.dma_s_ = std::max(dma_far_s, dma_near_s);
  // Injected stalls and retry backoff serialize the core that hits them, so
  // they extend the cores' serial time by the worst-stalled thread's span
  // (stall_s); the background engine's busy time is unaffected.
  if (cfg_.overlap_dma) {
    const double core_s = (out.far_s_ - dma_far_s) +
                          (out.near_s_ - dma_near_s) + out.compute_s_ +
                          out.stall_s_;
    out.seconds_ = std::max(core_s, out.dma_s_);
  } else {
    out.seconds_ = out.far_s_ + out.near_s_ + out.compute_s_ + out.stall_s_;
  }
}

std::optional<PhaseStats> Machine::folded_open_phase() const {
  if (!open_phase_) return std::nullopt;
  PhaseStats phase;
  fold_open_phase(phase);
  // Skip phases in which nothing happened (e.g. the implicit "(run)" phase
  // of callers who structure everything explicitly).
  if (phase.far_bytes() || phase.near_bytes() ||
      phase.compute_ops_total() > 0)
    return phase;
  return std::nullopt;
}

MachineStats Machine::stats() const {
  MachineStats out = stats_;
  if (std::optional<PhaseStats> phase = folded_open_phase()) {
    phase->name = *open_phase_ + " (open)";
    out.total += *phase;
    out.phases.push_back(std::move(*phase));
    out.phase_host_seconds.push_back(phase_host_seconds());
  }
  return out;
}

PhaseStats Machine::totals() const {
  PhaseStats out = stats_.total;
  if (std::optional<PhaseStats> open = folded_open_phase()) out += *open;
  return out;
}

double Machine::elapsed_seconds() const { return totals().seconds(); }

}  // namespace tlm
