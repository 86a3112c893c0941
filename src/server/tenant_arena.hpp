// TenantArena — a per-tenant, quota-checked view of the shared scratchpad.
//
// The job server partitions the Machine's near memory between tenants by
// budget, not by address range: every tenant allocates from the same
// NearArena, but a TenantArena installed as the Machine's NearQuotaGate
// charges each near allocation against that tenant's quota first. A tenant
// over budget sees try_alloc_near fail exactly as if the arena were full,
// so the degradation ladder (double → single buffering → direct-from-far)
// becomes the per-tenant QoS mechanism for free: the thrashing tenant's
// Stagers step down while its neighbors' allocations keep succeeding
// against untouched arena space. Allocation itself always goes through
// the Machine; this class only keeps the books.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <source_location>
#include <string>

#include "scratchpad/machine.hpp"

namespace tlm::server {

class TenantArena final : public NearQuotaGate {
 public:
  // `quota_bytes` is the tenant's near-memory budget. Zero is legal and
  // means "far memory only": every near allocation is denied and the
  // tenant runs fully degraded.
  TenantArena(Machine& m, std::string tenant, std::uint64_t quota_bytes);
  ~TenantArena() override;

  TenantArena(const TenantArena&) = delete;
  TenantArena& operator=(const TenantArena&) = delete;

  // Frees every still-charged allocation this tenant owns and returns the
  // bytes refunded. The scheduler calls it when a job settles off the
  // success path (cancelled / deadline-exceeded / quarantined / about to
  // retry), so settlement is leak-free by construction: the quota returns
  // to zero and the arena space is handed back even though the unwound
  // phase body never reached its own frees. Orchestrator-only and
  // quiescent — it must not race live phase allocations — and called with
  // this gate installed or with none.
  std::uint64_t reclaim();

  // ---- gate lifecycle (the scheduler brackets each tenant phase) ---------
  // While installed, every Machine near allocation — including ones made
  // deep inside sort/kmeans/Stager code that has never heard of tenants —
  // is charged against this tenant's budget.
  void install() { m_.set_near_gate(this); }
  void uninstall();
  bool installed() const { return m_.near_gate() == this; }

  // ---- observables (readable from any thread) ----------------------------
  const std::string& tenant() const { return tenant_; }
  std::uint64_t quota_bytes() const { return quota_; }
  std::uint64_t used_bytes() const {
    return used_.load(std::memory_order_relaxed);
  }
  std::uint64_t high_water_bytes() const {
    return high_water_.load(std::memory_order_relaxed);
  }
  std::uint64_t quota_denials() const {
    return denials_.load(std::memory_order_relaxed);
  }
  std::uint64_t grants() const {
    return grants_.load(std::memory_order_relaxed);
  }
  std::uint64_t releases() const {
    return releases_.load(std::memory_order_relaxed);
  }
  // Near frees observed while installed for pointers this tenant never
  // charged. Nonzero means a cross-tenant free, a double-free, or a free of
  // memory allocated with no gate installed — counted, never credited, and
  // exported as tenant.<name>.foreign_free.
  std::uint64_t foreign_frees() const {
    return foreign_frees_.load(std::memory_order_relaxed);
  }
  // Bytes handed back by reclaim() over this arena's lifetime.
  std::uint64_t reclaimed_bytes() const {
    return reclaimed_.load(std::memory_order_relaxed);
  }

  // ---- NearQuotaGate (called by the Machine under its alloc_mu_) ---------
  bool admit(std::uint64_t bytes, const std::source_location& loc) override;
  void granted(const void* p, std::uint64_t bytes) override;
  void refund(std::uint64_t bytes) override;
  void freed(const void* p, std::uint64_t bytes) override;
  std::uint64_t available() const override;

  // Model-sanitizer hook, run by the scheduler when a tenant's job
  // completes: quota-charged bytes still live at job end are a tenant leak
  // (rule model.tenant_leak). A no-op outside TLM_CHECK_MODEL builds.
  void check_job_end(const std::string& job) const;

 private:
  Machine& m_;
  std::string tenant_;
  std::uint64_t quota_;

  // Charged bytes and counters. Every mutation happens under the Machine's
  // alloc_mu_ (the gate callbacks run there) or in the quiescent reclaim(),
  // so plain load/store pairs are race-free; atomics let the metrics
  // exporter read without the lock.
  std::atomic<std::uint64_t> used_{0};
  std::atomic<std::uint64_t> high_water_{0};
  std::atomic<std::uint64_t> denials_{0};
  std::atomic<std::uint64_t> grants_{0};
  std::atomic<std::uint64_t> releases_{0};
  std::atomic<std::uint64_t> foreign_frees_{0};
  std::atomic<std::uint64_t> reclaimed_{0};

  // Live quota-charged allocations: base pointer -> charged bytes. freed()
  // consults it so frees of pointers this tenant never charged (another
  // tenant's, or pre-server allocations) are ignored rather than credited.
  std::map<const void*, std::uint64_t> owned_;
};

}  // namespace tlm::server
