#include "server/tenant_arena.hpp"

#include <vector>

#include "common/assert.hpp"

namespace tlm::server {

TenantArena::TenantArena(Machine& m, std::string tenant,
                         std::uint64_t quota_bytes)
    : m_(m), tenant_(std::move(tenant)), quota_(quota_bytes) {
  TLM_REQUIRE(quota_ <= m_.near_arena().capacity(),
              "tenant quota exceeds the scratchpad capacity");
}

TenantArena::~TenantArena() { uninstall(); }

void TenantArena::uninstall() {
  if (m_.near_gate() == this) m_.set_near_gate(nullptr);
}

bool TenantArena::admit(std::uint64_t bytes, const std::source_location&) {
  const std::uint64_t u = used_.load(std::memory_order_relaxed);
  if (bytes > quota_ - u) {  // u <= quota_, so this cannot wrap
    denials_.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  used_.store(u + bytes, std::memory_order_relaxed);
  return true;
}

void TenantArena::granted(const void* p, std::uint64_t bytes) {
  owned_.emplace(p, bytes);
  grants_.fetch_add(1, std::memory_order_relaxed);
  const std::uint64_t u = used_.load(std::memory_order_relaxed);
  if (u > high_water_.load(std::memory_order_relaxed))
    high_water_.store(u, std::memory_order_relaxed);
}

void TenantArena::refund(std::uint64_t bytes) {
  used_.fetch_sub(bytes, std::memory_order_relaxed);
}

std::uint64_t TenantArena::available() const {
  const std::uint64_t u = used_bytes();
  return quota_ > u ? quota_ - u : 0;
}

void TenantArena::freed(const void* p, std::uint64_t /*block_bytes*/) {
  // Credit what was charged at admit time, not the arena's (possibly
  // padded) block length — the two must cancel exactly for the quota to
  // return to zero when every allocation is released.
  auto it = owned_.find(p);
  if (it == owned_.end()) {
    // Not ours: another tenant's pointer, a pre-server allocation, or a
    // double-free of something already credited. Counted rather than
    // silently dropped — a nonzero foreign_free is the observable symptom
    // of a free made under the wrong tenant's gate.
    foreign_frees_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  used_.fetch_sub(it->second, std::memory_order_relaxed);
  releases_.fetch_add(1, std::memory_order_relaxed);
  owned_.erase(it);
}

std::uint64_t TenantArena::reclaim() {
  // Snapshot first: with this gate installed, dealloc() re-enters freed(),
  // which erases from owned_. With no gate installed (settlement between
  // phases) nothing credits the free, so the charge is dropped here. The
  // quiescence contract makes the unlocked reads race-free.
  std::vector<std::byte*> live;
  live.reserve(owned_.size());
  for (const auto& [p, bytes] : owned_)
    live.push_back(static_cast<std::byte*>(const_cast<void*>(p)));
  const std::uint64_t before = used_bytes();
  const NearArena& arena = m_.near_arena();
  for (std::byte* p : live) {
    // A block that vanished behind our back was a cross-tenant free that
    // the other gate counted as foreign: drop the stale charge instead of
    // double-freeing the arena block.
    const bool vanished = !arena.live_block_of(arena.offset_of(p));
    if (!vanished) m_.dealloc(Space::Near, p);
    auto it = owned_.find(p);
    if (it == owned_.end()) continue;  // freed() credited it
    used_.fetch_sub(it->second, std::memory_order_relaxed);
    if (!vanished) releases_.fetch_add(1, std::memory_order_relaxed);
    owned_.erase(it);
  }
  const std::uint64_t refunded = before - used_bytes();
  reclaimed_.fetch_add(refunded, std::memory_order_relaxed);
  return refunded;
}

void TenantArena::check_job_end([[maybe_unused]] const std::string& job) const {
#if TLM_MODEL_CHECKS_ENABLED
  const std::uint64_t u = used_bytes();
  if (u == 0) return;
  model_check_fail(
      model_rule::kTenantLeak, job,
      "tenant '" + tenant_ + "' still holds " + std::to_string(u) +
          " quota-charged scratchpad bytes across " +
          std::to_string(owned_.size()) +
          " allocation(s) at job end; jobs must release every near "
          "allocation before completing",
      std::source_location::current());
#endif
}

}  // namespace tlm::server
