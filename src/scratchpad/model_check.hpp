// TLM_CHECK_MODEL — the debug-mode model sanitizer (configure with
// -DTLM_CHECK_MODEL=ON).
//
// The §II cost model is only meaningful if every algorithm obeys its
// invariants; an algorithm can sort perfectly while silently breaking them,
// and nothing in a release build would notice. When the sanitizer is
// compiled in, the Machine keeps shadow state alongside the arena and
// validates every allocation and transfer:
//
//   model.capacity          scratchpad occupancy never exceeds M
//   model.phase_leak        no allocation born in an explicit phase is
//                           still live (and unretained) when it ends
//   model.line_granularity  DMA copies touch whole rho*B near lines
//                           (opt-in per machine: TwoLevelConfig::
//                           strict_dma_lines)
//   model.space_attribution traffic lands on the space it claims: near
//                           charges hit one live scratchpad allocation,
//                           far charges never overlap the scratchpad
//   model.tenant_leak       a job releases every quota-charged near byte
//   model.tenant_attribution  every traffic counter the machine counted
//                           is attributed to exactly one tenant or the
//                           untenanted residue (checked at server drain)
//
// A violation prints the rule, the open phase, and the charging call site,
// then aborts — the tests pin these down as gtest death tests.
#pragma once

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <source_location>
#include <string>

#if defined(TLM_CHECK_MODEL)
#define TLM_MODEL_CHECKS_ENABLED 1
#else
#define TLM_MODEL_CHECKS_ENABLED 0
#endif

namespace tlm {

// Rule identifiers, kept in one place so diagnostics, death tests, and docs
// can't drift apart.
namespace model_rule {
inline constexpr const char* kCapacity = "model.capacity";
inline constexpr const char* kPhaseLeak = "model.phase_leak";
inline constexpr const char* kLineGranularity = "model.line_granularity";
inline constexpr const char* kSpaceAttribution = "model.space_attribution";
// Multi-tenant rules (src/server): a tenant's quota-charged near bytes must
// all be released by the time its job completes...
inline constexpr const char* kTenantLeak = "model.tenant_leak";
// ...and the per-tenant PhaseStats attribution must conserve: the sum of
// every tenant's attributed traffic plus the untenanted residue equals the
// machine-lifetime totals when the server drains.
inline constexpr const char* kTenantAttribution = "model.tenant_attribution";
}  // namespace model_rule

[[noreturn]] inline void model_check_fail(const char* rule,
                                          const std::string& phase,
                                          const std::string& detail,
                                          const std::source_location& loc) {
  std::fprintf(stderr,
               "tlm model sanitizer: rule=%s phase=%s\n  at %s:%u (%s)\n"
               "  %s\n",
               rule, phase.c_str(), loc.file_name(),
               static_cast<unsigned>(loc.line()), loc.function_name(),
               detail.c_str());
  std::fflush(stderr);
  std::abort();
}

}  // namespace tlm
