// Deterministic fault injection for the two-level memory stack.
//
// The paper's model (§II) and the SST simulation (§V) assume every near
// allocation and DMA transfer succeeds. Real scratchpads see transient
// pressure and transfer stalls, so the Machine, Stager, and the simulator
// consult an optional FaultInjector at a small set of *named sites*:
//
//   machine.near_alloc   a fallible near allocation (try_alloc_near) is
//                        denied as if the arena were full
//   machine.dma.fail     a dma_copy transfer fails transiently; the Machine
//                        retries with bounded exponential backoff charged to
//                        the time model
//   machine.dma.stall    a dma_copy stalls for the schedule's stall_seconds
//   machine.far.stall    a far-memory access stalls (row conflict storm,
//                        refresh, link retraining) for stall_seconds
//   sim.dma.fail         a DmaEngine line read fails and is re-issued
//   sim.dma.stall        a DmaEngine descriptor is delayed before issue
//   sim.far.stall        a FarMemory request is delayed before service
//   server.slow_phase    the job server charges the schedule's stall_seconds
//                        to the phase's *modeled* time at phase start, so a
//                        seeded schedule makes modeled-deadline expiry
//                        deterministic and replayable
//   server.stuck_dma     the job server burns stall_seconds of *host* time
//                        at phase start (a wedged engine the model cannot
//                        see), which only the wall-clock watchdog catches
//
// Decisions are a pure function of (seed, site, occurrence#): the same
// schedule on the same seed fires at exactly the same points in every run,
// so chaos tests are reproducible and trace replay can exercise the same
// schedule the counting run saw. Injection only ever gates *fallible*
// paths — a denial never consumes arena space and never reaches the
// infallible Machine::alloc, so code that does not opt into degradation
// cannot be crashed by a schedule.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <new>
#include <string>

#include "common/thread_annotations.hpp"

namespace tlm {

// Typed near-capacity exhaustion: which site wanted memory, how much it
// asked for, and how much the arena had left. Derives std::bad_alloc so
// pre-existing catch sites (and tests) keep working unchanged.
class ScratchpadError : public std::bad_alloc {
 public:
  ScratchpadError(std::string site, std::uint64_t requested_bytes,
                  std::uint64_t available_bytes, std::size_t thread = 0);

  const char* what() const noexcept override { return what_.c_str(); }
  const std::string& site() const { return site_; }
  std::uint64_t requested_bytes() const { return requested_; }
  std::uint64_t available_bytes() const { return available_; }
  std::size_t thread() const { return thread_; }

 private:
  std::string site_;
  std::uint64_t requested_;
  std::uint64_t available_;
  std::size_t thread_;
  std::string what_;
};

// Site name constants, kept in one place so the Machine, the simulator, the
// tests, and the docs cannot drift apart.
namespace fault_site {
inline constexpr const char* kNearAlloc = "machine.near_alloc";
inline constexpr const char* kDmaFail = "machine.dma.fail";
inline constexpr const char* kDmaStall = "machine.dma.stall";
inline constexpr const char* kFarStall = "machine.far.stall";
inline constexpr const char* kSimDmaFail = "sim.dma.fail";
inline constexpr const char* kSimDmaStall = "sim.dma.stall";
inline constexpr const char* kSimFarStall = "sim.far.stall";
inline constexpr const char* kServerSlowPhase = "server.slow_phase";
inline constexpr const char* kServerStuckDma = "server.stuck_dma";
inline constexpr const char* kTenantQuota = "server.tenant_quota";
}  // namespace fault_site

// Unrecoverable fault outcomes (analogous to model_rule for the sanitizer).
namespace fault_rule {
inline constexpr const char* kRetryBudget = "fault.retry_budget";
}  // namespace fault_rule

// When a schedule fires at a site. Occurrences are 1-based; the kinds
// compose (any satisfied clause fires), though schedules typically use one.
struct FaultSchedule {
  bool always = false;       // every occurrence fires
  double probability = 0;    // per-occurrence chance, hashed from the seed
  std::uint64_t nth = 0;     // fire exactly on occurrence `nth` (0 = off)
  std::uint64_t burst_start = 0;  // fire on [burst_start, burst_start+len)
  std::uint64_t burst_len = 0;
  double stall_seconds = 0;  // stall charged per fire (stall sites only)

  static FaultSchedule every(double stall = 0) {
    FaultSchedule s;
    s.always = true;
    s.stall_seconds = stall;
    return s;
  }
  static FaultSchedule prob(double p, double stall = 0) {
    FaultSchedule s;
    s.probability = p;
    s.stall_seconds = stall;
    return s;
  }
  static FaultSchedule nth_occurrence(std::uint64_t n, double stall = 0) {
    FaultSchedule s;
    s.nth = n;
    s.stall_seconds = stall;
    return s;
  }
  static FaultSchedule burst(std::uint64_t start, std::uint64_t len,
                             double stall = 0) {
    FaultSchedule s;
    s.burst_start = start;
    s.burst_len = len;
    s.stall_seconds = stall;
    return s;
  }
};

// Seeded injector: arm a schedule per site, then the instrumented layers
// ask should_fail()/consult_stall() at each occurrence. Thread-safe; the
// per-call mutex is acceptable because sites sit on allocation and DMA
// paths, not per-element hot loops.
class FaultInjector {
 public:
  explicit FaultInjector(std::uint64_t seed = 0) : seed_(seed) {}

  void arm(std::string site, FaultSchedule schedule);
  void disarm(const std::string& site);

  // Counts one occurrence at `site`; true when the armed schedule fires.
  // Unarmed sites never fire (and are not counted).
  bool should_fail(const std::string& site);

  // Counts one occurrence at `site`; returns the schedule's stall_seconds
  // when it fires, 0 otherwise.
  double consult_stall(const std::string& site);

  struct SiteStats {
    std::uint64_t checks = 0;  // occurrences observed
    std::uint64_t fired = 0;   // occurrences the schedule fired on
  };
  SiteStats site_stats(const std::string& site) const;

  std::uint64_t seed() const { return seed_; }

 private:
  struct SiteState {
    FaultSchedule schedule;
    SiteStats stats;
  };

  bool decide(const FaultSchedule& s, const std::string& site,
              std::uint64_t occurrence) const;

  std::uint64_t seed_;
  mutable Mutex mu_;
  std::map<std::string, SiteState> sites_ TLM_GUARDED_BY(mu_);
};

// Prints the rule, the site, and the detail, then aborts — the fault-layer
// analogue of model_check_fail, pinned down by death tests.
[[noreturn]] void fault_fatal(const char* rule, const std::string& site,
                              const std::string& detail);

}  // namespace tlm
