// JobServer — a long-lived multi-tenant runtime over one shared Machine.
//
// Tenants register with a near-memory quota, then submit jobs: ordered
// lists of phases that run on the shared Machine's cores. Nobody owns run_spmd
// anymore — the server is the single orchestrator, and it schedules one
// phase at a time, round-robin across tenants, with that tenant's
// TenantArena installed as the quota gate for the duration of the phase.
//
// The coordination core follows the combining idiom (cf. the Synch
// framework's flat-combining objects): there is no dedicated scheduler
// thread — that would also violate the raw-thread lint rule — instead any
// client thread that calls submit()/wait()/drain() tries to become the
// combiner, drains scheduling rounds while it holds the role, and hands it
// off through the server mutex. Phases therefore execute serially, which
// is what makes per-tenant attribution exact: the combiner brackets every
// phase with Machine::totals() snapshots and charges the delta to the
// tenant that ran.
//
// Admission control: a bounded number of outstanding jobs overall and per
// tenant. An over-capacity submit does bounded deterministic backoff —
// each attempt the submitter helps drain the queues (runs up to 2^attempt
// scheduling rounds as the combiner) instead of sleeping, so backoff makes
// progress by construction; when the retry budget is exhausted with no
// capacity the job is rejected, never dropped silently.
//
// Lifecycle: an admitted job is no longer fire-and-forget. Every job
// carries a CancelToken the Machine polls at checkpoints (Stager batch
// boundaries, phase brackets); JobHandle::cancel(), shutdown(kAbort), the
// modeled-seconds deadline, and the wall-clock watchdog all deliver
// through it, so a stopped job unwinds between DMA fences with its arena
// charge reclaimed — settlement is leak-free on every path, which the
// model.tenant_leak / model.tenant_attribution checks pin down. Failed
// phases may retry (JobSpec::max_retries, from phase 0); a job that trips
// fault sites Options::quarantine_fault_trips times settles kQuarantined
// and stops consuming admission slots. DESIGN.md §15 has the state machine
// and the stated blind spots.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/cancel.hpp"
#include "common/thread_annotations.hpp"
#include "scratchpad/machine.hpp"
#include "server/tenant_arena.hpp"

namespace tlm::obs {
struct RunRecord;
}  // namespace tlm::obs

namespace tlm::server {

// Everything a phase body may touch. Phase bodies and the library code
// they call (sort::*, kmeans::*) allocate through the Machine as always —
// the installed gate charges every near allocation to the tenant
// transparently.
struct JobContext {
  Machine& machine;
};

struct JobPhase {
  std::string name;
  std::function<void(JobContext&)> fn;
};

struct JobSpec {
  std::string tenant;
  std::string name;
  std::vector<JobPhase> phases;

  // ---- lifecycle knobs (all optional) ------------------------------------
  // Bounds the job's total *modeled* seconds across its phases. Modeled
  // time is deterministic (counters + the seeded fault schedule), so the
  // same jobs expire at the same checkpoints in every run. 0 = no deadline.
  double deadline_model_s = 0;
  // Failed phases send the job back to phase 0 up to this many times
  // before it settles kFailed (the arena charge is reclaimed between
  // attempts). Fault-typed failures also count toward quarantine.
  std::uint32_t max_retries = 0;
};

enum class JobStatus : int {
  kQueued,
  kRunning,
  kDone,
  kFailed,    // a phase threw; error() carries the message
  kRejected,  // admission control turned it away
  kCancelled,          // JobHandle::cancel() or shutdown(kAbort)
  kDeadlineExceeded,   // modeled deadline or wall watchdog expired
  kQuarantined,        // tripped fault sites quarantine_fault_trips times
};

// Per-tenant counters, declared once: X(field, metric, source) is the
// TenantStats member `field`, exported as the counter
// tenant.<name>.<metric>; `source` is who keeps the count:
//   server  the job server, as the tenant's jobs are admitted, run and
//           settled;
//   arena   the tenant's TenantArena, read through its accessor field().
#define TLM_TENANT_COUNTERS(X)                                  \
  X(quota_bytes, "quota_bytes", arena)                          \
  X(admissions, "admissions", server)                           \
  X(rejections, "rejections", server)                           \
  X(backoff_stalls, "backoff_stalls", server)                   \
  X(quota_denials, "quota_denials", arena)                      \
  X(high_water_bytes, "high_water_bytes", arena)                \
  X(jobs_completed, "jobs_completed", server)                   \
  X(jobs_failed, "jobs_failed", server)                         \
  X(jobs_cancelled, "jobs_cancelled", server)                   \
  X(jobs_deadline_exceeded, "jobs_deadline_exceeded", server)   \
  X(jobs_quarantined, "jobs_quarantined", server)               \
  X(job_retries, "job_retries", server)                         \
  X(foreign_frees, "foreign_free", arena)                       \
  X(reclaimed_bytes, "reclaimed_bytes", arena)                  \
  X(phases_run, "phases", server)

// The rest of a tenant's export, derived from a TenantStats `s`:
// X(metric, value) is a counter, or a gauge where `value` is a double.
#define TLM_TENANT_DERIVED(X)                                    \
  X("attributed_far_bytes", s.attributed.far_bytes())            \
  X("attributed_near_bytes", s.attributed.near_bytes())          \
  X("degrade_to_single", s.stager.degrade_to_single)             \
  X("degrade_to_direct", s.stager.degrade_to_direct)             \
  X("degrade_level", static_cast<double>(s.degrade_level))

// Per-tenant observables, copyable snapshot (see JobServer::tenant_stats).
struct TenantStats {
  std::string tenant;
#define TLM_X(field, metric, source) std::uint64_t field = 0;
  TLM_TENANT_COUNTERS(TLM_X)
#undef TLM_X
  // Worst degradation-ladder level this tenant's phases drove any Stager
  // to: 0 = double-buffered, 1 = single, 2 = direct-from-far.
  int degrade_level = 0;
  // Exact attribution of the shared machine's counters to this tenant
  // (snapshot deltas around its serially-executed phases).
  PhaseStats attributed;
  StagerStats stager;
  FaultStats faults;
  // Host seconds each scheduled phase spent executing (service time, not
  // queue wait) — informational; host timing jitters with the machine load.
  std::vector<double> phase_seconds;
  // Modeled seconds per phase (the analytic time model's deterministic
  // answer) — the isolation gate's p99 input: a neighbor can only inflate
  // it by actually changing where this tenant's data lives.
  std::vector<double> phase_model_seconds;
};

class JobServer;

class JobHandle {
 public:
  JobHandle() = default;

  JobStatus status() const;
  bool done() const { return status() == JobStatus::kDone; }
  bool rejected() const { return status() == JobStatus::kRejected; }
  bool cancelled() const { return status() == JobStatus::kCancelled; }
  bool deadline_exceeded() const {
    return status() == JobStatus::kDeadlineExceeded;
  }
  bool quarantined() const { return status() == JobStatus::kQuarantined; }
  // Diagnostic message for any off-success settlement (failed / cancelled /
  // deadline-exceeded / quarantined), else empty. Valid once settled.
  std::string error() const;

  // Requests cooperative cancellation: sticky, callable from any thread,
  // idempotent. A queued job settles kCancelled without running; a running
  // job unwinds at its next checkpoint (Stager batch boundary or phase
  // bracket) with its arena charge reclaimed. Does not block — use wait()
  // to observe the settlement.
  void cancel();

  // Blocks until the job settles. The calling thread helps drain the
  // queues (combining) rather than sleeping while the server has work.
  void wait();

 private:
  friend class JobServer;
  struct State;
  std::shared_ptr<State> st_;
  JobServer* srv_ = nullptr;
};

class JobServer {
 public:
  struct Options {
    std::size_t max_outstanding = 64;       // admitted, unfinished jobs
    std::size_t max_queue_per_tenant = 32;  // ditto, per tenant
    std::uint32_t admission_retry_budget = 16;  // backoff rounds then reject
    // Fault-typed phase failures (ScratchpadError) a single job may
    // accumulate before it settles kQuarantined instead of retrying — the
    // containment bound for a job that trips fault sites forever.
    std::uint32_t quarantine_fault_trips = 3;
    // Per-phase wall-clock watchdog for genuinely hung phases (0 = off).
    // Host time — inherently nondeterministic, a last resort, not a
    // scheduling deadline.
    double watchdog_wall_s = 0;
  };

  enum class ShutdownMode {
    kDrain,  // stop accepting, run every admitted job to completion
    kAbort,  // stop accepting, cancel all admitted jobs, settle kCancelled
  };

  // Server-wide lifecycle counters, exported as cancel.* / deadline.* /
  // quarantine.* / retry.* through export_metrics. The server keeps only
  // cancel_requested, shutdown_cancelled and watchdog_fired; the rest are
  // sums over the tenants' counters.
  struct LifecycleStats {
    std::uint64_t cancel_requested = 0;   // JobHandle::cancel() calls
    std::uint64_t cancelled = 0;          // Σ jobs_cancelled
    std::uint64_t shutdown_cancelled = 0; // subset swept by shutdown(kAbort)
    std::uint64_t deadline_expired = 0;   // Σ jobs_deadline_exceeded
                                          //   − watchdog_fired
    std::uint64_t watchdog_fired = 0;     // wall-watchdog settlements
    std::uint64_t quarantined = 0;        // Σ jobs_quarantined
    std::uint64_t retries = 0;            // Σ job_retries
    std::uint64_t reclaimed_bytes = 0;    // Σ arena reclaimed_bytes()
  };

  explicit JobServer(Machine& m);  // default Options
  JobServer(Machine& m, Options opt);
  ~JobServer();  // drains outstanding work

  JobServer(const JobServer&) = delete;
  JobServer& operator=(const JobServer&) = delete;

  Machine& machine() { return machine_; }

  // Registers a tenant (name must be unique). The returned arena is owned
  // by the server and stays valid for the server's lifetime.
  TenantArena& add_tenant(const std::string& name, std::uint64_t quota_bytes);

  // Admits or rejects `spec` (its tenant must be registered). Never blocks
  // indefinitely: under overload it backs off by helping drain, and after
  // `admission_retry_budget` attempts without capacity returns a handle in
  // the kRejected state.
  JobHandle submit(JobSpec spec);

  // Runs scheduling rounds until every queue is empty. Under
  // TLM_CHECK_MODEL also verifies tenant attribution conservation
  // (model.tenant_attribution).
  void drain();

  // Stops accepting submissions (a later submit is a precondition
  // violation, as is a second shutdown), then settles every admitted job:
  // kDrain runs them to completion, kAbort sweeps a shutdown-cancel through
  // the queues so everything settles kCancelled with its quota reclaimed.
  // Blocks until the queues are empty; safe to call while submitters and
  // waiters are active on other threads.
  void shutdown(ShutdownMode mode);
  bool accepting() const;

  // Snapshot of the server-wide lifecycle counters.
  LifecycleStats lifecycle_stats() const;

  // Snapshot of one tenant's counters and attribution.
  TenantStats tenant_stats(const std::string& name) const;

  // Emits tenant.<name>.* counters/gauges and the server-wide lifecycle
  // counters into `rec`. Call once per record, like the obs export_stats
  // overloads.
  void export_metrics(obs::RunRecord& rec) const;

 private:
  struct Tenant;
  struct Work;

  static bool settled(const std::shared_ptr<JobHandle::State>& st);
  bool become_combiner();
  // Lock-free-looking read for cv predicates that already hold mu_ through
  // UniqueLock::native() — the analysis cannot see that, hence the opt-out.
  bool combining_now() const TLM_NO_THREAD_SAFETY_ANALYSIS {
    return combining_;
  }
  void wait_settled(const std::shared_ptr<JobHandle::State>& st);
  friend class JobHandle;
  // Runs up to `max_phases` phases as the combiner (caller must hold the
  // role), releases the role, wakes waiters. Returns phases run.
  std::size_t combine(std::size_t max_phases,
                      const std::function<bool()>& stop);
  bool pick_next_locked(Work& w) TLM_REQUIRES(mu_);
  void execute(Work& w);
  void finish_locked(Work& w) TLM_REQUIRES(mu_);
  // Settles the job at `pos` in t's queue with terminal status `final`
  // (reason distinguishes the deadline/watchdog and cancel/shutdown
  // flavours for counters); reclaims the arena charge when the settling job
  // is the front one — the only queue position that can own charges.
  // Returns the iterator past the erased entry.
  std::deque<std::shared_ptr<JobHandle::State>>::iterator settle_locked(
      Tenant& t, std::deque<std::shared_ptr<JobHandle::State>>::iterator pos,
      JobStatus final, CancelReason reason) TLM_REQUIRES(mu_);
  // Settles every already-decided queued job (cancel/shutdown requests
  // anywhere, finished or deadline-expired jobs at the front) without
  // scheduling anything.
  void sweep_locked(Tenant& t) TLM_REQUIRES(mu_);
  void request_cancel(const std::shared_ptr<JobHandle::State>& st);
  void check_attribution_locked() TLM_REQUIRES(mu_);
  LifecycleStats lifecycle_locked() const TLM_REQUIRES(mu_);

  Machine& machine_;
  Options opt_;

  mutable Mutex mu_;
  std::condition_variable cv_;
  bool combining_ TLM_GUARDED_BY(mu_) = false;
  bool accepting_ TLM_GUARDED_BY(mu_) = true;
  std::size_t rr_ TLM_GUARDED_BY(mu_) = 0;  // round-robin tenant cursor
  std::size_t outstanding_ TLM_GUARDED_BY(mu_) = 0;
  std::vector<std::unique_ptr<Tenant>> tenants_ TLM_GUARDED_BY(mu_);
  // The lifecycle counts no tenant counter holds (LifecycleStats).
  std::uint64_t cancel_requested_ TLM_GUARDED_BY(mu_) = 0;
  std::uint64_t shutdown_cancelled_ TLM_GUARDED_BY(mu_) = 0;
  std::uint64_t watchdog_fired_ TLM_GUARDED_BY(mu_) = 0;

  // Attribution bookkeeping (combiner-only, but mutated under mu_ in
  // finish_locked): the machine totals as of the last bracketed phase, and
  // traffic observed outside any tenant phase.
  PhaseStats last_snapshot_ TLM_GUARDED_BY(mu_);
  PhaseStats untenanted_ TLM_GUARDED_BY(mu_);
};

}  // namespace tlm::server
