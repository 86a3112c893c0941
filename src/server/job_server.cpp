#include "server/job_server.hpp"

#include <algorithm>
#include <chrono>
#include <exception>
#include <thread>
#include <type_traits>

#include "common/assert.hpp"

namespace tlm::server {

// ---------------------------------------------------------------------------
// internal state

struct JobHandle::State {
  JobSpec spec;
  // JobStatus, stored with release so `error` (written first) is visible to
  // any thread that observed the settled status with acquire.
  std::atomic<int> status{static_cast<int>(JobStatus::kQueued)};
  std::size_t next_phase = 0;  // scheduler-owned, mutated under the server mu_
  std::string error;
  // Lifecycle state. The token is the only field touched by non-scheduler
  // threads (cancel/shutdown request it; checkpoints read it) — it is
  // internally atomic. The rest is scheduler-owned like next_phase.
  CancelToken token;
  double model_consumed_s = 0;    // attributed modeled seconds so far
  std::uint32_t retries_used = 0;
  std::uint32_t fault_trips = 0;  // ScratchpadError-typed phase failures
};

struct JobServer::Tenant {
  std::string name;
  TenantArena arena;
  std::deque<std::shared_ptr<JobHandle::State>> queue;

  std::uint64_t admissions = 0;
  std::uint64_t rejections = 0;
  std::uint64_t backoff_stalls = 0;
  std::uint64_t jobs_completed = 0;
  std::uint64_t jobs_failed = 0;
  std::uint64_t jobs_cancelled = 0;
  std::uint64_t jobs_deadline_exceeded = 0;
  std::uint64_t jobs_quarantined = 0;
  std::uint64_t job_retries = 0;
  std::uint64_t phases_run = 0;

  PhaseStats attributed;
  StagerStats stager;
  FaultStats faults;
  std::vector<double> phase_seconds;
  std::vector<double> phase_model_seconds;

  Tenant(Machine& m, const std::string& n, std::uint64_t quota)
      : name(n), arena(m, n, quota) {}
};

// One scheduling round: a (tenant, job, phase) pick plus the snapshots the
// combiner takes around its execution.
struct JobServer::Work {
  Tenant* tenant = nullptr;
  std::shared_ptr<JobHandle::State> job;
  const JobPhase* phase = nullptr;
  bool failed = false;
  bool faulted = false;    // the failure was a typed ScratchpadError
  bool cancelled = false;  // a checkpoint threw CancelledError
  CancelReason reason = CancelReason::kNone;
  std::string error;
  // Token budgets for this phase, computed under mu_ at pick time so
  // execute() reads no scheduler-owned job state outside the lock.
  double model_budget_s = 0;
  double wall_budget_s = 0;
  std::uint64_t reclaimed = 0;  // quota bytes handed back on unwind
  PhaseStats before, after;
  StagerStats stager_before, stager_after;
  FaultStats faults_before, faults_after;
  double host_s = 0;
};

// ---------------------------------------------------------------------------
// JobHandle

JobStatus JobHandle::status() const {
  TLM_REQUIRE(st_ != nullptr, "empty JobHandle");
  return static_cast<JobStatus>(st_->status.load(std::memory_order_acquire));
}

std::string JobHandle::error() const {
  TLM_REQUIRE(st_ != nullptr, "empty JobHandle");
  switch (status()) {
    case JobStatus::kFailed:
    case JobStatus::kCancelled:
    case JobStatus::kDeadlineExceeded:
    case JobStatus::kQuarantined:
      return st_->error;
    default:
      return {};
  }
}

void JobHandle::cancel() {
  TLM_REQUIRE(st_ != nullptr && srv_ != nullptr, "empty JobHandle");
  srv_->request_cancel(st_);
}

void JobHandle::wait() {
  TLM_REQUIRE(st_ != nullptr && srv_ != nullptr, "empty JobHandle");
  srv_->wait_settled(st_);
}

// ---------------------------------------------------------------------------
// JobServer

bool JobServer::settled(const std::shared_ptr<JobHandle::State>& st) {
  const auto s =
      static_cast<JobStatus>(st->status.load(std::memory_order_acquire));
  return s == JobStatus::kDone || s == JobStatus::kFailed ||
         s == JobStatus::kRejected || s == JobStatus::kCancelled ||
         s == JobStatus::kDeadlineExceeded || s == JobStatus::kQuarantined;
}

JobServer::JobServer(Machine& m) : JobServer(m, Options{}) {}

JobServer::JobServer(Machine& m, Options opt) : machine_(m), opt_(opt) {
  TLM_REQUIRE(opt_.max_outstanding > 0 && opt_.max_queue_per_tenant > 0,
              "admission limits must be positive");
  MutexLock lock(mu_);
  last_snapshot_ = machine_.totals();
}

JobServer::~JobServer() { drain(); }

TenantArena& JobServer::add_tenant(const std::string& name,
                                   std::uint64_t quota_bytes) {
  TLM_REQUIRE(!name.empty(), "tenant name must be non-empty");
  MutexLock lock(mu_);
  for (const auto& t : tenants_)
    TLM_REQUIRE(t->name != name, "tenant already registered");
  tenants_.push_back(std::make_unique<Tenant>(machine_, name, quota_bytes));
  return tenants_.back()->arena;
}

bool JobServer::become_combiner() {
  MutexLock lock(mu_);
  if (combining_) return false;
  combining_ = true;
  return true;
}

std::deque<std::shared_ptr<JobHandle::State>>::iterator
JobServer::settle_locked(
    Tenant& t, std::deque<std::shared_ptr<JobHandle::State>>::iterator pos,
    JobStatus final, CancelReason reason) {
  const std::shared_ptr<JobHandle::State> st = *pos;
  const bool front = pos == t.queue.begin();
  if (front && final != JobStatus::kDone) {
    // Only the front job can own quota charges (check_job_end proves the
    // arena empty between jobs), so off-success settlement of the front is
    // where leaked allocations are handed back. Usually a no-op: a mid-
    // phase unwind already reclaimed in execute(), and jobs settled before
    // running own nothing.
    lifecycle_.reclaimed_bytes += t.arena.reclaim();
  }
  // Settlement honesty: after a completed job's own frees — or the reclaim
  // above — the tenant's charge must be zero (model.tenant_leak otherwise).
  if (front) t.arena.check_job_end(st->spec.name);
  switch (final) {
    case JobStatus::kDone:
      ++t.jobs_completed;
      break;
    case JobStatus::kFailed:
      ++t.jobs_failed;
      break;
    case JobStatus::kCancelled:
      ++t.jobs_cancelled;
      ++lifecycle_.cancelled;
      if (reason == CancelReason::kShutdown) ++lifecycle_.shutdown_cancelled;
      break;
    case JobStatus::kDeadlineExceeded:
      ++t.jobs_deadline_exceeded;
      if (reason == CancelReason::kWatchdog)
        ++lifecycle_.watchdog_fired;
      else
        ++lifecycle_.deadline_expired;
      break;
    case JobStatus::kQuarantined:
      ++t.jobs_quarantined;
      ++lifecycle_.quarantined;
      break;
    default:
      TLM_REQUIRE(false, "settle_locked: not a terminal status");
  }
  st->status.store(static_cast<int>(final), std::memory_order_release);
  --outstanding_;
  return t.queue.erase(pos);
}

void JobServer::sweep_locked(Tenant& t) {
  // Cancellation and shutdown requests settle anywhere in the queue — a
  // cancelled job behind the front must not wait for everything ahead of
  // it to run first.
  for (auto it = t.queue.begin(); it != t.queue.end();) {
    const CancelReason r = (*it)->token.requested();
    if (r == CancelReason::kCancelled || r == CancelReason::kShutdown) {
      (*it)->error = std::string("cancelled: ") + to_string(r);
      it = settle_locked(t, it, JobStatus::kCancelled, r);
      continue;
    }
    ++it;
  }
  // Front-only settlements: no work left, or the modeled deadline already
  // spent before the next phase would start.
  while (!t.queue.empty()) {
    const auto& st = t.queue.front();
    if (st->next_phase == st->spec.phases.size()) {
      settle_locked(t, t.queue.begin(), JobStatus::kDone, CancelReason::kNone);
      continue;
    }
    if (st->spec.deadline_model_s > 0 &&
        st->model_consumed_s >= st->spec.deadline_model_s) {
      st->error = "deadline exceeded before phase " +
                  st->spec.phases[st->next_phase].name;
      settle_locked(t, t.queue.begin(), JobStatus::kDeadlineExceeded,
                    CancelReason::kDeadline);
      continue;
    }
    break;
  }
}

bool JobServer::pick_next_locked(Work& w) {
  if (tenants_.empty()) return false;
  const std::size_t n = tenants_.size();
  for (std::size_t i = 0; i < n; ++i) {
    Tenant& t = *tenants_[(rr_ + i) % n];
    sweep_locked(t);
    if (t.queue.empty()) continue;
    w.tenant = &t;
    w.job = t.queue.front();
    w.phase = &w.job->spec.phases[w.job->next_phase];
    // Arm-time budgets, computed here so execute() reads no scheduler-owned
    // job state outside mu_: what remains of the modeled deadline, and the
    // per-phase wall watchdog.
    const JobSpec& spec = w.job->spec;
    w.model_budget_s = spec.deadline_model_s > 0
                           ? spec.deadline_model_s - w.job->model_consumed_s
                           : 0;
    w.wall_budget_s =
        spec.wall_timeout_s > 0 ? spec.wall_timeout_s : opt_.watchdog_wall_s;
    rr_ = ((rr_ + i) % n) + 1;  // fairness: next round starts after us
    return true;
  }
  return false;
}

void JobServer::execute(Work& w) {
  Tenant& t = *w.tenant;
  w.before = machine_.totals();
  w.stager_before = machine_.stager_stats();
  w.faults_before = machine_.fault_stats();
  w.job->status.store(static_cast<int>(JobStatus::kRunning),
                      std::memory_order_release);

  w.job->token.arm_phase(w.model_budget_s, w.wall_budget_s);
  t.arena.install();
  machine_.set_cancel_token(&w.job->token);
  machine_.begin_phase("tenant/" + t.name + "/" + w.job->spec.name + "/" +
                       w.phase->name);
  JobContext ctx{machine_};
  const auto t0 = std::chrono::steady_clock::now();
  try {
    // Server-owned fault sites, consulted once per phase. slow_phase
    // charges *modeled* stall, so a seeded schedule advances the
    // deterministic deadline clock; stuck_dma burns *host* time (a wedged
    // engine the model cannot see), which only the wall watchdog catches.
    if (FaultInjector* fi = machine_.fault_injector()) {
      machine_.charge_stall(0,
                            fi->consult_stall(fault_site::kServerSlowPhase));
      const double wedge = fi->consult_stall(fault_site::kServerStuckDma);
      if (wedge > 0)
        std::this_thread::sleep_for(std::chrono::duration<double>(wedge));
    }
    machine_.poll_cancel();  // entry checkpoint: pre-stalled phases stop here
    w.phase->fn(ctx);
    machine_.poll_cancel();  // exit checkpoint: requests no inner poll saw
  } catch (const CancelledError& e) {
    w.cancelled = true;
    w.reason = e.reason();
    w.error = e.what();
  } catch (const ScratchpadError& e) {
    w.failed = true;
    w.faulted = true;
    w.error = e.what();
  } catch (const std::exception& e) {
    w.failed = true;
    w.error = e.what();
  } catch (...) {
    w.failed = true;
    w.error = "unknown exception";
  }
  const auto t1 = std::chrono::steady_clock::now();
  if (w.cancelled || w.failed) {
    // Leak-free unwinding: the phase body died before its own frees, so
    // hand back every quota-charged allocation now — while the gate is
    // still installed and before end_phase() audits the phase for leaks.
    w.reclaimed = t.arena.reclaim();
  }
  machine_.end_phase();
  machine_.set_cancel_token(nullptr);
  t.arena.uninstall();
  w.job->token.disarm();

  w.after = machine_.totals();
  w.stager_after = machine_.stager_stats();
  w.faults_after = machine_.fault_stats();
  w.host_s = std::chrono::duration<double>(t1 - t0).count();
}

void JobServer::finish_locked(Work& w) {
  Tenant& t = *w.tenant;
  // Traffic between the previous bracketed phase and this one ran outside
  // any tenant (direct Machine use by the embedding program); keep it in a
  // separate bucket so attribution stays conservative, not approximate.
  untenanted_ += phase_delta(w.before, last_snapshot_);
  const PhaseStats attributed = phase_delta(w.after, w.before);
  t.attributed += attributed;
  t.stager += stager_delta(w.stager_after, w.stager_before);
  t.faults += fault_delta(w.faults_after, w.faults_before);
  last_snapshot_ = w.after;
  t.phase_seconds.push_back(w.host_s);
  t.phase_model_seconds.push_back(attributed.seconds());
  ++t.phases_run;
  w.job->model_consumed_s += attributed.seconds();
  lifecycle_.reclaimed_bytes += w.reclaimed;

  const auto front = t.queue.begin();  // == w.job: the combiner is serial
  if (w.cancelled) {
    w.job->error = w.error;
    const bool timed_out = w.reason == CancelReason::kDeadline ||
                           w.reason == CancelReason::kWatchdog;
    settle_locked(t, front,
                  timed_out ? JobStatus::kDeadlineExceeded
                            : JobStatus::kCancelled,
                  w.reason);
    return;
  }
  if (w.failed) {
    if (w.faulted) ++w.job->fault_trips;
    if (w.faulted && w.job->fault_trips >= opt_.quarantine_fault_trips) {
      // Containment: this job keeps hitting fault sites — stop feeding it
      // admission slots and settle it out of the way.
      w.job->error = w.error;
      settle_locked(t, front, JobStatus::kQuarantined, CancelReason::kNone);
      return;
    }
    if (w.job->retries_used < w.job->spec.max_retries) {
      // Bounded retry: back to phase 0 with a clean arena (execute()
      // already reclaimed the unwound charge).
      ++w.job->retries_used;
      ++t.job_retries;
      ++lifecycle_.retries;
      w.job->next_phase = 0;
      w.job->status.store(static_cast<int>(JobStatus::kQueued),
                          std::memory_order_release);
      return;
    }
    w.job->error = w.error;
    settle_locked(t, front, JobStatus::kFailed, CancelReason::kNone);
    return;
  }
  ++w.job->next_phase;
  if (w.job->next_phase == w.job->spec.phases.size()) {
    settle_locked(t, front, JobStatus::kDone, CancelReason::kNone);
    return;
  }
  if (w.job->spec.deadline_model_s > 0 &&
      w.job->model_consumed_s >= w.job->spec.deadline_model_s) {
    // The phase finished but spent the whole budget: the remaining phases
    // will not run, and any retained cross-phase allocation is reclaimed.
    w.job->error = "deadline exceeded after phase " + w.phase->name;
    settle_locked(t, front, JobStatus::kDeadlineExceeded,
                  CancelReason::kDeadline);
    return;
  }
  w.job->status.store(static_cast<int>(JobStatus::kQueued),
                      std::memory_order_release);
}

std::size_t JobServer::combine(std::size_t max_phases,
                               const std::function<bool()>& stop) {
  std::size_t ran = 0;
  while (ran < max_phases && !stop()) {
    Work w;
    {
      MutexLock lock(mu_);
      if (!pick_next_locked(w)) break;
    }
    execute(w);
    {
      MutexLock lock(mu_);
      finish_locked(w);
    }
    cv_.notify_all();
    ++ran;
  }
  {
    MutexLock lock(mu_);
    combining_ = false;
  }
  cv_.notify_all();
  return ran;
}

JobHandle JobServer::submit(JobSpec spec) {
  auto st = std::make_shared<JobHandle::State>();
  st->spec = std::move(spec);
  JobHandle h;
  h.st_ = st;
  h.srv_ = this;

  std::uint32_t attempt = 0;
  for (;;) {
    {
      MutexLock lock(mu_);
      TLM_REQUIRE(accepting_, "submit after shutdown");
      Tenant* tenant = nullptr;
      for (const auto& t : tenants_)
        if (t->name == st->spec.tenant) tenant = t.get();
      TLM_REQUIRE(tenant != nullptr, "submit: unregistered tenant");
      if (outstanding_ < opt_.max_outstanding &&
          tenant->queue.size() < opt_.max_queue_per_tenant) {
        tenant->queue.push_back(st);
        ++outstanding_;
        ++tenant->admissions;
        return h;
      }
      ++attempt;
      ++tenant->backoff_stalls;
      if (attempt > opt_.admission_retry_budget) {
        ++tenant->rejections;
        st->status.store(static_cast<int>(JobStatus::kRejected),
                         std::memory_order_release);
        return h;
      }
    }
    // Bounded deterministic backoff: instead of sleeping, the submitter
    // helps drain the queues — up to 2^attempt scheduling rounds as the
    // combiner — so each retry is preceded by real forward progress. When
    // another thread already holds the combiner role, block until it hands
    // the role off (its finish rounds notify the cv).
    if (become_combiner()) {
      combine(std::size_t{1} << std::min<std::uint32_t>(attempt, 10),
              [] { return false; });
    } else {
      UniqueLock lock(mu_);
      cv_.wait(lock.native(), [this] { return !combining_now(); });
    }
  }
}

void JobServer::wait_settled(const std::shared_ptr<JobHandle::State>& st) {
  while (!settled(st)) {
    if (become_combiner()) {
      combine(~std::size_t{0}, [&st] { return settled(st); });
    } else {
      UniqueLock lock(mu_);
      cv_.wait(lock.native(),
               [this, &st] { return settled(st) || !combining_now(); });
    }
  }
}

void JobServer::drain() {
  for (;;) {
    if (become_combiner()) {
      combine(~std::size_t{0}, [] { return false; });
      MutexLock lock(mu_);
      if (outstanding_ == 0) {
        check_attribution_locked();
        return;
      }
    } else {
      UniqueLock lock(mu_);
      cv_.wait(lock.native(), [this] { return !combining_now(); });
    }
  }
}

void JobServer::shutdown(ShutdownMode mode) {
  {
    MutexLock lock(mu_);
    TLM_REQUIRE(accepting_, "shutdown: server already shut down");
    accepting_ = false;
    if (mode == ShutdownMode::kAbort) {
      // Sweep a shutdown-cancel through every admitted job, including the
      // front ones mid-run — they unwind at their next checkpoint. The
      // drain below then settles everything kCancelled with its quota
      // reclaimed. Jobs whose tokens already carry a reason keep it.
      for (const auto& t : tenants_)
        for (const auto& st : t->queue) st->token.request(CancelReason::kShutdown);
    }
  }
  cv_.notify_all();
  drain();
}

bool JobServer::accepting() const {
  MutexLock lock(mu_);
  return accepting_;
}

JobServer::LifecycleStats JobServer::lifecycle_stats() const {
  MutexLock lock(mu_);
  return lifecycle_;
}

void JobServer::request_cancel(const std::shared_ptr<JobHandle::State>& st) {
  {
    MutexLock lock(mu_);
    ++lifecycle_.cancel_requested;
  }
  st->token.request(CancelReason::kCancelled);
  // Wake combiner-role waiters so somebody sweeps the queues soon; the
  // caller observes the settlement through wait().
  cv_.notify_all();
}

void JobServer::check_attribution_locked() {
#if TLM_MODEL_CHECKS_ENABLED
  // Conservation: every count the machine made since the server started
  // (each u64 PhaseStats field) must be attributed to exactly one tenant or
  // the untenanted bucket. The tail delta covers traffic after the last
  // bracketed phase.
  const PhaseStats grand = machine_.totals();
  PhaseStats sum = untenanted_;
  for (const auto& t : tenants_) sum += t->attributed;
  sum += phase_delta(grand, last_snapshot_);
  const auto check = [](const char* what, auto attributed, auto total) {
    if constexpr (std::is_integral_v<decltype(total)>) {
      if (attributed == total) return;
      model_check_fail(model_rule::kTenantAttribution, "(drain)",
                       std::string(what) + ": tenant attribution sums to " +
                           std::to_string(attributed) +
                           " but the machine counted " +
                           std::to_string(total) +
                           " — a scheduled phase escaped its snapshots",
                       std::source_location::current());
    }
  };
#define TLM_X(kind, field, fold) check(#field, sum.field(), grand.field());
  TLM_PHASE_STATS(TLM_X)
#undef TLM_X
#endif
}

TenantStats JobServer::tenant_stats(const std::string& name) const {
  MutexLock lock(mu_);
  for (const auto& t : tenants_) {
    if (t->name != name) continue;
    TenantStats s;
    s.tenant = t->name;
    s.quota_bytes = t->arena.quota_bytes();
    s.admissions = t->admissions;
    s.rejections = t->rejections;
    s.backoff_stalls = t->backoff_stalls;
    s.quota_denials = t->arena.quota_denials();
    s.high_water_bytes = t->arena.high_water_bytes();
    s.jobs_completed = t->jobs_completed;
    s.jobs_failed = t->jobs_failed;
    s.jobs_cancelled = t->jobs_cancelled;
    s.jobs_deadline_exceeded = t->jobs_deadline_exceeded;
    s.jobs_quarantined = t->jobs_quarantined;
    s.job_retries = t->job_retries;
    s.foreign_frees = t->arena.foreign_frees();
    s.reclaimed_bytes = t->arena.reclaimed_bytes();
    s.phases_run = t->phases_run;
    s.degrade_level = t->stager.degrade_to_direct > 0   ? 2
                      : t->stager.degrade_to_single > 0 ? 1
                                                        : 0;
    s.attributed = t->attributed;
    s.stager = t->stager;
    s.faults = t->faults;
    s.phase_seconds = t->phase_seconds;
    s.phase_model_seconds = t->phase_model_seconds;
    return s;
  }
  TLM_REQUIRE(false, "tenant_stats: unregistered tenant");
  return {};
}

std::vector<std::string> JobServer::tenant_names() const {
  MutexLock lock(mu_);
  std::vector<std::string> out;
  out.reserve(tenants_.size());
  for (const auto& t : tenants_) out.push_back(t->name);
  return out;
}

void JobServer::export_metrics(obs::MetricsRegistry& reg) const {
  MutexLock lock(mu_);
  for (const auto& t : tenants_) {
    const std::string p = "tenant." + t->name + ".";
    reg.counter(p + "quota_bytes").add(t->arena.quota_bytes());
    reg.counter(p + "admissions").add(t->admissions);
    reg.counter(p + "rejections").add(t->rejections);
    reg.counter(p + "backoff_stalls").add(t->backoff_stalls);
    reg.counter(p + "quota_denials").add(t->arena.quota_denials());
    reg.counter(p + "high_water_bytes").add(t->arena.high_water_bytes());
    reg.counter(p + "jobs_completed").add(t->jobs_completed);
    reg.counter(p + "jobs_failed").add(t->jobs_failed);
    reg.counter(p + "jobs_cancelled").add(t->jobs_cancelled);
    reg.counter(p + "jobs_deadline_exceeded").add(t->jobs_deadline_exceeded);
    reg.counter(p + "jobs_quarantined").add(t->jobs_quarantined);
    reg.counter(p + "job_retries").add(t->job_retries);
    reg.counter(p + "foreign_free").add(t->arena.foreign_frees());
    reg.counter(p + "reclaimed_bytes").add(t->arena.reclaimed_bytes());
    reg.counter(p + "phases").add(t->phases_run);
    reg.counter(p + "attributed_far_bytes").add(t->attributed.far_bytes());
    reg.counter(p + "attributed_near_bytes").add(t->attributed.near_bytes());
    reg.counter(p + "degrade_to_single").add(t->stager.degrade_to_single);
    reg.counter(p + "degrade_to_direct").add(t->stager.degrade_to_direct);
    reg.set_gauge(p + "degrade_level",
                  t->stager.degrade_to_direct > 0   ? 2
                  : t->stager.degrade_to_single > 0 ? 1
                                                    : 0);
  }
  // Server-wide lifecycle counters — the run-report surface the CI
  // determinism gate diffs with --max-changed=0 (watchdog_fired is wall-
  // clock-driven and only deterministic when no watchdog is armed).
  reg.counter("cancel.requested").add(lifecycle_.cancel_requested);
  reg.counter("cancel.settled").add(lifecycle_.cancelled);
  reg.counter("cancel.shutdown").add(lifecycle_.shutdown_cancelled);
  reg.counter("deadline.expired").add(lifecycle_.deadline_expired);
  reg.counter("deadline.watchdog").add(lifecycle_.watchdog_fired);
  reg.counter("quarantine.settled").add(lifecycle_.quarantined);
  reg.counter("retry.attempts").add(lifecycle_.retries);
  reg.counter("lifecycle.reclaimed_bytes").add(lifecycle_.reclaimed_bytes);
}

}  // namespace tlm::server
