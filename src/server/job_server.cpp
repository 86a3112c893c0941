#include "server/job_server.hpp"

#include <algorithm>
#include <chrono>
#include <exception>
#include <thread>
#include <type_traits>

#include "common/assert.hpp"
#include "obs/run_report.hpp"

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
  TenantArena arena;
  std::deque<std::shared_ptr<JobHandle::State>> queue;
  // The server-kept counters, the attribution and the phase times;
  // snapshot() adds the name, the arena-kept counters and the degradation
  // level.
  TenantStats stats;

  Tenant(Machine& m, const std::string& n, std::uint64_t quota)
      : arena(m, n, quota) {}

  const std::string& name() const { return arena.tenant(); }

  TenantStats snapshot() const {
    TenantStats s = stats;
    s.tenant = name();
#define TLM_READ_server(field)
#define TLM_READ_arena(field) s.field = arena.field();
#define TLM_X(field, metric, source) TLM_READ_##source(field)
    TLM_TENANT_COUNTERS(TLM_X)
#undef TLM_X
#undef TLM_READ_arena
#undef TLM_READ_server
    s.degrade_level = s.stager.degrade_to_direct > 0   ? 2
                      : s.stager.degrade_to_single > 0 ? 1
                                                       : 0;
    return s;
  }
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
  // The phase's modeled budget, computed under mu_ at pick time so
  // execute() reads no scheduler-owned job state outside the lock.
  double model_budget_s = 0;
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
    TLM_REQUIRE(t->name() != name, "tenant already registered");
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
    t.arena.reclaim();
  }
  // Settlement honesty: after a completed job's own frees — or the reclaim
  // above — the tenant's charge must be zero (model.tenant_leak otherwise).
  if (front) t.arena.check_job_end(st->spec.name);
  switch (final) {
    case JobStatus::kDone:
      ++t.stats.jobs_completed;
      break;
    case JobStatus::kFailed:
      ++t.stats.jobs_failed;
      break;
    case JobStatus::kCancelled:
      ++t.stats.jobs_cancelled;
      if (reason == CancelReason::kShutdown) ++shutdown_cancelled_;
      break;
    case JobStatus::kDeadlineExceeded:
      ++t.stats.jobs_deadline_exceeded;
      if (reason == CancelReason::kWatchdog) ++watchdog_fired_;
      break;
    case JobStatus::kQuarantined:
      ++t.stats.jobs_quarantined;
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
    // What remains of the modeled deadline, computed here so execute()
    // reads no scheduler-owned job state outside mu_.
    const JobSpec& spec = w.job->spec;
    w.model_budget_s = spec.deadline_model_s > 0
                           ? spec.deadline_model_s - w.job->model_consumed_s
                           : 0;
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

  w.job->token.arm_phase(w.model_budget_s, opt_.watchdog_wall_s);
  t.arena.install();
  machine_.set_cancel_token(&w.job->token);
  machine_.begin_phase("tenant/" + t.name() + "/" + w.job->spec.name + "/" +
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
    t.arena.reclaim();
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
  TenantStats& ts = t.stats;
  ts.attributed += attributed;
  ts.stager += stager_delta(w.stager_after, w.stager_before);
  ts.faults += fault_delta(w.faults_after, w.faults_before);
  last_snapshot_ = w.after;
  ts.phase_seconds.push_back(w.host_s);
  ts.phase_model_seconds.push_back(attributed.seconds());
  ++ts.phases_run;
  w.job->model_consumed_s += attributed.seconds();

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
      ++t.stats.job_retries;
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
        if (t->name() == st->spec.tenant) tenant = t.get();
      TLM_REQUIRE(tenant != nullptr, "submit: unregistered tenant");
      if (outstanding_ < opt_.max_outstanding &&
          tenant->queue.size() < opt_.max_queue_per_tenant) {
        tenant->queue.push_back(st);
        ++outstanding_;
        ++tenant->stats.admissions;
        return h;
      }
      ++attempt;
      ++tenant->stats.backoff_stalls;
      if (attempt > opt_.admission_retry_budget) {
        ++tenant->stats.rejections;
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
  return lifecycle_locked();
}

JobServer::LifecycleStats JobServer::lifecycle_locked() const {
  LifecycleStats l;
  l.cancel_requested = cancel_requested_;
  l.shutdown_cancelled = shutdown_cancelled_;
  l.watchdog_fired = watchdog_fired_;
  for (const auto& t : tenants_) {
    l.cancelled += t->stats.jobs_cancelled;
    l.deadline_expired += t->stats.jobs_deadline_exceeded;
    l.quarantined += t->stats.jobs_quarantined;
    l.retries += t->stats.job_retries;
    l.reclaimed_bytes += t->arena.reclaimed_bytes();
  }
  // Every watchdog settlement is also a tenant's jobs_deadline_exceeded.
  l.deadline_expired -= l.watchdog_fired;
  return l;
}

void JobServer::request_cancel(const std::shared_ptr<JobHandle::State>& st) {
  {
    MutexLock lock(mu_);
    ++cancel_requested_;
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
  for (const auto& t : tenants_) sum += t->stats.attributed;
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
  for (const auto& t : tenants_)
    if (t->name() == name) return t->snapshot();
  TLM_REQUIRE(false, "tenant_stats: unregistered tenant");
  return {};
}

void JobServer::export_metrics(obs::RunRecord& rec) const {
  MutexLock lock(mu_);
  for (const auto& t : tenants_) {
    const TenantStats s = t->snapshot();
    const std::string p = "tenant." + s.tenant + ".";
#define TLM_X(field, metric, source) \
  obs::export_leaf(rec, p + metric, s.field);
    TLM_TENANT_COUNTERS(TLM_X)
#undef TLM_X
#define TLM_X(metric, value) obs::export_leaf(rec, p + metric, value);
    TLM_TENANT_DERIVED(TLM_X)
#undef TLM_X
  }
  // Server-wide lifecycle counters — the run-report surface the CI
  // determinism gate diffs with --max-changed=0 (watchdog_fired is wall-
  // clock-driven and only deterministic when no watchdog is armed).
  const LifecycleStats l = lifecycle_locked();
  obs::export_leaf(rec, "cancel.requested", l.cancel_requested);
  obs::export_leaf(rec, "cancel.settled", l.cancelled);
  obs::export_leaf(rec, "cancel.shutdown", l.shutdown_cancelled);
  obs::export_leaf(rec, "deadline.expired", l.deadline_expired);
  obs::export_leaf(rec, "deadline.watchdog", l.watchdog_fired);
  obs::export_leaf(rec, "quarantine.settled", l.quarantined);
  obs::export_leaf(rec, "retry.attempts", l.retries);
  obs::export_leaf(rec, "lifecycle.reclaimed_bytes", l.reclaimed_bytes);
}

}  // namespace tlm::server
