// Job lifecycle hardening: cooperative cancellation (queued and mid-phase at
// Stager checkpoints), deterministic modeled-seconds deadlines under seeded
// server.slow_phase chaos, the wall-clock watchdog against server.stuck_dma,
// bounded retries, quarantine containment (including the chaos differential
// proving a quarantined thrasher never perturbs its neighbors' outputs),
// shutdown(Drain|Abort) with death tests for post-shutdown misuse, and the
// cancel.* / deadline.* / quarantine.* metrics surface.
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <memory>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/cancel.hpp"
#include "common/faults.hpp"
#include "common/thread_pool.hpp"
#include "obs/run_report.hpp"
#include "scratchpad/machine.hpp"
#include "scratchpad/stager.hpp"
#include "server/job_server.hpp"
#include "server/jobs.hpp"
#include "server/tenant_arena.hpp"

namespace tlm {
namespace {

using server::JobServer;
using server::JobSpec;
using server::JobStatus;

TwoLevelConfig lifecycle_config(std::size_t threads = 4) {
  TwoLevelConfig cfg = test_config(4.0);
  cfg.near_capacity = 256 * 1024;
  cfg.threads = threads;
  cfg.overlap_dma = true;
  return cfg;
}

// A job of `phases` trivial compute phases — enough modeled work to be
// attributable, no allocations to clean up.
JobSpec compute_job(std::string tenant, std::string name, int phases) {
  JobSpec spec;
  spec.tenant = std::move(tenant);
  spec.name = std::move(name);
  for (int i = 0; i < phases; ++i)
    spec.phases.push_back(
        {"p" + std::to_string(i),
         [](server::JobContext& ctx) { ctx.machine.compute(0, 64.0); }});
  return spec;
}

TEST(CancelToken, FirstRequestWinsAndSticks) {
  CancelToken tok;
  EXPECT_EQ(tok.requested(), CancelReason::kNone);
  EXPECT_TRUE(tok.request(CancelReason::kDeadline));
  EXPECT_FALSE(tok.request(CancelReason::kCancelled));  // sticky
  EXPECT_EQ(tok.requested(), CancelReason::kDeadline);
  tok.arm_phase(1.5, 0.25);
  EXPECT_DOUBLE_EQ(tok.model_budget_s(), 1.5);
  EXPECT_DOUBLE_EQ(tok.wall_budget_s(), 0.25);
  tok.disarm();
  EXPECT_DOUBLE_EQ(tok.model_budget_s(), 0.0);
  EXPECT_DOUBLE_EQ(tok.wall_budget_s(), 0.0);
}

TEST(JobLifecycle, CancelQueuedJobSettlesWithoutRunning) {
  Machine m(lifecycle_config(2));
  JobServer srv(m);
  srv.add_tenant("t", 64 * 1024);
  server::JobHandle h = srv.submit(compute_job("t", "doomed", 3));
  h.cancel();
  h.wait();
  EXPECT_TRUE(h.cancelled());
  EXPECT_NE(h.error().find("cancelled"), std::string::npos);
  const auto ts = srv.tenant_stats("t");
  EXPECT_EQ(ts.phases_run, 0u);  // never scheduled
  EXPECT_EQ(ts.jobs_cancelled, 1u);
  const auto ls = srv.lifecycle_stats();
  EXPECT_EQ(ls.cancel_requested, 1u);
  EXPECT_EQ(ls.cancelled, 1u);
  // The server keeps serving after a cancellation.
  server::JobHandle h2 = srv.submit(compute_job("t", "alive", 2));
  h2.wait();
  EXPECT_TRUE(h2.done());
}

TEST(JobLifecycle, CancelMidPhaseUnwindsAtStagerCheckpoint) {
  Machine m(lifecycle_config(2));
  JobServer srv(m);
  srv.add_tenant("t", 64 * 1024);

  constexpr std::size_t kItems = 6;
  constexpr std::uint64_t kItemBytes = 4096;
  auto src = std::make_shared<std::vector<std::byte>>(kItems * kItemBytes);
  auto processed = std::make_shared<std::size_t>(0);
  server::JobHandle h;

  JobSpec spec;
  spec.tenant = "t";
  spec.name = "staged";
  spec.phases.push_back({"stream", [&m, src, processed,
                                    &h](server::JobContext& ctx) {
    ctx.machine.adopt_far(src->data(), src->size());
    Stager::Options so;
    so.buffer_bytes = kItemBytes;
    so.elem_bytes = 1;
    so.double_buffer = false;  // no prefetch: every boundary is quiescent
    Stager st(ctx.machine, so);
    std::vector<Stager::Item> items(kItems);
    for (std::size_t i = 0; i < kItems; ++i) {
      items[i].slices = {{src->data() + i * kItemBytes, 0, kItemBytes}};
      items[i].bytes = kItemBytes;
      items[i].index = i;
    }
    st.run(items, [&](const Stager::Item&, std::byte*,
                      const Stager::WorkerHook&) {
      // Self-cancel after the second batch: the checkpoint at the top of
      // the third iteration must throw, so exactly two items process.
      if (++*processed == 2) h.cancel();
    });
  }});
  h = srv.submit(std::move(spec));
  h.wait();
  EXPECT_TRUE(h.cancelled());
  EXPECT_EQ(*processed, 2u);
  // Leak-free unwinding: the stager's buffer (and anything else charged)
  // was refunded on the way out.
  const auto ts = srv.tenant_stats("t");
  EXPECT_EQ(ts.jobs_cancelled, 1u);
  EXPECT_EQ(ts.phases_run, 1u);  // the phase ran (and was unwound)
  EXPECT_EQ(m.near_arena().used(), 0u);
  srv.drain();
}

TEST(JobLifecycle, SlowPhaseChaosExpiresDeadlineDeterministically) {
  // Two independent runs of the same seeded schedule must settle the same
  // jobs the same way — modeled time, not host time, drives expiry.
  auto run = [](std::vector<JobStatus>& statuses) {
    Machine m(lifecycle_config(2));
    FaultInjector fi(/*seed=*/77);
    // Every phase of every job pays 1 modeled second up front.
    fi.arm(fault_site::kServerSlowPhase, FaultSchedule::every(1.0));
    m.set_fault_injector(&fi);
    JobServer srv(m);
    srv.add_tenant("t", 64 * 1024);
    std::vector<server::JobHandle> hs;
    for (int j = 0; j < 3; ++j) {
      JobSpec spec = compute_job("t", "job" + std::to_string(j), 2);
      // Odd jobs get a deadline far below the injected stall: they must
      // expire at the first phase's entry checkpoint. Even jobs have no
      // deadline and ride the stalls to completion.
      if (j % 2 == 1) spec.deadline_model_s = 0.5;
      hs.push_back(srv.submit(std::move(spec)));
    }
    srv.drain();
    for (auto& h : hs) statuses.push_back(h.status());
  };
  std::vector<JobStatus> a, b;
  run(a);
  run(b);
  ASSERT_EQ(a.size(), 3u);
  EXPECT_EQ(a, b);
  EXPECT_EQ(a[0], JobStatus::kDone);
  EXPECT_EQ(a[1], JobStatus::kDeadlineExceeded);
  EXPECT_EQ(a[2], JobStatus::kDone);
}

TEST(JobLifecycle, DeadlineSpentAfterPhaseStopsRemainingPhases) {
  Machine m(lifecycle_config(2));
  FaultInjector fi(5);
  fi.arm(fault_site::kServerSlowPhase, FaultSchedule::every(1.0));
  m.set_fault_injector(&fi);
  JobServer srv(m);
  srv.add_tenant("t", 64 * 1024);
  // Budget admits the first phase (1s stall < 1.5s) but is nearly spent
  // once it finishes: the second phase arms with the ~0.5s remainder, pays
  // the injected 1s stall, and expires at its entry checkpoint — so the
  // third phase never starts.
  JobSpec spec = compute_job("t", "late", 3);
  spec.deadline_model_s = 1.5;
  server::JobHandle h = srv.submit(std::move(spec));
  h.wait();
  EXPECT_TRUE(h.deadline_exceeded());
  const auto ts = srv.tenant_stats("t");
  EXPECT_EQ(ts.phases_run, 2u);  // second began and was unwound
  EXPECT_EQ(ts.jobs_deadline_exceeded, 1u);
  EXPECT_EQ(srv.lifecycle_stats().deadline_expired, 1u);
}

TEST(JobLifecycle, WatchdogCatchesStuckDma) {
  Machine m(lifecycle_config(2));
  FaultInjector fi(9);
  // The first phase wedges for 50ms of *host* time — invisible to the
  // model, so only the wall watchdog can see it.
  fi.arm(fault_site::kServerStuckDma,
         FaultSchedule::nth_occurrence(1, /*stall=*/0.05));
  m.set_fault_injector(&fi);
  JobServer::Options opt;
  opt.watchdog_wall_s = 0.01;
  JobServer srv(m, opt);
  srv.add_tenant("t", 64 * 1024);
  server::JobHandle h = srv.submit(compute_job("t", "wedged", 2));
  h.wait();
  EXPECT_TRUE(h.deadline_exceeded());
  EXPECT_NE(h.error().find("watchdog"), std::string::npos);
  EXPECT_EQ(srv.lifecycle_stats().watchdog_fired, 1u);
  EXPECT_EQ(srv.lifecycle_stats().deadline_expired, 0u);  // not a deadline
  // The next job sees no wedge and completes under the same watchdog.
  server::JobHandle h2 = srv.submit(compute_job("t", "fine", 2));
  h2.wait();
  EXPECT_TRUE(h2.done());
}

TEST(JobLifecycle, BoundedRetryRecoversTransientFault) {
  Machine m(lifecycle_config(2));
  JobServer srv(m);
  srv.add_tenant("t", 64 * 1024);
  auto attempts = std::make_shared<int>(0);
  JobSpec spec;
  spec.tenant = "t";
  spec.name = "flaky";
  spec.max_retries = 2;
  spec.phases.push_back({"work", [attempts](server::JobContext&) {
    if ((*attempts)++ == 0)
      throw ScratchpadError("test.flaky", 64, 0);
  }});
  server::JobHandle h = srv.submit(std::move(spec));
  h.wait();
  EXPECT_TRUE(h.done());
  EXPECT_EQ(*attempts, 2);
  const auto ts = srv.tenant_stats("t");
  EXPECT_EQ(ts.job_retries, 1u);
  EXPECT_EQ(ts.jobs_completed, 1u);
  EXPECT_EQ(srv.lifecycle_stats().retries, 1u);
}

TEST(JobLifecycle, RetryBudgetExhaustedSettlesFailed) {
  Machine m(lifecycle_config(2));
  JobServer srv(m);
  srv.add_tenant("t", 64 * 1024);
  auto attempts = std::make_shared<int>(0);
  JobSpec spec;
  spec.tenant = "t";
  spec.name = "hopeless";
  spec.max_retries = 1;
  spec.phases.push_back({"work", [attempts](server::JobContext&) {
    ++*attempts;
    throw std::runtime_error("deterministic bug");  // not fault-typed
  }});
  server::JobHandle h = srv.submit(std::move(spec));
  h.wait();
  EXPECT_EQ(h.status(), JobStatus::kFailed);
  EXPECT_EQ(*attempts, 2);  // original + one retry
  EXPECT_EQ(srv.lifecycle_stats().retries, 1u);
  EXPECT_EQ(srv.lifecycle_stats().quarantined, 0u);  // bugs don't quarantine
}

TEST(JobLifecycle, RepeatFaultTripsQuarantine) {
  Machine m(lifecycle_config(2));
  JobServer::Options opt;
  opt.quarantine_fault_trips = 2;
  JobServer srv(m, opt);
  server::TenantArena& arena = srv.add_tenant("thrash", 4096);
  srv.add_tenant("good", 64 * 1024);
  JobSpec spec;
  spec.tenant = "thrash";
  spec.name = "overdraft";
  spec.max_retries = 10;  // retries lose to quarantine containment
  spec.phases.push_back({"grab", [](server::JobContext& ctx) {
    ctx.machine.alloc(Space::Near, 64 * 1024);  // far over quota: typed fault
  }});
  server::JobHandle h = srv.submit(std::move(spec));
  h.wait();
  EXPECT_TRUE(h.quarantined());
  EXPECT_EQ(arena.used_bytes(), 0u);
  const auto ls = srv.lifecycle_stats();
  EXPECT_EQ(ls.quarantined, 1u);
  EXPECT_EQ(ls.retries, 1u);  // trip, retry, trip, quarantined
  // Containment: the admission slot is free again and neighbors run.
  server::JobHandle h2 = srv.submit(compute_job("good", "after", 2));
  h2.wait();
  EXPECT_TRUE(h2.done());
}

// The chaos differential: a thrasher that faults its way into quarantine
// runs alongside good tenants under a seeded near-alloc schedule, and the
// good tenants' outputs stay bit-identical to their solo runs.
TEST(JobLifecycle, QuarantinedThrasherNeverPerturbsNeighborOutputs) {
  constexpr std::size_t kGood = 3;
  constexpr std::size_t kN = 6000;
  std::array<std::vector<std::uint64_t>, kGood> solo;
  for (std::size_t g = 0; g < kGood; ++g) {
    Machine m(lifecycle_config(2));
    JobServer srv(m);
    srv.add_tenant("g" + std::to_string(g), 48 * 1024);
    auto res = std::make_shared<server::SortJobResult>();
    srv.submit(server::make_sort_job("g" + std::to_string(g), "solo",
                                     server::kSortBackends[g % 5], kN,
                                     2026 + g, res))
        .wait();
    ASSERT_TRUE(res->verified);
    solo[g] = res->output;
  }

  Machine m(lifecycle_config(2));
  FaultInjector fi(2026);
  fi.arm(fault_site::kNearAlloc, FaultSchedule::prob(0.2));
  m.set_fault_injector(&fi);
  JobServer::Options opt;
  opt.quarantine_fault_trips = 2;
  JobServer srv(m, opt);
  for (std::size_t g = 0; g < kGood; ++g)
    srv.add_tenant("g" + std::to_string(g), 48 * 1024);
  srv.add_tenant("thrash", 4096);

  JobSpec thrash;
  thrash.tenant = "thrash";
  thrash.name = "overdraft";
  thrash.max_retries = 8;
  thrash.phases.push_back({"grab", [](server::JobContext& ctx) {
    ctx.machine.alloc(Space::Near, 128 * 1024);
  }});
  server::JobHandle ht = srv.submit(std::move(thrash));
  std::array<std::shared_ptr<server::SortJobResult>, kGood> mixed;
  std::vector<server::JobHandle> hs;
  for (std::size_t g = 0; g < kGood; ++g) {
    mixed[g] = std::make_shared<server::SortJobResult>();
    hs.push_back(srv.submit(server::make_sort_job(
        "g" + std::to_string(g), "mixed", server::kSortBackends[g % 5], kN,
        2026 + g, mixed[g])));
  }
  srv.drain();
  EXPECT_TRUE(ht.quarantined());
  for (std::size_t g = 0; g < kGood; ++g) {
    ASSERT_TRUE(hs[g].done()) << "good tenant " << g;
    ASSERT_TRUE(mixed[g]->verified);
    EXPECT_EQ(mixed[g]->output, solo[g]) << "tenant g" << g
                                         << " output diverged from solo";
  }
}

// The settlement gate: sweep each job's modeled deadline across its solo
// modeled seconds so expiry lands on successive checkpoints, and check that
// every settlement hands back every arena byte — not just the tenant's
// charge. Every near allocation is gated, so reclaim() sees all of them.
TEST(JobLifecycle, DeadlineSweepSettlesWithAnEmptyArena) {
  struct Workload {
    const char* name;
    std::function<JobSpec()> make;
  };
  const std::vector<Workload> workloads = {
      {"nmsort",
       [] {
         return server::make_sort_job(
             "t", "nmsort", sort::Algorithm::NMsort, 40000, 11,
             std::make_shared<server::SortJobResult>());
       }},
      {"write_eff",
       [] {
         return server::make_sort_job(
             "t", "write_eff", sort::Algorithm::NMsortWriteEff, 40000, 12,
             std::make_shared<server::SortJobResult>());
       }},
      {"kmeans",
       [] {
         return server::make_kmeans_job(
             "t", "kmeans", 32000, 4, 8, 13,
             std::make_shared<server::KMeansJobResult>());
       }},
  };
  constexpr int kSteps = 16;
  for (const Workload& w : workloads) {
    double solo_s = 0;
    {
      Machine m(lifecycle_config(2));
      JobServer srv(m);
      srv.add_tenant("t", m.near_arena().capacity());
      server::JobHandle h = srv.submit(w.make());
      h.wait();
      ASSERT_TRUE(h.done()) << w.name;
      for (double s : srv.tenant_stats("t").phase_model_seconds) solo_s += s;
    }
    ASSERT_GT(solo_s, 0) << w.name;
    std::set<double> expiries;  // modeled seconds consumed at each expiry
    for (int i = 1; i < kSteps; ++i) {
      Machine m(lifecycle_config(2));
      JobServer srv(m);
      server::TenantArena& arena =
          srv.add_tenant("t", m.near_arena().capacity());
      JobSpec spec = w.make();
      spec.deadline_model_s = solo_s * i / kSteps;
      server::JobHandle h = srv.submit(std::move(spec));
      h.wait();
      EXPECT_TRUE(h.deadline_exceeded()) << w.name << " step " << i;
      EXPECT_EQ(m.near_arena().used(), 0u) << w.name << " step " << i;
      EXPECT_EQ(arena.used_bytes(), 0u) << w.name << " step " << i;
      double consumed = 0;
      for (double s : srv.tenant_stats("t").phase_model_seconds)
        consumed += s;
      expiries.insert(consumed);
    }
    EXPECT_GE(expiries.size(), 3u)
        << w.name << ": the sweep never moved expiry across checkpoints";
  }
}

TEST(JobLifecycle, ShutdownDrainCompletesAdmittedJobs) {
  Machine m(lifecycle_config(2));
  JobServer srv(m);
  srv.add_tenant("t", 64 * 1024);
  std::vector<server::JobHandle> hs;
  for (int j = 0; j < 4; ++j)
    hs.push_back(srv.submit(compute_job("t", "j" + std::to_string(j), 2)));
  srv.shutdown(JobServer::ShutdownMode::kDrain);
  EXPECT_FALSE(srv.accepting());
  for (auto& h : hs) EXPECT_TRUE(h.done());
  EXPECT_EQ(srv.tenant_stats("t").jobs_completed, 4u);
  EXPECT_EQ(m.near_arena().used(), 0u);
}

TEST(JobLifecycle, ShutdownAbortCancelsAdmittedJobs) {
  Machine m(lifecycle_config(2));
  JobServer srv(m);
  srv.add_tenant("t", 64 * 1024);
  std::vector<server::JobHandle> hs;
  for (int j = 0; j < 3; ++j)
    hs.push_back(srv.submit(compute_job("t", "j" + std::to_string(j), 2)));
  srv.shutdown(JobServer::ShutdownMode::kAbort);
  EXPECT_FALSE(srv.accepting());
  for (auto& h : hs) {
    EXPECT_TRUE(h.cancelled());
    EXPECT_NE(h.error().find("shutdown"), std::string::npos);
  }
  const auto ls = srv.lifecycle_stats();
  EXPECT_EQ(ls.cancelled, 3u);
  EXPECT_EQ(ls.shutdown_cancelled, 3u);
  EXPECT_EQ(m.near_arena().used(), 0u);
}

TEST(JobLifecycle, ExportsLifecycleMetrics) {
  Machine m(lifecycle_config(2));
  JobServer srv(m);
  srv.add_tenant("t", 64 * 1024);
  server::JobHandle h = srv.submit(compute_job("t", "victim", 2));
  h.cancel();
  h.wait();
  srv.drain();
  obs::RunRecord rec;
  srv.export_metrics(rec);
  const auto& c = rec.counters;
  ASSERT_TRUE(c.contains("cancel.requested"));
  EXPECT_EQ(c.at("cancel.requested"), 1u);
  EXPECT_EQ(c.at("cancel.settled"), 1u);
  EXPECT_EQ(c.at("cancel.shutdown"), 0u);
  EXPECT_EQ(c.at("deadline.expired"), 0u);
  EXPECT_EQ(c.at("deadline.watchdog"), 0u);
  EXPECT_EQ(c.at("quarantine.settled"), 0u);
  EXPECT_EQ(c.at("retry.attempts"), 0u);
  EXPECT_EQ(c.at("tenant.t.jobs_cancelled"), 1u);
  EXPECT_EQ(c.at("tenant.t.foreign_free"), 0u);
}

// One wave over two tenants whose jobs settle every way but rejected: the
// export keeps its key set, and each derived lifecycle total equals its sum
// over the tenants.
TEST(JobLifecycle, ExportContractOverTwoTenants) {
  Machine m(lifecycle_config(2));
  JobServer::Options opt;
  opt.quarantine_fault_trips = 1;
  JobServer srv(m, opt);
  srv.add_tenant("a", 64 * 1024);
  srv.add_tenant("b", 4096);

  server::JobHandle done = srv.submit(compute_job("a", "done", 2));
  JobSpec flaky;
  flaky.tenant = "a";
  flaky.name = "flaky";
  flaky.max_retries = 1;
  flaky.phases.push_back({"leak", [](server::JobContext& ctx) {
    ctx.machine.alloc(Space::Near, 1024);  // reclaimed on unwind
    throw std::runtime_error("deterministic bug");
  }});
  server::JobHandle failed = srv.submit(std::move(flaky));
  server::JobHandle cancelled = srv.submit(compute_job("a", "cancelled", 2));
  JobSpec late = compute_job("b", "late", 2);
  late.deadline_model_s = 1e-15;
  server::JobHandle expired = srv.submit(std::move(late));
  JobSpec grab;
  grab.tenant = "b";
  grab.name = "overdraft";
  grab.phases.push_back({"grab", [](server::JobContext& ctx) {
    ctx.machine.alloc(Space::Near, 64 * 1024);  // over quota: typed fault
  }});
  server::JobHandle quarantined = srv.submit(std::move(grab));
  cancelled.cancel();
  srv.drain();
  EXPECT_TRUE(done.done());
  EXPECT_EQ(failed.status(), JobStatus::kFailed);
  EXPECT_TRUE(cancelled.cancelled());
  EXPECT_TRUE(expired.deadline_exceeded());
  EXPECT_TRUE(quarantined.quarantined());

  obs::RunRecord rec;
  srv.export_metrics(rec);
  std::set<std::string> counters, gauges;
  for (const auto& [k, v] : rec.counters) counters.insert(k);
  for (const auto& [k, v] : rec.gauges) gauges.insert(k);
  std::set<std::string> want_counters = {
      "cancel.requested",  "cancel.settled",     "cancel.shutdown",
      "deadline.expired",  "deadline.watchdog",  "quarantine.settled",
      "retry.attempts",    "lifecycle.reclaimed_bytes"};
  std::set<std::string> want_gauges;
  for (const std::string t : {"a", "b"}) {
    for (const char* key :
         {"quota_bytes", "admissions", "rejections", "backoff_stalls",
          "quota_denials", "high_water_bytes", "jobs_completed",
          "jobs_failed", "jobs_cancelled", "jobs_deadline_exceeded",
          "jobs_quarantined", "job_retries", "foreign_free",
          "reclaimed_bytes", "phases", "attributed_far_bytes",
          "attributed_near_bytes", "degrade_to_single", "degrade_to_direct"})
      want_counters.insert("tenant." + t + "." + key);
    want_gauges.insert("tenant." + t + ".degrade_level");
  }
  EXPECT_EQ(counters, want_counters);
  EXPECT_EQ(gauges, want_gauges);

  const server::TenantStats a = srv.tenant_stats("a");
  const server::TenantStats b = srv.tenant_stats("b");
  EXPECT_EQ(a.jobs_completed, 1u);
  EXPECT_EQ(a.jobs_failed, 1u);
  EXPECT_EQ(a.job_retries, 1u);
  EXPECT_EQ(a.jobs_cancelled, 1u);
  EXPECT_EQ(a.reclaimed_bytes, 2048u);  // both attempts leaked 1 KiB
  EXPECT_EQ(b.jobs_deadline_exceeded, 1u);
  EXPECT_EQ(b.jobs_quarantined, 1u);
  const JobServer::LifecycleStats ls = srv.lifecycle_stats();
  EXPECT_EQ(ls.cancel_requested, 1u);
  EXPECT_EQ(ls.cancelled, a.jobs_cancelled + b.jobs_cancelled);
  EXPECT_EQ(ls.quarantined, a.jobs_quarantined + b.jobs_quarantined);
  EXPECT_EQ(ls.retries, a.job_retries + b.job_retries);
  EXPECT_EQ(ls.reclaimed_bytes, a.reclaimed_bytes + b.reclaimed_bytes);
  EXPECT_EQ(ls.deadline_expired + ls.watchdog_fired,
            a.jobs_deadline_exceeded + b.jobs_deadline_exceeded);
  const auto& c = rec.counters;
  EXPECT_EQ(c.at("cancel.requested"), ls.cancel_requested);
  EXPECT_EQ(c.at("cancel.settled"), ls.cancelled);
  EXPECT_EQ(c.at("cancel.shutdown"), ls.shutdown_cancelled);
  EXPECT_EQ(c.at("deadline.expired"), ls.deadline_expired);
  EXPECT_EQ(c.at("deadline.watchdog"), ls.watchdog_fired);
  EXPECT_EQ(c.at("quarantine.settled"), ls.quarantined);
  EXPECT_EQ(c.at("retry.attempts"), ls.retries);
  EXPECT_EQ(c.at("lifecycle.reclaimed_bytes"), ls.reclaimed_bytes);
  EXPECT_EQ(c.at("tenant.a.reclaimed_bytes"), a.reclaimed_bytes);
  EXPECT_EQ(c.at("tenant.b.jobs_quarantined"), b.jobs_quarantined);
}

// ---------------------------------------------------------------------------
// Concurrency: submitters racing cancel and shutdown (TSan-labeled binary)

TEST(JobLifecycleThreaded, SubmittersRaceCancelAndShutdown) {
  Machine m(lifecycle_config(2));
  JobServer::Options opt;
  opt.max_outstanding = 6;
  opt.max_queue_per_tenant = 3;
  opt.admission_retry_budget = 64;
  JobServer srv(m, opt);
  constexpr std::size_t kClients = 4;
  for (std::size_t c = 0; c < kClients; ++c)
    srv.add_tenant("c" + std::to_string(c), 32 * 1024);
  std::array<std::vector<server::JobHandle>, kClients> handles;
  std::atomic<int> submitted{0};
  ThreadPool clients(kClients);
  clients.run_spmd([&](std::size_t w) {
    for (int j = 0; j < 6; ++j) {
      server::JobHandle h;
      try {
        h = srv.submit(
            compute_job("c" + std::to_string(w), "j" + std::to_string(j), 2));
      } catch (const std::invalid_argument&) {
        break;  // shutdown won the race: submit correctly rejected
      }
      handles[w].push_back(h);
      if (j % 2 == 1) h.cancel();  // race cancels against the combiner
      ++submitted;
      // One client pulls the plug mid-stream; everyone else's in-flight
      // submits must either land before the flag flips or throw cleanly.
      if (w == 0 && j == 3) srv.shutdown(JobServer::ShutdownMode::kAbort);
    }
  });
  EXPECT_FALSE(srv.accepting());
  EXPECT_GT(submitted.load(), 0);
  for (auto& per_client : handles)
    for (auto& h : per_client) {
      h.wait();
      const JobStatus s = h.status();
      EXPECT_TRUE(s == JobStatus::kDone || s == JobStatus::kCancelled ||
                  s == JobStatus::kRejected)
          << "unexpected terminal status " << static_cast<int>(s);
    }
  for (std::size_t c = 0; c < kClients; ++c)
    EXPECT_EQ(srv.tenant_stats("c" + std::to_string(c)).high_water_bytes, 0u)
        << "compute jobs never allocate";
  EXPECT_EQ(m.near_arena().used(), 0u);
}

// ---------------------------------------------------------------------------
// Death tests: shutdown misuse is a contract violation (TLM_REQUIRE →
// std::invalid_argument), not a job status. The death statement reproduces
// the uncaught path a real service takes — no handler for contract bugs, so
// the process terminates with the requirement message — by rethrowing the
// violation as the abort it becomes outside a test harness. (gtest's death-
// test child intercepts exceptions that escape the statement, so the
// terminate handler must be invoked explicitly.)

void die_on_contract_violation(const std::invalid_argument& e) {
  std::fprintf(stderr, "%s\n", e.what());
  std::abort();
}

TEST(JobLifecycleDeath, SubmitAfterShutdownDies) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        Machine m(lifecycle_config(2));
        JobServer srv(m);
        srv.add_tenant("t", 4096);
        srv.shutdown(JobServer::ShutdownMode::kDrain);
        try {
          srv.submit(compute_job("t", "late", 1));
        } catch (const std::invalid_argument& e) {
          die_on_contract_violation(e);
        }
      },
      "submit after shutdown");
}

TEST(JobLifecycleDeath, DoubleShutdownDies) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        Machine m(lifecycle_config(2));
        JobServer srv(m);
        srv.shutdown(JobServer::ShutdownMode::kDrain);
        try {
          srv.shutdown(JobServer::ShutdownMode::kAbort);
        } catch (const std::invalid_argument& e) {
          die_on_contract_violation(e);
        }
      },
      "already shut down");
}

}  // namespace
}  // namespace tlm
