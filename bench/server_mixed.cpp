// server_mixed — the multi-tenant isolation gate for the job server.
//
// Drives a mixed stream of sort jobs (all five backends) and staged
// k-means jobs from N concurrent tenants — plus one deliberately
// thrashing tenant whose near-memory quota is a few KiB — through one
// JobServer over one shared Machine, and gates (hard, by exit code):
//
//   identical    every job's input and output are bit-identical to the
//                same job run solo on an uncontended machine (compared by
//                FNV-1a over the raw bytes);
//   isolation    no well-quota'd tenant's p99 phase *service* latency
//                (execution time, not queue wait) exceeds 2x its solo
//                baseline. Gated on the analytic model's per-phase seconds
//                — deterministic, and inflatable by a neighbor only by
//                actually displacing this tenant's data to far memory —
//                with host-clock p99 reported alongside for reference;
//   containment  the thrasher really thrashed (quota denials, degraded
//                Stagers) and nobody else saw a single quota denial;
//   throughput   aggregate mixed throughput stays within 2x of the solo
//                per-job cost, i.e. total jobs/second scales with tenant
//                count instead of collapsing under contention;
//   liveness     every admitted job completed (no rejections — overload
//                is absorbed by the bounded help-drain backoff, which the
//                run must actually have exercised).
//
// Jobs are submitted in waves (one job per tenant per wave, drain between
// waves) so thousands of jobs stream through bounded memory; within a
// wave the fair round-robin scheduler interleaves all tenants.
//
// Two lifecycle waves extend the gate (same hard exit code):
//
//   deadline     under seeded server.slow_phase chaos (10 modeled-second
//                stalls at p=0.2) every job carries a --deadline-ms budget.
//                Stalled jobs must expire deterministically — the wave runs
//                twice and must settle every job identically — unstalled
//                jobs' outputs stay bit-identical to solo, and every
//                expiry refunds its tenant's quota charge in full;
//   shutdown     a loaded server shut down with kDrain completes every
//                admitted job (outputs bit-identical to solo, zero quota
//                bytes leaked), and a queued backlog shut down with kAbort
//                settles every job kCancelled with the quota untouched.
//
// With `--json <path>` writes a tlm.run_report whose mixed-run record
// carries the tenant.* counters and whose deadline_chaos record carries
// the cancel.* / deadline.* / retry.* lifecycle counters. Everything
// exported is deterministic (serial phase execution; fixed seeds; modeled
// deadlines): host latencies are deliberately kept out of the report so
// the checked-in baseline diff stays quiet.
#include <algorithm>
#include <cstdint>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "common/faults.hpp"
#include "common/table.hpp"
#include "obs/run_report.hpp"
#include "scratchpad/machine.hpp"
#include "server/job_server.hpp"
#include "server/jobs.hpp"
#include "server/tenant_arena.hpp"

namespace tlm {
namespace {

std::uint64_t fnv1a64(const void* data, std::size_t bytes,
                      std::uint64_t h = 0xcbf29ce484222325ULL) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < bytes; ++i) {
    h ^= p[i];
    h *= 0x100000001b3ULL;
  }
  return h;
}

struct MixParams {
  std::size_t tenants = 8;    // well-quota'd tenants (thrasher is extra)
  std::size_t jobs = 250;     // jobs per tenant
  std::size_t sort_n = 12000;
  std::size_t kmeans_n = 2500;
  std::uint64_t seed = 2026;
  std::size_t cores = 4;
  std::uint64_t near_kb = 256;
};

TwoLevelConfig mix_config(const MixParams& p) {
  TwoLevelConfig cfg = test_config(4.0);
  cfg.near_capacity = p.near_kb * KiB;
  cfg.cache_bytes = 32 * KiB;
  cfg.threads = p.cores;
  cfg.overlap_dma = true;
  return cfg;
}

// Every 6th job is k-means, the rest cycle through the five sort
// backends; seeds are derived from (tenant, index) so the same job run
// solo and mixed generates the same input by construction.
struct JobResults {
  std::shared_ptr<server::SortJobResult> sort;
  std::shared_ptr<server::KMeansJobResult> kmeans;
};

server::JobSpec make_mixed_job(const MixParams& p, const std::string& tenant,
                               std::size_t tenant_idx, std::size_t idx,
                               JobResults& out) {
  const std::uint64_t seed =
      p.seed + 1000003ULL * tenant_idx + 7919ULL * idx;
  const std::string name = "job" + std::to_string(idx);
  if (idx % 6 == 5) {
    out.kmeans = std::make_shared<server::KMeansJobResult>();
    return server::make_kmeans_job(tenant, name, p.kmeans_n, 4, 8, seed,
                                   out.kmeans);
  }
  out.sort = std::make_shared<server::SortJobResult>();
  return server::make_sort_job(tenant, name, server::kSortBackends[idx % 5],
                               p.sort_n, seed, out.sort);
}

// verified flag folded in so a failed check can never hash-collide into a
// pass; k-means hashes centroids + iteration count + inertia.
std::uint64_t hash_results(const JobResults& r, bool* ok) {
  if (r.sort) {
    *ok = r.sort->verified;
    std::uint64_t h = fnv1a64(r.sort->input.data(),
                              r.sort->input.size() * sizeof(std::uint64_t));
    h = fnv1a64(r.sort->output.data(),
                r.sort->output.size() * sizeof(std::uint64_t), h);
    return fnv1a64(ok, sizeof(bool), h);
  }
  *ok = true;
  const auto& km = r.kmeans->result;
  std::uint64_t h = fnv1a64(km.centroids.data(),
                            km.centroids.size() * sizeof(double));
  h = fnv1a64(&km.iterations, sizeof(km.iterations), h);
  return fnv1a64(&km.inertia, sizeof(km.inertia), h);
}

double p99(std::vector<double> xs) {
  if (xs.empty()) return 0;
  std::sort(xs.begin(), xs.end());
  const std::size_t idx = (xs.size() * 99 + 99) / 100;  // ceil(0.99n)
  return xs[std::min(idx, xs.size()) - 1];
}

struct TenantOutcome {
  server::TenantStats stats;
  std::vector<std::uint64_t> hashes;  // per job index
  bool all_ok = true;
  double wall_s = 0;
};

constexpr std::uint64_t kThrasherQuota = 4 * KiB;

server::JobServer::Options server_options(const MixParams& p) {
  server::JobServer::Options opt;
  // Deliberately smaller than the tenant count so every wave overflows
  // capacity and submitters absorb the overload via help-drain backoff.
  opt.max_outstanding = std::max<std::size_t>(2, (p.tenants + 1) / 2);
  opt.max_queue_per_tenant = 4;
  opt.admission_retry_budget = 64;
  return opt;
}

// Runs `jobs` jobs for one tenant on a fresh, uncontended machine — the
// solo baseline the mixed run is compared against, job for job.
TenantOutcome run_solo(const MixParams& p, const std::string& tenant,
                       std::size_t tenant_idx, std::uint64_t quota) {
  const bench::WallClock wall;
  Machine m(mix_config(p));
  server::JobServer srv(m, server_options(p));
  srv.add_tenant(tenant, quota);
  TenantOutcome out;
  for (std::size_t idx = 0; idx < p.jobs; ++idx) {
    JobResults r;
    server::JobHandle h =
        srv.submit(make_mixed_job(p, tenant, tenant_idx, idx, r));
    h.wait();
    bool ok = h.done();
    out.hashes.push_back(hash_results(r, &ok));
    out.all_ok = out.all_ok && ok;
  }
  srv.drain();
  out.stats = srv.tenant_stats(tenant);
  out.wall_s = wall.seconds();
  return out;
}

// ---- lifecycle waves -----------------------------------------------------

struct DeadlineOutcome {
  // One entry per submitted job in submission order — the determinism gate
  // compares two independent runs of the wave element-wise.
  std::vector<int> statuses;
  std::size_t expired = 0;
  std::size_t completed = 0;
  bool hashes_match = true;   // completed jobs vs the solo baseline
  bool statuses_legal = true; // nothing settled outside {done, expired}
  std::uint64_t leaked = 0;   // quota bytes still charged after drain
  server::JobServer::LifecycleStats ls;
};

// One wave of mixed jobs per tenant under seeded server.slow_phase chaos:
// 10 modeled-second stalls at p=0.2 against a --deadline-ms budget that
// ordinary jobs undercut by orders of magnitude, so exactly the stalled
// phases expire — deterministically, because expiry is measured in modeled
// seconds and the injector is a pure function of (seed, site, occurrence).
DeadlineOutcome run_deadline_wave(const MixParams& p,
                                  const std::vector<TenantOutcome>& solo,
                                  double deadline_s, std::size_t jobs,
                                  obs::RunRecord* rec) {
  DeadlineOutcome out;
  Machine m(mix_config(p));
  FaultInjector fi(p.seed);
  fi.arm(fault_site::kServerSlowPhase, FaultSchedule::prob(0.2, 10.0));
  m.set_fault_injector(&fi);
  server::JobServer srv(m, server_options(p));
  std::vector<server::TenantArena*> arenas;
  for (std::size_t i = 0; i < p.tenants; ++i)
    arenas.push_back(
        &srv.add_tenant("t" + std::to_string(i), mix_config(p).near_capacity));
  std::vector<std::vector<JobResults>> results(jobs);
  for (std::size_t idx = 0; idx < jobs; ++idx) {
    results[idx].resize(p.tenants);
    std::vector<server::JobHandle> handles;
    for (std::size_t i = 0; i < p.tenants; ++i) {
      server::JobSpec spec = make_mixed_job(p, "t" + std::to_string(i), i,
                                            idx, results[idx][i]);
      spec.deadline_model_s = deadline_s;
      handles.push_back(srv.submit(std::move(spec)));
    }
    srv.drain();
    for (std::size_t i = 0; i < p.tenants; ++i) {
      server::JobHandle& h = handles[i];
      out.statuses.push_back(static_cast<int>(h.status()));
      if (h.done()) {
        ++out.completed;
        bool ok = true;
        const std::uint64_t hash = hash_results(results[idx][i], &ok);
        if (!ok || hash != solo[i].hashes[idx]) out.hashes_match = false;
      } else if (h.deadline_exceeded()) {
        ++out.expired;
      } else {
        out.statuses_legal = false;
      }
    }
  }
  for (server::TenantArena* a : arenas) out.leaked += a->used_bytes();
  out.ls = srv.lifecycle_stats();
  if (rec) srv.export_metrics(*rec);
  return out;
}

struct ShutdownOutcome {
  bool drain_completed = true;  // kDrain finished every admitted job
  bool drain_identical = true;  // ... with outputs bit-identical to solo
  bool abort_cancelled = true;  // kAbort settled every queued job kCancelled
  std::uint64_t shutdown_cancelled = 0;
  std::uint64_t leaked = 0;  // quota bytes leaked across both variants
};

ShutdownOutcome run_shutdown_wave(const MixParams& p,
                                  const std::vector<TenantOutcome>& solo,
                                  std::size_t jobs) {
  ShutdownOutcome out;
  // kDrain under load: submit a full backlog (deliberately past the
  // admission cap, so backoff help-drain is live when the plug is pulled),
  // then shut down and require every admitted job to finish untouched.
  {
    Machine m(mix_config(p));
    server::JobServer srv(m, server_options(p));
    std::vector<server::TenantArena*> arenas;
    for (std::size_t i = 0; i < p.tenants; ++i)
      arenas.push_back(&srv.add_tenant("t" + std::to_string(i),
                                       mix_config(p).near_capacity));
    std::vector<std::vector<JobResults>> results(jobs);
    std::vector<server::JobHandle> handles;
    std::vector<std::pair<std::size_t, std::size_t>> coords;  // (idx, tenant)
    for (std::size_t idx = 0; idx < jobs; ++idx) {
      results[idx].resize(p.tenants);
      for (std::size_t i = 0; i < p.tenants; ++i) {
        handles.push_back(srv.submit(make_mixed_job(
            p, "t" + std::to_string(i), i, idx, results[idx][i])));
        coords.emplace_back(idx, i);
      }
    }
    srv.shutdown(server::JobServer::ShutdownMode::kDrain);
    for (std::size_t j = 0; j < handles.size(); ++j) {
      const auto [idx, i] = coords[j];
      if (!handles[j].done()) {
        out.drain_completed = false;
        continue;
      }
      bool ok = true;
      const std::uint64_t hash = hash_results(results[idx][i], &ok);
      if (!ok || hash != solo[i].hashes[idx]) out.drain_identical = false;
    }
    for (server::TenantArena* a : arenas) out.leaked += a->used_bytes();
  }
  // kAbort on a queued backlog: stay under the admission cap so nothing has
  // run yet, then abort — every job must settle kCancelled with the quota
  // untouched and the cancellations attributed to shutdown.
  {
    Machine m(mix_config(p));
    const server::JobServer::Options opt = server_options(p);
    server::JobServer srv(m, opt);
    std::vector<server::TenantArena*> arenas;
    for (std::size_t i = 0; i < p.tenants; ++i)
      arenas.push_back(&srv.add_tenant("t" + std::to_string(i),
                                       mix_config(p).near_capacity));
    const std::size_t backlog = std::min(p.tenants, opt.max_outstanding);
    std::vector<server::JobHandle> handles;
    std::vector<JobResults> results(backlog);
    for (std::size_t i = 0; i < backlog; ++i)
      handles.push_back(srv.submit(
          make_mixed_job(p, "t" + std::to_string(i), i, 0, results[i])));
    srv.shutdown(server::JobServer::ShutdownMode::kAbort);
    for (auto& h : handles)
      if (!h.cancelled()) out.abort_cancelled = false;
    out.shutdown_cancelled = srv.lifecycle_stats().shutdown_cancelled;
    for (server::TenantArena* a : arenas) out.leaked += a->used_bytes();
  }
  return out;
}

int run(const bench::Flags& flags) {
  const bench::WallClock wall;
  bench::banner("server_mixed",
                "co-design premise: concurrent workloads share the "
                "scratchpad under per-tenant quotas without interference");

  MixParams p;
  const bool quick = flags.has("--quick");
  if (quick) {
    p.tenants = 4;
    p.jobs = 18;
    p.sort_n = 8000;
    p.kmeans_n = 1500;
  }
  p.tenants = flags.u64("--tenants", p.tenants);
  p.jobs = flags.u64("--jobs", p.jobs);
  p.sort_n = flags.u64("--n", p.sort_n);
  p.cores = flags.u64("--cores", p.cores);
  p.near_kb = flags.u64("--near-kb", p.near_kb);
  p.seed = flags.u64("--seed", p.seed);

  const TwoLevelConfig cfg = mix_config(p);
  const std::uint64_t good_quota = cfg.near_capacity;
  const std::size_t all = p.tenants + 1;  // + thrasher
  std::cout << "tenants=" << p.tenants << "+thrasher  jobs/tenant="
            << p.jobs << " (" << all * p.jobs << " total)  sort n="
            << p.sort_n << "  kmeans n=" << p.kmeans_n << "  cores="
            << p.cores << "  near=" << p.near_kb << "KiB\n";

  auto tenant_name = [&](std::size_t i) {
    return i < p.tenants ? "t" + std::to_string(i) : std::string("thrasher");
  };
  auto tenant_quota = [&](std::size_t i) {
    return i < p.tenants ? good_quota : kThrasherQuota;
  };

  // ---- solo baselines ----------------------------------------------------
  std::vector<TenantOutcome> solo;
  double solo_wall = 0;
  for (std::size_t i = 0; i < all; ++i) {
    solo.push_back(run_solo(p, tenant_name(i), i, tenant_quota(i)));
    solo_wall += solo.back().wall_s;
  }

  // ---- the mixed run -----------------------------------------------------
  const bench::WallClock mixed_wall;
  Machine m(cfg);
  server::JobServer srv(m, server_options(p));
  for (std::size_t i = 0; i < all; ++i)
    srv.add_tenant(tenant_name(i), tenant_quota(i));

  std::vector<TenantOutcome> mixed(all);
  bool identical = true;
  for (std::size_t idx = 0; idx < p.jobs; ++idx) {
    std::vector<JobResults> results(all);
    std::vector<server::JobHandle> handles;
    for (std::size_t i = 0; i < all; ++i)
      handles.push_back(
          srv.submit(make_mixed_job(p, tenant_name(i), i, idx, results[i])));
    srv.drain();
    for (std::size_t i = 0; i < all; ++i) {
      bool ok = handles[i].done();
      const std::uint64_t h = hash_results(results[i], &ok);
      mixed[i].hashes.push_back(h);
      mixed[i].all_ok = mixed[i].all_ok && ok;
      if (h != solo[i].hashes[idx]) {
        identical = false;
        std::cout << "OUTPUT MISMATCH: " << tenant_name(i) << " job " << idx
                  << "\n";
      }
    }
  }
  for (std::size_t i = 0; i < all; ++i)
    mixed[i].stats = srv.tenant_stats(tenant_name(i));
  const double mixed_s = mixed_wall.seconds();

  // ---- report + gates ----------------------------------------------------
  Table t("per-tenant isolation (solo vs mixed, modeled p99 gated)");
  t.header({"tenant", "quota", "jobs", "model p99 solo (ms)",
            "model p99 mixed (ms)", "ratio", "host p99 ratio", "denials",
            "degrade", "fallbacks", "stalls"});
  bool all_ok = true, isolated = true, contained = true;
  std::uint64_t rejections = 0, backoff_stalls = 0;
  for (std::size_t i = 0; i < all; ++i) {
    const auto& s = solo[i];
    const auto& x = mixed[i];
    const double ps = p99(s.stats.phase_model_seconds);
    const double px = p99(x.stats.phase_model_seconds);
    const double host_ratio =
        p99(s.stats.phase_seconds) > 0
            ? p99(x.stats.phase_seconds) / p99(s.stats.phase_seconds)
            : 0;
    const bool thrasher = i == p.tenants;
    t.row({tenant_name(i), Table::count(x.stats.quota_bytes),
           std::to_string(x.stats.jobs_completed), Table::num(ps * 1e3, 3),
           Table::num(px * 1e3, 3), Table::num(ps > 0 ? px / ps : 0, 2),
           Table::num(host_ratio, 2),
           std::to_string(x.stats.quota_denials),
           std::to_string(x.stats.degrade_level),
           std::to_string(x.stats.faults.near_far_fallbacks),
           std::to_string(x.stats.backoff_stalls)});
    all_ok = all_ok && s.all_ok && x.all_ok &&
             x.stats.jobs_completed == p.jobs && x.stats.jobs_failed == 0;
    if (!thrasher) {
      // Modeled service-time isolation: 2x solo p99 (plus a 1 µs floor for
      // degenerate zero-traffic phases).
      isolated = isolated && px <= 2 * ps + 1e-6;
      // A full-capacity quota never binds: zero denials, and no more
      // degradation than the same jobs saw solo (genuine capacity misses
      // affect both runs equally).
      contained = contained && x.stats.quota_denials == 0 &&
                  x.stats.degrade_level <= s.stats.degrade_level;
    } else {
      // The thrasher must really have been denied AND degraded: either its
      // Stagers stepped the ladder or its allocations fell back to far —
      // which of the two depends on job size vs scratchpad capacity.
      contained = contained && x.stats.quota_denials > 0 &&
                  (x.stats.degrade_level > 0 ||
                   x.stats.faults.near_far_fallbacks > 0);
    }
    rejections += x.stats.rejections;
    backoff_stalls += x.stats.backoff_stalls;
  }
  std::cout << t;

  const double solo_tput = all * p.jobs / solo_wall;
  const double mixed_tput = all * p.jobs / mixed_s;
  const bool throughput_ok = mixed_tput >= 0.5 * solo_tput;
  const bool overload_seen = backoff_stalls > 0;
  std::cout << "throughput: solo " << Table::num(solo_tput, 1)
            << " jobs/s, mixed " << Table::num(mixed_tput, 1) << " jobs/s ("
            << all * p.jobs << " jobs in " << Table::num(mixed_s, 2)
            << "s)\n";
  std::cout << "shape: all jobs completed and verified: "
            << (all_ok ? "yes" : "NO") << "\n";
  std::cout << "shape: outputs bit-identical to solo runs: "
            << (identical ? "yes" : "NO") << "\n";
  std::cout << "shape: modeled p99 service latency within 2x solo: "
            << (isolated ? "yes" : "NO") << "\n";
  std::cout << "shape: thrashing contained to the thrasher: "
            << (contained ? "yes" : "NO") << "\n";
  std::cout << "shape: mixed throughput within 2x of solo per-job cost: "
            << (throughput_ok ? "yes" : "NO") << "\n";
  std::cout << "shape: overload absorbed by backoff, no rejections: "
            << (overload_seen && rejections == 0 ? "yes" : "NO") << "\n";

  obs::RunReport report("server_mixed");
  report.params["tenants"] = static_cast<std::uint64_t>(p.tenants);
  report.params["jobs_per_tenant"] = static_cast<std::uint64_t>(p.jobs);
  report.params["sort_n"] = static_cast<std::uint64_t>(p.sort_n);
  report.params["kmeans_n"] = static_cast<std::uint64_t>(p.kmeans_n);
  report.params["cores"] = static_cast<std::uint64_t>(p.cores);
  report.params["seed"] = p.seed;
  report.params["deadline_ms"] = flags.u64("--deadline-ms", 1000);
  obs::RunRecord& rec = report.add_run("mixed");
  rec.set_config(cfg);
  srv.export_metrics(rec);

  // ---- deadline-chaos wave ----------------------------------------------
  const double deadline_s = flags.f64("--deadline-ms", 1000.0) / 1e3;
  const std::size_t dl_jobs =
      std::min<std::size_t>(p.jobs, quick ? 4 : 8);
  DeadlineOutcome d1 =
      run_deadline_wave(p, solo, deadline_s, dl_jobs, nullptr);
  obs::RunRecord& dl_rec = report.add_run("deadline_chaos");
  dl_rec.set_config(cfg);
  DeadlineOutcome d2 =
      run_deadline_wave(p, solo, deadline_s, dl_jobs, &dl_rec);
  const bool deadline_det =
      d1.statuses == d2.statuses && d1.expired == d2.expired &&
      d1.ls.deadline_expired == d2.ls.deadline_expired &&
      d1.ls.reclaimed_bytes == d2.ls.reclaimed_bytes;
  const bool deadline_ok = d2.expired > 0 && d2.completed > 0 &&
                           d2.hashes_match && d2.statuses_legal &&
                           d2.leaked == 0 && deadline_det;
  std::cout << "deadline chaos: " << d2.expired << "/" << d2.statuses.size()
            << " jobs expired under " << Table::num(deadline_s * 1e3, 0)
            << "ms modeled budget, " << d2.completed << " completed\n";
  std::cout << "shape: deadline expiry deterministic across reruns: "
            << (deadline_det ? "yes" : "NO") << "\n";
  std::cout << "shape: deadline survivors bit-identical, quota refunded: "
            << (d2.hashes_match && d2.statuses_legal && d2.leaked == 0
                    ? "yes"
                    : "NO")
            << "\n";

  // ---- shutdown-under-load wave -----------------------------------------
  ShutdownOutcome sd = run_shutdown_wave(p, solo, std::min<std::size_t>(p.jobs, 3));
  const bool shutdown_ok = sd.drain_completed && sd.drain_identical &&
                           sd.abort_cancelled && sd.shutdown_cancelled > 0 &&
                           sd.leaked == 0;
  std::cout << "shape: drain shutdown completes all jobs bit-identically: "
            << (sd.drain_completed && sd.drain_identical ? "yes" : "NO")
            << "\n";
  std::cout << "shape: abort shutdown cancels backlog, zero bytes leaked: "
            << (sd.abort_cancelled && sd.shutdown_cancelled > 0 &&
                        sd.leaked == 0
                    ? "yes"
                    : "NO")
            << "\n";

  bench::write_report_if_requested(flags, report, wall);

  const bool pass = all_ok && identical && isolated && contained &&
                    throughput_ok && overload_seen && rejections == 0 &&
                    deadline_ok && shutdown_ok;
  std::cout << (pass ? "PASS" : "FAIL") << "\n";
  return pass ? 0 : 1;
}

}  // namespace
}  // namespace tlm

int main(int argc, char** argv) {
  return tlm::run(tlm::bench::Flags(argc, argv));
}
