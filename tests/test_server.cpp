// Multi-tenant job server: TenantArena quota accounting (edge cases at the
// quota boundary), the Machine's NearQuotaGate hook, fair scheduling and
// admission control in JobServer, per-tenant attribution conservation, and
// the model-sanitizer tenant rules (death tests, TLM_CHECK_MODEL builds).
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <numeric>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "common/faults.hpp"
#include "common/thread_pool.hpp"
#include "kmeans/kmeans.hpp"
#include "obs/metrics.hpp"
#include "scratchpad/machine.hpp"
#include "server/job_server.hpp"
#include "server/jobs.hpp"
#include "server/tenant_arena.hpp"

namespace tlm {
namespace {

using server::JobServer;
using server::JobSpec;
using server::JobStatus;
using server::SortBackend;
using server::TenantArena;

TwoLevelConfig server_config(std::size_t threads = 4) {
  TwoLevelConfig cfg = test_config(4.0);
  cfg.near_capacity = 256 * 1024;  // small scratchpad: quotas really bind
  cfg.threads = threads;
  cfg.overlap_dma = true;
  return cfg;
}

// ---------------------------------------------------------------------------
// TenantArena quota edge cases

TEST(TenantArenaQuota, ZeroByteQuotaDeniesEverything) {
  Machine m(server_config(2));
  TenantArena a(m, "broke", 0);
  a.install();
  EXPECT_FALSE(m.try_alloc_near(64));
  EXPECT_FALSE(m.try_alloc_near(1));
  EXPECT_EQ(a.quota_denials(), 2u);
  EXPECT_EQ(a.used_bytes(), 0u);
  EXPECT_EQ(a.grants(), 0u);
  // The arena itself was never touched — denial is a quota outcome, not
  // capacity exhaustion.
  EXPECT_EQ(m.fault_stats().near_alloc_exhausted, 0u);
  EXPECT_EQ(m.near_arena().used(), 0u);
}

TEST(TenantArenaQuota, ExactFitAtQuotaBoundary) {
  Machine m(server_config(2));
  TenantArena a(m, "exact", 4096);
  a.install();
  const auto p = m.try_alloc_near(4096);  // == quota: allowed (<=, not <)
  ASSERT_TRUE(p);
  EXPECT_EQ(a.used_bytes(), 4096u);
  EXPECT_EQ(a.high_water_bytes(), 4096u);
  EXPECT_FALSE(m.try_alloc_near(1));  // one byte over: denied
  EXPECT_EQ(a.quota_denials(), 1u);
  m.dealloc(p->data());
  EXPECT_EQ(a.used_bytes(), 0u);
  EXPECT_EQ(a.releases(), 1u);
}

TEST(TenantArenaQuota, HugeRequestIsAQuotaDenialNotAWrap) {
  Machine m(server_config(2));
  TenantArena a(m, "huge", 8192);
  a.install();
  const auto p = m.try_alloc_near(4096);
  ASSERT_TRUE(p);
  // used + bytes wraps to less than the quota; the gate must still deny.
  EXPECT_FALSE(m.try_alloc_near(SIZE_MAX - 100));
  EXPECT_EQ(a.quota_denials(), 1u);
  EXPECT_EQ(a.used_bytes(), 4096u);
  EXPECT_EQ(m.fault_stats().near_alloc_exhausted, 0u);
  m.dealloc(p->data());
}

TEST(TenantArenaQuota, ReleaseThenReallocAccounting) {
  Machine m(server_config(2));
  TenantArena a(m, "cycle", 8192);
  a.install();
  const auto p = m.try_alloc_near(8192);
  ASSERT_TRUE(p);
  EXPECT_FALSE(m.try_alloc_near(64));  // budget fully committed
  m.dealloc(p->data());
  const auto q = m.try_alloc_near(8192);  // freed budget is reusable in full
  ASSERT_TRUE(q);
  EXPECT_EQ(a.used_bytes(), 8192u);
  EXPECT_EQ(a.grants(), 2u);
  EXPECT_EQ(a.releases(), 1u);
  EXPECT_EQ(a.quota_denials(), 1u);
  m.dealloc(q->data());
  EXPECT_EQ(a.used_bytes(), 0u);
  EXPECT_EQ(a.high_water_bytes(), 8192u);
}

TEST(TenantArenaQuota, ThrowingPathCarriesTypedError) {
  Machine m(server_config(2));
  TenantArena a(m, "typed", 1024);
  a.install();
  std::byte* p = m.alloc(Space::Near, 512);
  ASSERT_NE(p, nullptr);
  try {
    m.alloc(Space::Near, 1024);
    FAIL() << "expected ScratchpadError";
  } catch (const ScratchpadError& e) {
    EXPECT_EQ(e.site(), fault_site::kTenantQuota);
    EXPECT_EQ(e.requested_bytes(), 1024u);
    EXPECT_EQ(e.available_bytes(), 512u);  // quota minus committed
  }
  m.dealloc(p);
}

TEST(TenantArenaQuota, InfallibleAllocIsGatedButNeverInjected) {
  Machine m(server_config(2));
  FaultInjector fi(/*seed=*/1);
  fi.arm(fault_site::kNearAlloc, FaultSchedule::every());
  m.set_fault_injector(&fi);
  TenantArena a(m, "gated", 8192);
  a.install();
  // The fallible path is injected; the infallible one is not…
  EXPECT_FALSE(m.try_alloc_near(1024));
  std::byte* p = m.alloc(Space::Near, 4096);
  ASSERT_NE(p, nullptr);
  EXPECT_EQ(m.space_of(p), Space::Near);
  EXPECT_EQ(m.fault_stats().near_alloc_injected, 1u);
  // …but it is charged to the installed gate all the same.
  EXPECT_EQ(a.used_bytes(), 4096u);
  EXPECT_EQ(a.grants(), 1u);
  m.dealloc(p);
  EXPECT_EQ(a.used_bytes(), 0u);
  EXPECT_EQ(a.releases(), 1u);
  m.set_fault_injector(nullptr);
}

TEST(TenantArenaQuota, QuotaAboveCapacityIsRejected) {
  Machine m(server_config(2));
  EXPECT_THROW(TenantArena(m, "greedy", m.near_arena().capacity() + 1),
               std::invalid_argument);
}

TEST(TenantArenaQuota, ForeignFreesAreNotCredited) {
  Machine m(server_config(2));
  TenantArena b(m, "b", 8192);
  // A near pointer b's gate never granted is ignored by b's freed() hook —
  // and counted, so misrouted frees are observable instead of silent.
  b.install();
  const auto pb = m.try_alloc_near(1024);
  ASSERT_TRUE(pb);
  b.uninstall();
  std::byte* raw = m.alloc(Space::Near, 512);
  EXPECT_EQ(b.foreign_frees(), 0u);
  b.install();
  m.dealloc(Space::Near, raw);  // foreign: allocated gate-free
  EXPECT_EQ(b.used_bytes(), 1024u);
  EXPECT_EQ(b.foreign_frees(), 1u);
  m.dealloc(pb->data());
  EXPECT_EQ(b.used_bytes(), 0u);
  EXPECT_EQ(b.foreign_frees(), 1u);
  b.uninstall();
}

TEST(TenantArenaQuota, CrossTenantFreeCountsForeignAndReclaimStaysHonest) {
  Machine m(server_config(2));
  TenantArena a(m, "victim", 8192);
  TenantArena b(m, "bully", 8192);
  a.install();
  const auto pa = m.try_alloc_near(4096);
  ASSERT_TRUE(pa);
  // The double-free pathology: a's pointer freed while b's gate is
  // installed. b counts a foreign free (never credits), a's charge goes
  // stale — exactly what tenant.foreign_free is there to surface.
  b.install();
  m.dealloc(Space::Near, pa->data());
  b.uninstall();
  EXPECT_EQ(b.foreign_frees(), 1u);
  EXPECT_EQ(b.used_bytes(), 0u);
  EXPECT_EQ(a.used_bytes(), 4096u);  // stale: the block is gone
  // reclaim() must drop the stale charge without double-freeing the block
  // the arena already released.
  a.reclaim();
  EXPECT_EQ(a.used_bytes(), 0u);
  EXPECT_EQ(m.near_arena().used(), 0u);
}

TEST(TenantArenaQuota, ReclaimFreesEveryChargedAllocation) {
  Machine m(server_config(2));
  TenantArena a(m, "leaky", 16 * 1024);
  a.install();
  ASSERT_TRUE(m.try_alloc_near(4096));
  ASSERT_TRUE(m.try_alloc_near(2048));
  ASSERT_TRUE(m.try_alloc_near(1024));
  EXPECT_EQ(a.used_bytes(), 7168u);
  const std::uint64_t arena_used = m.near_arena().used();
  EXPECT_GE(arena_used, 7168u);
  EXPECT_EQ(a.reclaim(), 7168u);
  EXPECT_EQ(a.used_bytes(), 0u);
  EXPECT_EQ(a.reclaimed_bytes(), 7168u);
  EXPECT_EQ(m.near_arena().used(), 0u);
  // Idempotent: nothing left to hand back.
  EXPECT_EQ(a.reclaim(), 0u);
}

TEST(TenantArenaQuota, ReclaimWithNoGateInstalledCreditsItself) {
  Machine m(server_config(2));
  TenantArena a(m, "settled", 16 * 1024);
  a.install();
  ASSERT_TRUE(m.try_alloc_near(4096));
  ASSERT_NE(m.alloc(Space::Near, 2048), nullptr);
  a.uninstall();  // settlement runs between phases, with no gate installed
  EXPECT_EQ(a.reclaim(), 6144u);
  EXPECT_EQ(a.used_bytes(), 0u);
  EXPECT_EQ(a.releases(), 2u);
  EXPECT_EQ(a.foreign_frees(), 0u);
  EXPECT_EQ(m.near_arena().used(), 0u);
}

// ---------------------------------------------------------------------------
// The Machine-side gate hook

TEST(NearQuotaGate, ChargesAllocationsMadeDeepInLibraryCode) {
  Machine m(server_config(2));
  TenantArena a(m, "deep", 16 * 1024);
  a.install();
  // Library code that has never heard of tenants allocates via the Machine;
  // the installed gate charges it anyway.
  const auto p = m.try_alloc_near(8 * 1024);
  ASSERT_TRUE(p);
  EXPECT_EQ(a.used_bytes(), 8u * 1024);
  // Over-quota while the arena still has plenty of space: the denial is the
  // quota's, and it is not miscounted as arena exhaustion.
  EXPECT_FALSE(m.try_alloc_near(16 * 1024));
  EXPECT_GT(m.near_arena().free_bytes(), 16u * 1024);
  EXPECT_EQ(m.fault_stats().near_alloc_exhausted, 0u);
  EXPECT_EQ(a.quota_denials(), 1u);
  m.dealloc(Space::Near, p->data());  // gate installed: credited back
  EXPECT_EQ(a.used_bytes(), 0u);
  a.uninstall();
  EXPECT_EQ(m.near_gate(), nullptr);
}

TEST(NearQuotaGate, NearOrFarFallbackDegradesOverQuotaTenants) {
  Machine m(server_config(2));
  TenantArena a(m, "fallback", 0);
  a.install();
  auto span = m.alloc_array_near_or_far<std::uint64_t>(1024);
  ASSERT_EQ(span.size(), 1024u);
  EXPECT_EQ(m.space_of(span.data()), Space::Far);
  EXPECT_EQ(m.fault_stats().near_far_fallbacks, 1u);
  m.free_array(span);
  a.uninstall();
}

TEST(NearQuotaGate, ArenaExhaustionAfterAdmitRefundsTheCharge) {
  TwoLevelConfig cfg = server_config(2);
  cfg.near_capacity = 64 * 1024;
  Machine m(cfg);
  // Quota equals capacity, so admit() passes but the arena itself can deny.
  TenantArena a(m, "refund", 64 * 1024);
  std::byte* big = m.alloc(Space::Near, 48 * 1024);
  a.install();
  const auto p = m.try_alloc_near(32 * 1024);  // within quota, arena too full
  EXPECT_FALSE(p);
  EXPECT_EQ(m.fault_stats().near_alloc_exhausted, 1u);
  EXPECT_EQ(a.used_bytes(), 0u) << "failed grant must refund the quota";
  a.uninstall();
  m.dealloc(Space::Near, big);
}

// ---------------------------------------------------------------------------
// One gated near path: a sole tenant's books match the arena's

// Runs `spec` as the only tenant of a fresh server over `m` and returns its
// stats once the job settles.
server::TenantStats run_sole_tenant(Machine& m, std::uint64_t quota,
                                    JobSpec spec) {
  JobServer srv(m);
  srv.add_tenant(spec.tenant, quota);
  server::JobHandle h = srv.submit(std::move(spec));
  h.wait();
  EXPECT_TRUE(h.done()) << h.error();
  return srv.tenant_stats("solo");
}

TEST(SoleTenantHighWater, EverySortBackendMatchesTheArena) {
  for (SortBackend b : server::kSortBackends) {
    Machine m(server_config());
    auto res = std::make_shared<server::SortJobResult>();
    const server::TenantStats ts = run_sole_tenant(
        m, m.near_arena().capacity(),
        server::make_sort_job("solo", "sort", b, 60000, 4242, res));
    ASSERT_TRUE(res->verified) << server::to_string(b);
    if (b != SortBackend::kGnu) {  // the single-level baseline stays far
      EXPECT_GT(m.near_arena().high_water(), 0u) << server::to_string(b);
    }
    EXPECT_EQ(ts.high_water_bytes, m.near_arena().high_water())
        << server::to_string(b) << ": tenant books miss arena bytes";
    EXPECT_EQ(ts.foreign_frees, 0u) << server::to_string(b);
  }
}

TEST(SoleTenantHighWater, StagedKMeansMatchesTheArena) {
  Machine m(server_config());
  auto res = std::make_shared<server::KMeansJobResult>();
  const server::TenantStats ts = run_sole_tenant(
      m, m.near_arena().capacity(),
      server::make_kmeans_job("solo", "blobs", 16000, 4, 8, 99, res));
  EXPECT_GT(m.near_arena().high_water(), 0u);
  EXPECT_EQ(ts.high_water_bytes, m.near_arena().high_water());
  EXPECT_EQ(ts.foreign_frees, 0u);
}

TEST(SoleTenantHighWater, ScratchpadSortDegradesUnderTightQuota) {
  constexpr std::size_t kN = 60000;
  std::vector<std::uint64_t> solo;
  {
    Machine m(server_config());
    auto res = std::make_shared<server::SortJobResult>();
    run_sole_tenant(m, m.near_arena().capacity(),
                    server::make_sort_job("solo", "sort",
                                          SortBackend::kScratchpadSeq, kN, 7,
                                          res));
    ASSERT_TRUE(res->verified);
    solo = res->output;
  }
  // scratchpad_sort's base case stages fit = (M − M/16) / 2 bytes; its
  // inner mergesort wants as much again. A quota of 1.5× fit admits the
  // operand but not the ping-pong buffer, which must fall back to far.
  Machine m(server_config());
  const std::uint64_t cap = m.near_arena().capacity();
  const std::uint64_t base_case_bytes = (cap - cap / 16) / 2;
  const std::uint64_t quota = base_case_bytes * 3 / 2;
  ASSERT_LT(quota, cap);
  auto res = std::make_shared<server::SortJobResult>();
  const server::TenantStats ts = run_sole_tenant(
      m, quota,
      server::make_sort_job("solo", "sort", SortBackend::kScratchpadSeq, kN,
                            7, res));
  ASSERT_TRUE(res->verified);
  EXPECT_EQ(res->output, solo) << "degraded output diverged from solo";
  EXPECT_GT(ts.faults.near_far_fallbacks, 0u);
  EXPECT_LE(m.near_arena().high_water(), quota);
  EXPECT_EQ(ts.high_water_bytes, m.near_arena().high_water());
}

// ---------------------------------------------------------------------------
// Machine::totals + phase_delta plumbing the attribution rides on

TEST(MachineTotals, PhaseDeltaBracketsTraffic) {
  Machine m(server_config(2));
  std::vector<std::uint64_t> buf(1024);
  m.adopt_far(buf.data(), buf.size() * sizeof(std::uint64_t));
  const PhaseStats before = m.totals();
  m.stream_read(0, buf.data(), 4096);
  m.stream_write(0, buf.data(), 512);
  const PhaseStats delta = phase_delta(m.totals(), before);
  EXPECT_EQ(delta.far_read_bytes(), 4096u);
  EXPECT_EQ(delta.far_write_bytes(), 512u);
  EXPECT_EQ(delta.near_bytes(), 0u);
  // Totals agree with the O(#phases) stats() view.
  EXPECT_EQ(m.totals().far_bytes(), m.stats().total.far_bytes());
}

// ---------------------------------------------------------------------------
// JobServer scheduling, admission, attribution

TEST(JobServerTest, RunsEverySortBackendVerified) {
  Machine m(server_config());
  JobServer srv(m);
  srv.add_tenant("t", m.near_arena().capacity());
  std::vector<std::shared_ptr<server::SortJobResult>> results;
  std::vector<server::JobHandle> handles;
  int i = 0;
  for (SortBackend b : server::kSortBackends) {
    auto res = std::make_shared<server::SortJobResult>();
    results.push_back(res);
    handles.push_back(srv.submit(server::make_sort_job(
        "t", std::string("sort-") + server::to_string(b), b, 20000,
        1234 + i++, res)));
  }
  srv.drain();
  for (std::size_t j = 0; j < handles.size(); ++j) {
    EXPECT_TRUE(handles[j].done());
    EXPECT_TRUE(results[j]->verified)
        << "backend " << server::to_string(server::kSortBackends[j]);
  }
  const auto st = srv.tenant_stats("t");
  EXPECT_EQ(st.jobs_completed, 5u);
  EXPECT_EQ(st.phases_run, 15u);  // gen/sort/check each
  EXPECT_GT(st.attributed.far_bytes() + st.attributed.near_bytes(), 0u);
}

// A phase between sort and check corrupts the output; the check must say
// so. The identity corruption is the control: the extra phase alone does
// not unverify a job.
TEST(JobServerTest, CheckPhaseRefusesCorruptOutput) {
  using Keys = std::vector<std::uint64_t>;
  // Index of the first key that differs from its predecessor.
  auto first_step = [](const Keys& v) {
    std::size_t i = 1;
    while (v[i] == v[i - 1]) ++i;
    return i;
  };
  const std::vector<std::pair<const char*, std::function<void(Keys&)>>>
      corruptions = {
          {"none", [](Keys&) {}},
          {"one key changed", [](Keys& v) { v[v.size() / 2] ^= 1; }},
          {"adjacent swap",
           [&](Keys& v) {
             const std::size_t i = first_step(v);
             std::swap(v[i - 1], v[i]);
           }},
          {"duplicate replaces a distinct key",
           [&](Keys& v) {
             const std::size_t i = first_step(v);
             v[i] = v[i - 1];
           }},
          {"one key missing", [](Keys& v) { v.pop_back(); }},
          {"one key extra", [](Keys& v) { v.push_back(v.back()); }},
      };
  std::size_t k = 0;
  for (const auto& [how, corrupt] : corruptions) {
    const SortBackend b = server::kSortBackends[k++ % 5];
    Machine m(server_config());
    JobServer srv(m);
    srv.add_tenant("t", m.near_arena().capacity());
    auto res = std::make_shared<server::SortJobResult>();
    JobSpec spec = server::make_sort_job("t", "sort", b, 3000, 77, res);
    ASSERT_EQ(spec.phases.size(), 3u);
    ASSERT_EQ(spec.phases[1].name, "sort");
    spec.phases.insert(
        spec.phases.begin() + 2,
        {"corrupt", [res, corrupt = corrupt](server::JobContext&) {
           corrupt(res->output);
         }});
    server::JobHandle h = srv.submit(std::move(spec));
    srv.drain();
    ASSERT_TRUE(h.done()) << how;
    EXPECT_EQ(res->verified, std::string(how) == "none")
        << how << " on " << server::to_string(b);
  }
}

TEST(JobServerTest, KMeansJobBitIdenticalToSoloRun) {
  const std::size_t n = 4000, dims = 4, k = 8;
  const std::uint64_t seed = 99;
  // Solo: a dedicated machine, no server, no quota.
  kmeans::KMeansResult solo;
  {
    Machine m(server_config());
    const auto pts = kmeans::make_blobs(n, dims, k, seed);
    kmeans::KMeansOptions opt;
    opt.k = k;
    opt.dims = dims;
    opt.seed = seed;
    solo = kmeans::kmeans_staged(m, std::span<const double>(pts), opt);
  }
  Machine m(server_config());
  JobServer srv(m);
  srv.add_tenant("km", m.near_arena().capacity() / 2);
  auto res = std::make_shared<server::KMeansJobResult>();
  auto h = srv.submit(server::make_kmeans_job("km", "blobs", n, dims, k,
                                              seed, res));
  h.wait();
  EXPECT_TRUE(h.done());
  EXPECT_EQ(res->result.centroids, solo.centroids);
  EXPECT_EQ(res->result.iterations, solo.iterations);
  EXPECT_EQ(res->result.inertia, solo.inertia);
}

TEST(JobServerTest, ZeroRetryBudgetRejectsAtCapacity) {
  Machine m(server_config(2));
  JobServer::Options opt;
  opt.max_outstanding = 1;
  opt.max_queue_per_tenant = 1;
  opt.admission_retry_budget = 0;  // no helping: reject on first miss
  JobServer srv(m, opt);
  srv.add_tenant("t", 64 * 1024);
  auto r1 = std::make_shared<server::SortJobResult>();
  auto r2 = std::make_shared<server::SortJobResult>();
  auto h1 = srv.submit(
      server::make_sort_job("t", "first", SortBackend::kGnu, 4096, 1, r1));
  auto h2 = srv.submit(
      server::make_sort_job("t", "second", SortBackend::kGnu, 4096, 2, r2));
  EXPECT_TRUE(h2.rejected());
  srv.drain();
  EXPECT_TRUE(h1.done());
  EXPECT_TRUE(r1->verified);
  const auto st = srv.tenant_stats("t");
  EXPECT_EQ(st.admissions, 1u);
  EXPECT_EQ(st.rejections, 1u);
  EXPECT_EQ(st.backoff_stalls, 1u);
}

TEST(JobServerTest, BackoffHelpsDrainInsteadOfRejecting) {
  Machine m(server_config(2));
  JobServer::Options opt;
  opt.max_outstanding = 1;
  opt.max_queue_per_tenant = 1;
  opt.admission_retry_budget = 8;
  JobServer srv(m, opt);
  srv.add_tenant("t", 64 * 1024);
  std::vector<std::shared_ptr<server::SortJobResult>> results;
  std::vector<server::JobHandle> handles;
  for (int j = 0; j < 4; ++j) {
    auto res = std::make_shared<server::SortJobResult>();
    results.push_back(res);
    handles.push_back(srv.submit(server::make_sort_job(
        "t", "job" + std::to_string(j), SortBackend::kNMsort, 8000,
        10 + static_cast<std::uint64_t>(j), res)));
  }
  srv.drain();
  for (auto& h : handles) EXPECT_TRUE(h.done());
  for (auto& r : results) EXPECT_TRUE(r->verified);
  const auto st = srv.tenant_stats("t");
  EXPECT_EQ(st.rejections, 0u);
  EXPECT_GT(st.backoff_stalls, 0u) << "overload should have been observed";
}

TEST(JobServerTest, FailedPhaseSettlesJobAndServerContinues) {
  Machine m(server_config(2));
  JobServer srv(m);
  srv.add_tenant("t", 64 * 1024);
  JobSpec bad;
  bad.tenant = "t";
  bad.name = "boom";
  bad.phases.push_back({"explode", [](server::JobContext&) {
                          throw std::runtime_error("boom");
                        }});
  auto hb = srv.submit(std::move(bad));
  auto res = std::make_shared<server::SortJobResult>();
  auto hg = srv.submit(
      server::make_sort_job("t", "after", SortBackend::kGnu, 4096, 3, res));
  srv.drain();
  EXPECT_EQ(hb.status(), JobStatus::kFailed);
  EXPECT_NE(hb.error().find("boom"), std::string::npos);
  EXPECT_TRUE(hg.done());
  EXPECT_TRUE(res->verified);
  EXPECT_EQ(srv.tenant_stats("t").jobs_failed, 1u);
}

TEST(JobServerTest, SubmitToUnregisteredTenantThrows) {
  Machine m(server_config(2));
  JobServer srv(m);
  srv.add_tenant("known", 1024);
  JobSpec spec;
  spec.tenant = "unknown";
  spec.name = "x";
  EXPECT_THROW(srv.submit(std::move(spec)), std::invalid_argument);
  EXPECT_THROW(srv.add_tenant("known", 2048), std::invalid_argument);
}

TEST(JobServerTest, AttributionConservesMachineTotals) {
  Machine m(server_config());
  JobServer srv(m);
  srv.add_tenant("a", m.near_arena().capacity() / 2);
  srv.add_tenant("b", m.near_arena().capacity() / 2);
  std::vector<std::shared_ptr<server::SortJobResult>> results;
  for (int j = 0; j < 3; ++j) {
    for (const char* t : {"a", "b"}) {
      auto res = std::make_shared<server::SortJobResult>();
      results.push_back(res);
      srv.submit(server::make_sort_job(
          t, "job" + std::to_string(j), SortBackend::kScratchpadPar, 10000,
          100 + static_cast<std::uint64_t>(j), res));
    }
  }
  srv.drain();
  // Every byte the machine counted ran inside some tenant's phase, so the
  // per-tenant attribution must sum back to the machine totals exactly.
  const auto sa = srv.tenant_stats("a");
  const auto sb = srv.tenant_stats("b");
  const PhaseStats grand = m.totals();
  EXPECT_EQ(sa.attributed.far_read_bytes() + sb.attributed.far_read_bytes(),
            grand.far_read_bytes());
  EXPECT_EQ(sa.attributed.far_write_bytes() + sb.attributed.far_write_bytes(),
            grand.far_write_bytes());
  EXPECT_EQ(sa.attributed.near_read_bytes() + sb.attributed.near_read_bytes(),
            grand.near_read_bytes());
  EXPECT_EQ(sa.attributed.near_write_bytes() + sb.attributed.near_write_bytes(),
            grand.near_write_bytes());
  EXPECT_EQ(sa.attributed.far_bursts() + sb.attributed.far_bursts(),
            grand.far_bursts());
  EXPECT_EQ(sa.phases_run + sb.phases_run, 18u);
  // Both tenants did comparable work under round-robin scheduling.
  EXPECT_GT(sa.attributed.far_bytes(), 0u);
  EXPECT_GT(sb.attributed.far_bytes(), 0u);
}

TEST(JobServerTest, ThrashingTenantDegradesItselfNotNeighbors) {
  Machine m(server_config());
  JobServer srv(m);
  srv.add_tenant("good", m.near_arena().capacity());
  srv.add_tenant("thrash", 2048);  // near-zero budget: everything degrades
  std::vector<std::shared_ptr<server::SortJobResult>> results;
  std::vector<server::JobHandle> handles;
  for (int j = 0; j < 2; ++j) {
    for (const char* t : {"good", "thrash"}) {
      auto res = std::make_shared<server::SortJobResult>();
      results.push_back(res);
      handles.push_back(srv.submit(server::make_sort_job(
          t, "job" + std::to_string(j), SortBackend::kNMsort, 16000,
          7 + static_cast<std::uint64_t>(j), res)));
    }
  }
  srv.drain();
  for (std::size_t j = 0; j < handles.size(); ++j) {
    EXPECT_TRUE(handles[j].done());
    EXPECT_TRUE(results[j]->verified) << "job " << j;
  }
  const auto good = srv.tenant_stats("good");
  const auto thrash = srv.tenant_stats("thrash");
  EXPECT_GT(thrash.quota_denials, 0u);
  EXPECT_GT(thrash.degrade_level, 0) << "tiny quota must step the ladder";
  EXPECT_EQ(good.quota_denials, 0u)
      << "full-capacity tenant must never be denied by a neighbor";
  EXPECT_EQ(good.degrade_level, 0);
}

TEST(JobServerTest, ExportsTenantMetrics) {
  Machine m(server_config(2));
  JobServer srv(m);
  srv.add_tenant("exp", 32 * 1024);
  auto res = std::make_shared<server::SortJobResult>();
  srv.submit(
      server::make_sort_job("exp", "one", SortBackend::kGnu, 4096, 5, res));
  srv.drain();
  obs::MetricsRegistry reg;
  srv.export_metrics(reg);
  const auto counters = reg.counters();
  EXPECT_EQ(counters.at("tenant.exp.quota_bytes"), 32u * 1024);
  EXPECT_EQ(counters.at("tenant.exp.admissions"), 1u);
  EXPECT_EQ(counters.at("tenant.exp.rejections"), 0u);
  EXPECT_EQ(counters.at("tenant.exp.jobs_completed"), 1u);
  EXPECT_EQ(counters.at("tenant.exp.phases"), 3u);
  EXPECT_GT(counters.at("tenant.exp.attributed_far_bytes"), 0u);
  const auto gauges = reg.gauges();
  EXPECT_EQ(gauges.at("tenant.exp.degrade_level"), 0.0);
}

// Cross-thread combining: several client threads submit and wait against
// one server; the combiner role hands off through the server mutex. (The
// submitters are a ThreadPool — raw std::thread is lint-banned.)
TEST(JobServerThreaded, ConcurrentSubmittersAllComplete) {
  Machine m(server_config(2));
  JobServer::Options opt;
  opt.max_outstanding = 4;  // small enough that backoff paths run
  opt.max_queue_per_tenant = 2;
  opt.admission_retry_budget = 64;
  JobServer srv(m, opt);
  constexpr std::size_t kClients = 4;
  for (std::size_t t = 0; t < kClients; ++t)
    srv.add_tenant("c" + std::to_string(t),
                   m.near_arena().capacity() / kClients);
  std::array<std::vector<std::shared_ptr<server::SortJobResult>>, kClients>
      results;
  std::array<bool, kClients> all_done{};
  ThreadPool clients(kClients);
  clients.run_spmd([&](std::size_t w) {
    bool ok = true;
    for (int j = 0; j < 3; ++j) {
      auto res = std::make_shared<server::SortJobResult>();
      results[w].push_back(res);
      auto h = srv.submit(server::make_sort_job(
          "c" + std::to_string(w), "job" + std::to_string(j),
          server::kSortBackends[(w + static_cast<std::size_t>(j)) % 5], 6000,
          1000 + w * 10 + static_cast<std::uint64_t>(j), res));
      h.wait();
      ok = ok && h.done();
    }
    all_done[w] = ok;
  });
  srv.drain();
  for (std::size_t w = 0; w < kClients; ++w) {
    EXPECT_TRUE(all_done[w]) << "client " << w;
    for (const auto& r : results[w]) EXPECT_TRUE(r->verified);
  }
}

// ---------------------------------------------------------------------------
// Model-sanitizer tenant rules (compiled only under TLM_CHECK_MODEL)

#if TLM_MODEL_CHECKS_ENABLED

TEST(TenantModelCheckDeath, LeakPastBudgetAbortsAtJobEnd) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        Machine m(server_config(2));
        JobServer srv(m);
        srv.add_tenant("leaky", 64 * 1024);
        JobSpec spec;
        spec.tenant = "leaky";
        spec.name = "leak";
        spec.phases.push_back({"grab", [](server::JobContext& ctx) {
          const auto p = ctx.machine.try_alloc_near(4096);
          ASSERT_TRUE(p);
          // Survives the machine's phase-leak check…
          ctx.machine.retain_across_phases(p->data());
          // …but is never freed: a tenant leak.
        }});
        srv.submit(std::move(spec));
        srv.drain();
      },
      "model\\.tenant_leak");
}

#endif  // TLM_MODEL_CHECKS_ENABLED

}  // namespace
}  // namespace tlm
