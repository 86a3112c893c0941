// Tests for the two-level memory runtime: the near arena allocator, the
// Machine's space resolution, traffic accounting, time model, phases, and
// trace virtual addressing.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <new>
#include <stdexcept>
#include <string>
#include <vector>

#include "dma_test_access.hpp"
#include "scratchpad/arena.hpp"
#include "scratchpad/machine.hpp"
#include "trace/capture.hpp"

namespace tlm {
namespace {

TEST(NearArena, AllocateFreeReuse) {
  NearArena a(4096);
  std::byte* p1 = a.allocate(1000);
  std::byte* p2 = a.allocate(1000);
  EXPECT_NE(p1, p2);
  EXPECT_EQ(a.used(), 2000u);
  a.deallocate(p1);
  EXPECT_EQ(a.used(), 1000u);
  std::byte* p3 = a.allocate(900);
  EXPECT_EQ(p3, p1);  // first-fit reuses the freed block
  a.deallocate(p2);
  a.deallocate(p3);
  EXPECT_EQ(a.used(), 0u);
  EXPECT_EQ(a.high_water(), 2000u);
}

TEST(NearArena, CapacityIsHard) {
  NearArena a(4096);
  (void)a.allocate(4096);
  EXPECT_THROW(a.allocate(1), std::bad_alloc);
}

TEST(NearArena, CoalescingAllowsFullReallocation) {
  NearArena a(4096);
  std::byte* p1 = a.allocate(1024);
  std::byte* p2 = a.allocate(1024);
  std::byte* p3 = a.allocate(2048);
  a.deallocate(p2);
  a.deallocate(p1);  // backward coalesce
  a.deallocate(p3);  // forward coalesce
  EXPECT_NO_THROW(a.allocate(4096));  // single free block again
}

TEST(NearArena, AlignmentRespected) {
  NearArena a(8192);
  (void)a.allocate(3);  // misalign the cursor
  std::byte* p = a.allocate(64, 512);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(p) % 512, 0u);
}

TEST(NearArena, DoubleFreeDetected) {
  NearArena a(4096);
  std::byte* p = a.allocate(64);
  a.deallocate(p);
  EXPECT_THROW(a.deallocate(p), std::invalid_argument);
}

TEST(NearArena, ForeignPointerRejected) {
  NearArena a(4096);
  int x = 0;
  EXPECT_THROW(a.deallocate(reinterpret_cast<std::byte*>(&x)),
               std::invalid_argument);
}

// --- Machine ---------------------------------------------------------------

TwoLevelConfig cfg1() {
  TwoLevelConfig c = test_config(4.0);
  c.near_capacity = 1 * MiB;
  c.threads = 2;
  return c;
}

TEST(Machine, SpaceResolution) {
  Machine m(cfg1());
  auto near = m.alloc_array<std::uint64_t>(Space::Near, 128);
  auto far = m.alloc_array<std::uint64_t>(Space::Far, 128);
  EXPECT_EQ(m.space_of(near.data()), Space::Near);
  EXPECT_EQ(m.space_of(far.data()), Space::Far);
  m.free_array(Space::Near, near);
  m.free_array(Space::Far, far);
}

TEST(Machine, CopyMovesBytesAndCharges) {
  Machine m(cfg1());
  auto near = m.alloc_array<std::uint64_t>(Space::Near, 1024);
  auto far = m.alloc_array<std::uint64_t>(Space::Far, 1024);
  for (std::size_t i = 0; i < far.size(); ++i) far[i] = i * 3;

  m.begin_phase("load");
  m.copy(0, near.data(), far.data(), far.size_bytes());
  m.end_phase();

  EXPECT_TRUE(std::equal(near.begin(), near.end(), far.begin()));
  const MachineStats st = m.stats();
  ASSERT_EQ(st.phases.size(), 1u);
  const PhaseStats& ph = st.phases[0];
  EXPECT_EQ(ph.far_read_bytes(), 8192u);
  EXPECT_EQ(ph.near_write_bytes(), 8192u);
  EXPECT_EQ(ph.far_blocks(), 8192u / 64);
  // Near blocks are ρB = 256 bytes.
  EXPECT_EQ(ph.near_blocks(), 8192u / 256);
  EXPECT_EQ(ph.far_bursts(), 1u);
  EXPECT_EQ(ph.near_bursts(), 1u);
}

TEST(Machine, ParallelCopyIssuesOneBurstPerCoreShare) {
  TwoLevelConfig cfg = cfg1();
  cfg.threads = 4;
  trace::TraceBuffer tb(cfg.threads);
  Machine m(cfg, &tb);
  auto near = m.alloc_array<std::uint64_t>(Space::Near, 1001);
  auto far = m.alloc_array<std::uint64_t>(Space::Far, 1001);
  for (std::size_t i = 0; i < far.size(); ++i) far[i] = i * 7;

  m.parallel_copy(near.data(), far.data(), 0);  // opens no SPMD section
  EXPECT_EQ(tb.summary().barriers, 0u);
  m.parallel_copy(near.data(), far.data(), far.size());
  m.end_phase();

  EXPECT_TRUE(std::equal(near.begin(), near.end(), far.begin()));
  const PhaseStats t = m.totals();
  EXPECT_EQ(t.far_read_bytes(), far.size_bytes());
  EXPECT_EQ(t.near_write_bytes(), far.size_bytes());
  EXPECT_EQ(t.far_read_bursts(), cfg.threads);
  // One fork and one join marker per core.
  EXPECT_EQ(tb.summary().barriers, 2 * cfg.threads);
}

TEST(Machine, TimeModelSerializedVsOverlap) {
  TwoLevelConfig c = cfg1();
  c.overlap_dma = false;
  Machine serial(c);
  c.overlap_dma = true;
  Machine overlap(c);

  for (Machine* m : {&serial, &overlap}) {
    auto far = m->alloc_array<std::uint64_t>(Space::Far, 1 << 16);
    auto near = m->alloc_array<std::uint64_t>(Space::Near, 1 << 16);
    m->begin_phase("p");
    DmaTestAccess::dma_copy(*m, 0, near.data(), far.data(), far.size_bytes());
    m->compute(0, 1e6);
    m->end_phase();
  }
  const double ts = serial.elapsed_seconds();
  const double to = overlap.elapsed_seconds();
  EXPECT_GT(ts, to);  // overlap can only help
  const PhaseStats ph = serial.stats().phases[0];
  EXPECT_NEAR(ph.seconds(), ph.far_s() + ph.near_s() + ph.compute_s(), 1e-15);
  // Only DMA-posted traffic overlaps. All the traffic here went through
  // dma_copy, so the cores retain just the compute and the engine's busy
  // time is the slower of its two sides (it pipelines far reads into near
  // writes).
  const PhaseStats po = overlap.stats().phases[0];
  EXPECT_EQ(po.dma_bytes(), po.far_bytes() + po.near_bytes());
  EXPECT_GT(po.dma_s(), 0.0);
  EXPECT_NEAR(po.dma_s(), std::max(po.far_s(), po.near_s()), 1e-15);
  EXPECT_NEAR(po.seconds(), std::max(po.compute_s(), po.dma_s()), 1e-15);
}

TEST(Machine, CoreDrivenCopyDoesNotOverlap) {
  // copy() is core-driven even when the machine has an overlap-capable DMA
  // engine: without a dma_copy the phase time is the plain serial sum.
  TwoLevelConfig c = cfg1();
  c.overlap_dma = true;
  Machine m(c);
  auto far = m.alloc_array<std::uint64_t>(Space::Far, 1 << 12);
  auto near = m.alloc_array<std::uint64_t>(Space::Near, 1 << 12);
  m.begin_phase("p");
  m.copy(0, near.data(), far.data(), far.size_bytes());
  m.compute(0, 1e5);
  m.end_phase();
  const PhaseStats ph = m.stats().phases[0];
  EXPECT_EQ(ph.dma_bytes(), 0u);
  EXPECT_DOUBLE_EQ(ph.dma_s(), 0.0);
  EXPECT_NEAR(ph.seconds(), ph.far_s() + ph.near_s() + ph.compute_s(), 1e-15);
}

TEST(Machine, ComputeUsesPerThreadMax) {
  Machine m(cfg1());  // 2 threads
  m.begin_phase("p");
  m.compute(0, 1000.0);
  m.compute(1, 4000.0);
  m.end_phase();
  const PhaseStats ph = m.stats().phases[0];
  EXPECT_DOUBLE_EQ(ph.compute_ops_total(), 5000.0);
  EXPECT_DOUBLE_EQ(ph.compute_ops_max(), 4000.0);
  EXPECT_NEAR(ph.compute_s(), 4000.0 / m.config().core_rate, 1e-18);
}

TEST(Machine, PhasesAutoCloseOnBegin) {
  Machine m(cfg1());
  m.begin_phase("a");
  m.compute(0, 10.0);
  m.begin_phase("b");  // closes "a"
  m.compute(0, 20.0);
  m.end_phase();
  const MachineStats st = m.stats();
  ASSERT_EQ(st.phases.size(), 2u);
  EXPECT_EQ(st.phases[0].name, "a");
  EXPECT_EQ(st.phases[1].name, "b");
  EXPECT_DOUBLE_EQ(st.total.compute_ops_total(), 30.0);
}

TEST(Machine, OpenPhaseVisibleInStats) {
  Machine m(cfg1());
  m.begin_phase("open");
  m.compute(0, 7.0);
  const MachineStats st = m.stats();  // no end_phase
  ASSERT_EQ(st.phases.size(), 1u);
  EXPECT_DOUBLE_EQ(st.total.compute_ops_total(), 7.0);
}

TEST(Machine, VaddrMapsSpacesToDisjointRegions) {
  Machine m(cfg1());
  auto near = m.alloc_array<std::uint64_t>(Space::Near, 16);
  auto far = m.alloc_array<std::uint64_t>(Space::Far, 16);
  EXPECT_TRUE(trace::is_near_addr(m.vaddr_of(near.data())));
  EXPECT_FALSE(trace::is_near_addr(m.vaddr_of(far.data())));
  // Interior pointers offset linearly.
  EXPECT_EQ(m.vaddr_of(far.data() + 3), m.vaddr_of(far.data()) + 24);
  EXPECT_EQ(m.vaddr_of(near.data() + 5), m.vaddr_of(near.data()) + 40);
}

TEST(Machine, AdoptedRegionGetsStableVaddr) {
  Machine m(cfg1());
  std::vector<std::uint64_t> ext(64);
  m.adopt_far(ext.data(), ext.size() * 8);
  const std::uint64_t v = m.vaddr_of(ext.data());
  m.adopt_far(ext.data(), ext.size() * 8);  // idempotent
  EXPECT_EQ(m.vaddr_of(ext.data()), v);
}

TEST(Machine, AdoptionRetiresStaleRegionsInsideIt) {
  // One Machine outlives many jobs' buffers, so the heap can hand a freed,
  // once-adopted range back inside a new buffer. The new adoption must own
  // every address it covers; the stale entry would end mid-buffer.
  Machine m(cfg1());
  std::vector<std::uint64_t> ext(64);
  m.adopt_far(ext.data() + 8, 16 * 8);  // the earlier job's buffer
  m.adopt_far(ext.data(), ext.size() * 8);
  EXPECT_EQ(m.vaddr_of(ext.data() + 40), m.vaddr_of(ext.data()) + 40 * 8);
  EXPECT_EQ(m.vaddr_of(ext.data() + 8), m.vaddr_of(ext.data()) + 8 * 8);
}

TEST(Machine, UnknownFarPointerThrowsOnVaddr) {
  Machine m(cfg1());
  int x = 0;
  EXPECT_THROW(m.vaddr_of(&x), std::invalid_argument);
}

TEST(Machine, NearCapacityEnforced) {
  Machine m(cfg1());  // 1 MiB near
#if TLM_MODEL_CHECKS_ENABLED
  // Under the model sanitizer the capacity rule aborts before the arena can
  // throw; the death message carries the rule name.
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH((void)m.alloc_array<std::uint64_t>(Space::Near, 1 << 20),
               "model\\.capacity");
#else
  EXPECT_THROW(m.alloc_array<std::uint64_t>(Space::Near, 1 << 20),
               std::bad_alloc);
#endif
}

TEST(Machine, MoreCoresThanHostThreadsRunsEachCoreOnce) {
  // 64 simulated cores, more than any test host has CPUs, so host threads
  // run blocks of core ids. Counters, phase folds and trace markers must
  // still be exactly per core.
  TwoLevelConfig c = cfg1();
  c.threads = 64;
  trace::TraceBuffer tb(c.threads);
  Machine m(c, &tb);
  auto far = m.alloc_array<std::uint64_t>(Space::Far, c.threads * 8);
  m.begin_phase("cores");
  constexpr int kRounds = 3;
  std::vector<int> runs(c.threads, 0);  // each slot written by its core only
  for (int r = 0; r < kRounds; ++r) {
    m.run_spmd([&](std::size_t w) {
      ++runs[w];
      m.stream_read(w, far.data() + w * 8, 64);
      m.compute(w, static_cast<double>(w + 1));
    });
    for (std::size_t w = 0; w < c.threads; ++w)
      ASSERT_EQ(runs[w], r + 1) << "core " << w << " in round " << r;
  }
  const auto ops = m.thread_ops();
  for (std::size_t w = 0; w < c.threads; ++w)
    EXPECT_DOUBLE_EQ(ops[w], kRounds * static_cast<double>(w + 1));
  m.end_phase();
  const PhaseStats ph = m.stats().phases.at(0);
  EXPECT_EQ(ph.far_read_bytes(), c.threads * kRounds * 64);
  EXPECT_EQ(ph.far_bursts(), c.threads * kRounds);
  EXPECT_DOUBLE_EQ(ph.compute_ops_total(), kRounds * 64.0 * 65.0 / 2);
  EXPECT_DOUBLE_EQ(ph.compute_ops_max(), kRounds * 64.0);
  // Per round and core: fork marker, its read, its compute, join marker.
  for (std::size_t w = 0; w < c.threads; ++w) {
    const auto& st = tb.stream(w);
    ASSERT_EQ(st.size(), 4u * kRounds) << "core " << w;
    for (int r = 0; r < kRounds; ++r) {
      const trace::TraceOp* op = &st[4 * r];
      EXPECT_EQ(op[0].kind, trace::OpKind::Barrier);
      EXPECT_EQ(op[0].addr, 2u * r);
      EXPECT_EQ(op[1].kind, trace::OpKind::Read);
      EXPECT_EQ(op[2].kind, trace::OpKind::Compute);
      EXPECT_EQ(op[3].kind, trace::OpKind::Barrier);
      EXPECT_EQ(op[3].addr, 2u * r + 1);
    }
  }
  m.free_array(Space::Far, far);
}

TEST(Machine, ThrowingCoreSkipsNoOtherCore) {
  // A throw in one core's share must not skip the cores after it on the
  // same host thread; the lowest thrower's exception reaches the caller and
  // the machine dispatches again afterwards.
  TwoLevelConfig c = cfg1();
  c.threads = 64;
  Machine m(c);
  std::vector<int> runs(c.threads, 0);
  try {
    m.run_spmd([&](std::size_t w) {
      ++runs[w];
      if (w == 5 || w == 40) throw std::runtime_error(std::to_string(w));
    });
    FAIL() << "run_spmd swallowed the exception";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "5");
  }
  for (std::size_t w = 0; w < c.threads; ++w) EXPECT_EQ(runs[w], 1);
  m.run_spmd([&](std::size_t w) { ++runs[w]; });
  for (std::size_t w = 0; w < c.threads; ++w) EXPECT_EQ(runs[w], 2);
}

TEST(Machine, ConcurrentChargesConserveTotals) {
  // All workers hammer the accounting concurrently; the folded phase must
  // see exactly the sum of what was charged (per-thread accumulators, no
  // lost updates).
  TwoLevelConfig c = cfg1();
  c.threads = 8;
  Machine m(c);
  auto far = m.alloc_array<std::uint64_t>(Space::Far, 8 * 1024);
  m.begin_phase("stress");
  constexpr int kIters = 2000;
  m.run_spmd([&](std::size_t w) {
    auto slice = far.subspan(w * 1024, 1024);
    for (int i = 0; i < kIters; ++i) {
      m.stream_read(w, slice.data(), 64);
      m.stream_write(w, slice.data(), 32);
      m.compute(w, 1.5);
    }
  });
  m.end_phase();
  const PhaseStats ph = m.stats().phases.at(0);
  EXPECT_EQ(ph.far_read_bytes(), 8ull * kIters * 64);
  EXPECT_EQ(ph.far_write_bytes(), 8ull * kIters * 32);
  EXPECT_EQ(ph.far_bursts(), 8ull * kIters * 2);
  EXPECT_DOUBLE_EQ(ph.compute_ops_total(), 8.0 * kIters * 1.5);
  EXPECT_DOUBLE_EQ(ph.compute_ops_max(), kIters * 1.5);
}

TEST(Machine, ThreadOpsExposesPerWorkerLoad) {
  TwoLevelConfig c = cfg1();
  c.threads = 3;
  Machine m(c);
  m.run_spmd([&](std::size_t w) { m.compute(w, 10.0 * (w + 1)); });
  const auto ops = m.thread_ops();
  ASSERT_EQ(ops.size(), 3u);
  EXPECT_DOUBLE_EQ(ops[0], 10.0);
  EXPECT_DOUBLE_EQ(ops[1], 20.0);
  EXPECT_DOUBLE_EQ(ops[2], 30.0);
}

// --- fault layer -----------------------------------------------------------

TEST(Faults, ScratchpadErrorCarriesSiteAndSizes) {
  NearArena a(4096);
  (void)a.allocate(4000);
  try {
    (void)a.allocate(4096);
    FAIL() << "allocation should have thrown";
  } catch (const ScratchpadError& e) {
    EXPECT_EQ(e.site(), "near_arena.allocate");
    EXPECT_EQ(e.requested_bytes(), 4096u);
    EXPECT_LT(e.available_bytes(), 4096u);
    EXPECT_NE(std::string(e.what()).find("near_arena.allocate"),
              std::string::npos);
  }
}

TEST(Faults, TryAllocNearExhaustionReturnsNullAndCounts) {
  Machine m(cfg1());  // 1 MiB near
  const auto ok = m.try_alloc_near(512 * KiB);
  ASSERT_TRUE(ok);
  const auto denied = m.try_alloc_near(768 * KiB);
  EXPECT_FALSE(denied);
  EXPECT_EQ(m.fault_stats().near_alloc_exhausted, 1u);
  EXPECT_EQ(m.fault_stats().near_alloc_injected, 0u);
  m.dealloc(ok->data());  // space-inferred free
  EXPECT_EQ(m.near_arena().used(), 0u);
}

TEST(Faults, ArrayByteSizeThatWouldWrapIsRefused) {
  Machine m(cfg1());
  // 2^61 + 1 eight-byte elements: the byte size wraps to 8.
  constexpr std::size_t n = (std::size_t{1} << 61) + 1;
  EXPECT_THROW((void)m.try_alloc_near<std::uint64_t>(n), std::invalid_argument);
  EXPECT_THROW((void)m.alloc_array<std::uint64_t>(Space::Near, n),
               std::invalid_argument);
  EXPECT_THROW((void)m.alloc_array<std::uint64_t>(Space::Far, n),
               std::invalid_argument);
  EXPECT_EQ(m.near_arena().used(), 0u);
  EXPECT_EQ(m.fault_stats().near_alloc_exhausted, 0u);
}

TEST(Faults, InjectedNearDenialConsumesNoSpace) {
  Machine m(cfg1());
  FaultInjector fi(99);
  fi.arm(fault_site::kNearAlloc, FaultSchedule::every());
  m.set_fault_injector(&fi);
  const auto p = m.try_alloc_near(1024);
  EXPECT_FALSE(p);
  EXPECT_EQ(m.near_arena().used(), 0u);  // a denial never consumes arena
  EXPECT_EQ(m.fault_stats().near_alloc_injected, 1u);
  EXPECT_EQ(m.fault_stats().near_alloc_exhausted, 0u);
  // Detaching the injector restores the clean fallible path.
  m.set_fault_injector(nullptr);
  const auto q = m.try_alloc_near(1024);
  ASSERT_TRUE(q);
  m.dealloc(q->data());
}

TEST(Faults, AllocNearOrFarFallsBackAndCounts) {
  Machine m(cfg1());
  FaultInjector fi(5);
  fi.arm(fault_site::kNearAlloc, FaultSchedule::every());
  m.set_fault_injector(&fi);
  auto a = m.alloc_array_near_or_far<std::uint64_t>(128);
  ASSERT_FALSE(a.empty());
  EXPECT_EQ(m.space_of(a.data()), Space::Far);
  EXPECT_EQ(m.fault_stats().near_far_fallbacks, 1u);
  a[0] = 7;  // the fallback is a real, usable allocation
  EXPECT_EQ(a[0], 7u);
  m.free_array(a);  // space-inferred
}

TEST(Faults, DmaRetryChargesBoundedBackoff) {
  Machine m(cfg1());
  FaultInjector fi(17);
  // The first dma_copy's first two retry checks fail, the third succeeds.
  fi.arm(fault_site::kDmaFail, FaultSchedule::burst(1, 2));
  m.set_fault_injector(&fi);
  auto far = m.alloc_array<std::uint64_t>(Space::Far, 64);
  auto near = m.alloc_array<std::uint64_t>(Space::Near, 64);
  for (std::size_t i = 0; i < far.size(); ++i) far[i] = i ^ 0xabcdu;

  m.begin_phase("p");
  DmaTestAccess::dma_copy(m, 0, near.data(), far.data(), far.size_bytes());
  m.end_phase();

  EXPECT_TRUE(std::equal(near.begin(), near.end(), far.begin()));
  const FaultStats fs = m.fault_stats();
  EXPECT_EQ(fs.dma_injected, 2u);
  EXPECT_EQ(fs.dma_retries, 2u);
  // Exponential backoff: base + 2*base, both under the cap.
  const double base = kDmaRetryBaseS;
  EXPECT_NEAR(fs.backoff_s, base + 2 * base, 1e-15);
  // The pauses are charged to the phase as stall time.
  EXPECT_NEAR(m.stats().phases.at(0).stall_s(), fs.backoff_s, 1e-15);
}

void expect_same_faults(const FaultStats& after, const FaultStats& before) {
#define TLM_X(kind, field, metric) \
  EXPECT_EQ(after.field, before.field) << #field;
  TLM_FAULT_STATS(TLM_X)
#undef TLM_X
}

// An out-of-range thread id is rejected before any fault hook runs: with a
// stall armed on every descriptor, nothing reaches the fault totals.
TEST(Faults, DmaCopyChecksThreadBeforeFaultHooks) {
  Machine m(cfg1());
  FaultInjector fi(29);
  fi.arm(fault_site::kDmaStall, FaultSchedule::every(1e-3));
  m.set_fault_injector(&fi);
  auto far = m.alloc_array<std::uint64_t>(Space::Far, 64);
  auto near = m.alloc_array<std::uint64_t>(Space::Near, 64);
  const FaultStats before = m.fault_stats();
  EXPECT_THROW(DmaTestAccess::dma_copy(m, m.threads(), near.data(),
                                       far.data(), far.size_bytes()),
               std::logic_error);
  expect_same_faults(m.fault_stats(), before);
}

TEST(Faults, ChargeStallChecksThread) {
  Machine m(cfg1());
  const FaultStats before = m.fault_stats();
  EXPECT_THROW(m.charge_stall(m.threads(), 1e-3), std::logic_error);
  expect_same_faults(m.fault_stats(), before);
}

TEST(Faults, FarStallChargesStallTime) {
  Machine m(cfg1());
  FaultInjector fi(23);
  fi.arm(fault_site::kFarStall, FaultSchedule::every(2e-6));
  m.set_fault_injector(&fi);
  auto far = m.alloc_array<std::uint64_t>(Space::Far, 256);
  m.begin_phase("s");
  m.stream_read(0, far.data(), far.size_bytes());
  m.end_phase();
  const FaultStats fs = m.fault_stats();
  EXPECT_EQ(fs.far_stalls, 1u);
  EXPECT_NEAR(fs.stall_s, 2e-6, 1e-15);
  EXPECT_NEAR(m.stats().phases.at(0).stall_s(), 2e-6, 1e-15);
  // The stall extends the phase's modeled time. stats() returns by value,
  // so keep a copy: a reference into the temporary would dangle.
  const PhaseStats ph = m.stats().phases.at(0);
  EXPECT_GE(ph.seconds(), ph.far_s() + ph.stall_s() - 1e-18);
}

TEST(Faults, InjectorIsDeterministicPerSeedSiteOccurrence) {
  auto draw = [](std::uint64_t seed) {
    FaultInjector fi(seed);
    fi.arm("site.a", FaultSchedule::prob(0.5));
    std::vector<bool> v;
    for (int i = 0; i < 64; ++i) v.push_back(fi.should_fail("site.a"));
    return v;
  };
  const auto a = draw(123);
  const auto b = draw(123);
  const auto c = draw(124);
  EXPECT_EQ(a, b);  // same seed: identical decision sequence
  EXPECT_NE(a, c);  // different seed: different sequence
  FaultInjector fi(123);
  fi.arm("site.a", FaultSchedule::prob(0.5));
  for (int i = 0; i < 64; ++i) (void)fi.should_fail("site.a");
  const auto st = fi.site_stats("site.a");
  EXPECT_EQ(st.checks, 64u);
  EXPECT_GT(st.fired, 0u);
  EXPECT_LT(st.fired, 64u);
}

TEST(Faults, NthAndRearmSemantics) {
  FaultInjector fi(1);
  fi.arm("s", FaultSchedule::nth_occurrence(3));
  EXPECT_FALSE(fi.should_fail("s"));
  EXPECT_FALSE(fi.should_fail("s"));
  EXPECT_TRUE(fi.should_fail("s"));
  EXPECT_FALSE(fi.should_fail("s"));
  // Re-arming resets the occurrence counter.
  fi.arm("s", FaultSchedule::nth_occurrence(1));
  EXPECT_TRUE(fi.should_fail("s"));
  fi.disarm("s");
  EXPECT_FALSE(fi.should_fail("s"));
  // Unarmed sites never fire and are not counted.
  EXPECT_FALSE(fi.should_fail("never.armed"));
  EXPECT_EQ(fi.site_stats("never.armed").checks, 0u);
}

// --- asymmetric read/write split (omega) ------------------------------------

TEST(OmegaSplit, EveryOpKindConserves) {
  Machine m(cfg1());
  auto near = m.alloc_array<std::uint64_t>(Space::Near, 1024);
  auto far = m.alloc_array<std::uint64_t>(Space::Far, 1024);

  m.begin_phase("copy.f2n");
  m.copy(0, near.data(), far.data(), far.size_bytes());
  m.end_phase();
  m.begin_phase("copy.n2f");
  m.copy(0, far.data(), near.data(), near.size_bytes());
  m.end_phase();
  m.begin_phase("dma.f2n");
  DmaTestAccess::dma_copy(m, 0, near.data(), far.data(), far.size_bytes());
  m.end_phase();
  m.begin_phase("dma.n2f");
  DmaTestAccess::dma_copy(m, 0, far.data(), near.data(), near.size_bytes());
  m.end_phase();
  m.begin_phase("stream");
  m.stream_read(0, far.data(), 64);
  m.stream_write(0, far.data(), 64);
  m.stream_read(0, near.data(), 64);
  m.stream_write(0, near.data(), 64);
  m.end_phase();

  const MachineStats st = m.stats();
  ASSERT_EQ(st.phases.size(), 5u);
  // Directional attribution: a far->near copy is all far *reads* and near
  // *writes*; the reverse copy flips both.
  const PhaseStats& f2n = st.phases[0];
  EXPECT_EQ(f2n.far_read_bytes(), 8192u);
  EXPECT_EQ(f2n.far_write_blocks(), 0u);
  EXPECT_EQ(f2n.far_read_blocks(), f2n.far_blocks());
  EXPECT_EQ(f2n.near_write_blocks(), f2n.near_blocks());
  EXPECT_EQ(f2n.near_read_bursts(), 0u);
  const PhaseStats& n2f = st.phases[1];
  EXPECT_EQ(n2f.far_write_blocks(), n2f.far_blocks());
  EXPECT_EQ(n2f.far_read_bursts(), 0u);
  EXPECT_EQ(n2f.near_read_blocks(), n2f.near_blocks());
  // DMA traffic lands in the dma splits as well as the combined ones.
  const PhaseStats& dma = st.phases[2];
  EXPECT_EQ(dma.dma_far_read_bytes(), 8192u);
  EXPECT_EQ(dma.dma_far_write_bytes(), 0u);
  EXPECT_EQ(dma.dma_near_write_bytes(), 8192u);
  EXPECT_EQ(dma.dma_far_read_bursts(), dma.dma_far_bursts());
}

TEST(OmegaSplit, ConcurrentChargesConserve) {
  TwoLevelConfig c = cfg1();
  c.threads = 8;
  Machine m(c);
  auto far = m.alloc_array<std::uint64_t>(Space::Far, 8 * 1024);
  auto near = m.alloc_array<std::uint64_t>(Space::Near, 8 * 1024);
  m.begin_phase("stress");
  constexpr int kIters = 1000;
  m.run_spmd([&](std::size_t w) {
    auto fslice = far.subspan(w * 1024, 1024);
    auto nslice = near.subspan(w * 1024, 1024);
    for (int i = 0; i < kIters; ++i) {
      m.stream_read(w, fslice.data(), 64);
      m.stream_write(w, fslice.data(), 32);
      m.copy(w, nslice.data(), fslice.data(), 128);
      DmaTestAccess::dma_copy(m, w, fslice.data(), nslice.data(), 256);
    }
  });
  m.end_phase();
  const PhaseStats ph = m.stats().phases.at(0);
  EXPECT_EQ(ph.far_read_bytes(), 8ull * kIters * (64 + 128));
  EXPECT_EQ(ph.far_write_bytes(), 8ull * kIters * (32 + 256));
  EXPECT_EQ(ph.near_read_bytes(), 8ull * kIters * 256);
  EXPECT_EQ(ph.near_write_bytes(), 8ull * kIters * 128);
  EXPECT_EQ(ph.dma_far_write_bytes(), 8ull * kIters * 256);
  EXPECT_EQ(ph.dma_far_read_bytes(), 0u);
}

TEST(OmegaTime, FarWritesWeightedByOmega) {
  TwoLevelConfig c = cfg1();
  c.far_write_cost = 4.0;
  ASSERT_NO_THROW(c.validate());
  Machine m(c);
  auto far = m.alloc_array<std::uint64_t>(Space::Far, 4096);
  m.begin_phase("w");
  m.stream_read(0, far.data(), 4096);
  m.stream_write(0, far.data(), 8192);
  m.end_phase();
  const PhaseStats ph = m.stats().phases.at(0);
  const double p = static_cast<double>(c.threads);
  const double want =
      (static_cast<double>(ph.far_read_bytes()) +
       4.0 * static_cast<double>(ph.far_write_bytes())) /
          c.far_bw +
      (static_cast<double>(ph.far_read_bursts()) +
       4.0 * static_cast<double>(ph.far_write_bursts())) *
          c.far_latency / p;
  EXPECT_EQ(ph.far_s(), want);  // exact: same arithmetic, same order
  EXPECT_GT(ph.far_s(),
            static_cast<double>(ph.far_bytes()) / c.far_bw +
                static_cast<double>(ph.far_bursts()) * c.far_latency / p);
}

TEST(OmegaTime, OmegaOneIsBitExactLegacy) {
  // At ω = 1 the weighted formula must reproduce the symmetric arithmetic
  // (sum the uint64s, cast once) bit for bit, not approximately.
  Machine m(cfg1());
  auto far = m.alloc_array<std::uint64_t>(Space::Far, 4096);
  m.begin_phase("w");
  m.stream_read(0, far.data(), 4093);  // odd sizes: rounding-sensitive
  m.stream_write(0, far.data(), 8191);
  m.end_phase();
  const PhaseStats ph = m.stats().phases.at(0);
  const double p = static_cast<double>(m.config().threads);
  const double legacy =
      static_cast<double>(ph.far_bytes()) / m.config().far_bw +
      static_cast<double>(ph.far_bursts()) * m.config().far_latency / p;
  EXPECT_EQ(ph.far_s(), legacy);
}

TEST(OmegaTime, ConfigRejectsOmegaBelowOne) {
  TwoLevelConfig c = cfg1();
  c.far_write_cost = 0.99;
  EXPECT_THROW(c.validate(), std::invalid_argument);
}

TEST(OmegaTime, DmaFarSideWeighted) {
  // Under overlap, the engine's far side is omega-weighted exactly like the
  // core-driven far traffic: a write-heavy DMA gets slower with omega.
  TwoLevelConfig c = cfg1();
  c.overlap_dma = true;
  double prev = 0;
  for (double omega : {1.0, 4.0, 16.0}) {
    c.far_write_cost = omega;
    Machine m(c);
    auto far = m.alloc_array<std::uint64_t>(Space::Far, 1 << 14);
    auto near = m.alloc_array<std::uint64_t>(Space::Near, 1 << 14);
    m.begin_phase("d");
    // Far writes.
    DmaTestAccess::dma_copy(m, 0, far.data(), near.data(), near.size_bytes());
    m.end_phase();
    const PhaseStats ph = m.stats().phases.at(0);
    EXPECT_GT(ph.dma_s(), prev) << "omega=" << omega;
    prev = ph.dma_s();
  }
}

TEST(Machine, StreamChargesWithoutMoving) {
  Machine m(cfg1());
  auto far = m.alloc_array<std::uint64_t>(Space::Far, 256);
  far[0] = 42;
  m.begin_phase("s");
  m.stream_read(0, far.data(), far.size_bytes());
  m.stream_write(0, far.data(), far.size_bytes());
  m.end_phase();
  EXPECT_EQ(far[0], 42u);
  const PhaseStats ph = m.stats().phases[0];
  EXPECT_EQ(ph.far_read_bytes(), 2048u);
  EXPECT_EQ(ph.far_write_bytes(), 2048u);
}

}  // namespace
}  // namespace tlm
