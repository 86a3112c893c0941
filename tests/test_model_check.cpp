// Negative tests for the TLM_CHECK_MODEL sanitizer: each one violates a §II
// model invariant on purpose and asserts the right rule fires (by name, in
// the abort diagnostic). Built only when the sanitizer is compiled in; the
// ctest suite carries the same TLM_CHECK_MODEL gate.
//
// All machines here run single-threaded so the gtest death tests (which
// fork) stay well-defined.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <vector>

#include "kmeans/kmeans.hpp"
#include "scratchpad/machine.hpp"
#include "scratchpad/stager.hpp"
#include "sort/sort.hpp"

#if !TLM_MODEL_CHECKS_ENABLED
#error "test_model_check.cpp requires a TLM_CHECK_MODEL=ON build"
#endif

namespace tlm {
namespace {

TwoLevelConfig tiny(bool strict_dma = false) {
  TwoLevelConfig c;
  c.near_capacity = 1 * MiB;
  c.rho = 4.0;  // near line = 256 bytes
  c.threads = 1;
  c.strict_dma_lines = strict_dma;
  return c;
}

class ModelSanitizerDeath : public ::testing::Test {
 protected:
  void SetUp() override {
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  }
};

// ---- model.capacity --------------------------------------------------------

TEST_F(ModelSanitizerDeath, OverfillPastMFires) {
  Machine m(tiny());
  (void)m.alloc_array<std::uint64_t>(Space::Near, (1 * MiB / 8) / 2);
  // The second allocation pushes occupancy past M: the sanitizer must abort
  // before the arena gets a chance to throw.
  EXPECT_DEATH(
      (void)m.alloc_array<std::uint64_t>(Space::Near, (1 * MiB / 8) / 2 + 1),
      "model\\.capacity");
}

TEST_F(ModelSanitizerDeath, CapacityDiagnosticNamesPhase) {
  Machine m(tiny());
  m.begin_phase("overfill-phase");
  EXPECT_DEATH((void)m.alloc_array<std::uint64_t>(Space::Near, 1 * MiB),
               "phase=overfill-phase");
}

TEST_F(ModelSanitizerDeath, FullOccupancyIsStillLegal) {
  Machine m(tiny());
  auto a = m.alloc_array<std::uint64_t>(Space::Near, 1 * MiB / 8);  // == M
  m.free_array(Space::Near, a);
  SUCCEED();
}

// ---- model.line_granularity ------------------------------------------------

TEST_F(ModelSanitizerDeath, SubLineTransferFiresUnderStrictLines) {
  Machine m(tiny(/*strict_dma=*/true));
  auto near = m.alloc_array<std::uint64_t>(Space::Near, 1024);
  auto far = m.alloc_array<std::uint64_t>(Space::Far, 1024);
  // 8 bytes into a 256-byte near line: neither aligned nor whole-line.
  EXPECT_DEATH(m.copy(0, near.data() + 1, far.data(), 8),
               "model\\.line_granularity");
}

TEST_F(ModelSanitizerDeath, WholeLineTransfersPassUnderStrictLines) {
  Machine m(tiny(/*strict_dma=*/true));
  const std::uint64_t line = m.config().near_block_bytes();  // 256
  // 1040 u64 = 32.5 near lines: a deliberately ragged tail.
  auto near = m.alloc_array<std::uint64_t>(Space::Near, 1040);
  auto far = m.alloc_array<std::uint64_t>(Space::Far, 1040);
  m.copy(0, near.data(), far.data(), 4 * line);  // aligned whole lines
  // Line-aligned transfer covering the ragged last half-line of the
  // allocation: the model ceil-rounds it to a full line, so it is legal.
  const std::uint64_t tail_elems = 1040 - 1024;
  m.copy(0, near.data() + 1024, far.data() + 1024, tail_elems * 8);
  // Near<->near staging is not a DMA; arbitrary offsets are fine.
  m.copy(0, near.data() + 1, near.data() + 3, 8);
  SUCCEED();
}

TEST_F(ModelSanitizerDeath, SubLineTransferAllowedWithoutStrictLines) {
  Machine m(tiny(/*strict_dma=*/false));
  auto near = m.alloc_array<std::uint64_t>(Space::Near, 1024);
  auto far = m.alloc_array<std::uint64_t>(Space::Far, 1024);
  m.copy(0, near.data() + 1, far.data(), 8);  // charged ceil-rounded, legal
  SUCCEED();
}

// ---- model.phase_leak ------------------------------------------------------

TEST_F(ModelSanitizerDeath, LeakAcrossEndPhaseFires) {
  Machine m(tiny());
  m.begin_phase("leaky");
  (void)m.alloc_array<std::uint64_t>(Space::Near, 64);
  EXPECT_DEATH(m.end_phase(), "model\\.phase_leak");
}

TEST_F(ModelSanitizerDeath, LeakDiagnosticNamesPhase) {
  Machine m(tiny());
  m.begin_phase("leaky");
  (void)m.alloc_array<std::uint64_t>(Space::Near, 64);
  EXPECT_DEATH(m.end_phase(), "phase=leaky");
}

TEST_F(ModelSanitizerDeath, SecondStagingBufferLeakFires) {
  // Regression guard for the double-buffered Phase-2 pipeline: a bug that
  // frees the active staging buffer but forgets the prefetch buffer must
  // trip the sanitizer at the phase boundary, not silently shrink M for
  // every later phase.
  Machine m(tiny());
  m.begin_phase("pipelined-merge");
  auto bufs0 = m.alloc_array<std::uint64_t>(Space::Near, 256);
  auto bufs1 = m.alloc_array<std::uint64_t>(Space::Near, 256);
  m.free_array(Space::Near, bufs0);  // bufs1 leaks past the phase end
  EXPECT_DEATH(m.end_phase(), "model\\.phase_leak");
  m.free_array(Space::Near, bufs1);
}

TEST_F(ModelSanitizerDeath, StagerSecondBufferLeakFires) {
  // The Stager's front buffer is born before the phase (exempt), but its
  // back buffer is allocated lazily by the first prefetch — inside the
  // explicit phase. Forgetting release() before end_phase() must therefore
  // trip the sanitizer on precisely the prefetch buffer.
  TwoLevelConfig c = tiny();
  c.overlap_dma = true;
  Machine m(c);
  std::vector<std::uint64_t> src(512);
  m.adopt_far(src.data(), src.size() * 8);

  Stager::Options opt;
  opt.buffer_bytes = 256 * 8;
  opt.elem_bytes = 8;
  opt.worker_hook = false;  // threads=1: orchestrator posts the prefetch
  Stager st(m, opt);

  std::vector<Stager::Item> items;
  for (std::size_t i = 0; i < 2; ++i) {
    Stager::Item it;
    it.index = i;
    it.bytes = 256 * 8;
    it.slices.push_back(Stager::slice_of(src.data() + i * 256, 0, 256));
    items.push_back(std::move(it));
  }
  m.begin_phase("staged");
  st.run(items, [](const Stager::Item&, std::byte*, const Stager::WorkerHook&) {});
  EXPECT_DEATH(m.end_phase(), "model\\.phase_leak");
  st.release();
  m.end_phase();  // clean once the buffers are gone
}

TEST_F(ModelSanitizerDeath, RetainAcrossPhasesSuppressesLeak) {
  Machine m(tiny());
  m.begin_phase("setup");
  auto meta = m.alloc_array<std::uint64_t>(Space::Near, 64);
  m.retain_across_phases(meta.data());
  m.begin_phase("work");  // closes "setup" with meta still live
  m.end_phase();
  m.free_array(Space::Near, meta);
  SUCCEED();
}

TEST_F(ModelSanitizerDeath, RetainIgnoresFarPointers) {
  // The far fallback of alloc_array_near_or_far is retained unguarded.
  Machine m(tiny());
  m.begin_phase("setup");
  auto meta = m.alloc_array<std::uint64_t>(Space::Far, 64);
  m.retain_across_phases(meta.data());
  m.retain_across_phases(nullptr);  // an empty span's data()
  m.end_phase();
  m.free_array(Space::Far, meta);
  SUCCEED();
}

TEST_F(ModelSanitizerDeath, RetainOfInteriorNearPointerIsRejected) {
  Machine m(tiny());
  auto meta = m.alloc_array<std::uint64_t>(Space::Near, 64);
  EXPECT_THROW(m.retain_across_phases(meta.data() + 1),
               std::invalid_argument);
  m.free_array(Space::Near, meta);
}

TEST_F(ModelSanitizerDeath, FreeBeforeEndPhaseIsClean) {
  Machine m(tiny());
  m.begin_phase("tidy");
  auto buf = m.alloc_array<std::uint64_t>(Space::Near, 64);
  m.free_array(Space::Near, buf);
  m.end_phase();
  SUCCEED();
}

TEST_F(ModelSanitizerDeath, ImplicitPhaseMayHoldAllocations) {
  Machine m(tiny());
  // Allocations born outside explicit phases are exempt — the implicit
  // "(run)" phase is bookkeeping, not an algorithmic phase boundary.
  auto buf = m.alloc_array<std::uint64_t>(Space::Near, 64);
  m.begin_phase("p");
  m.end_phase();
  m.free_array(Space::Near, buf);
  SUCCEED();
}

// ---- model.space_attribution -----------------------------------------------

TEST_F(ModelSanitizerDeath, ChargeOnFreedNearBlockFires) {
  Machine m(tiny());
  auto buf = m.alloc_array<std::uint64_t>(Space::Near, 64);
  std::uint64_t* p = buf.data();
  m.free_array(Space::Near, buf);
  EXPECT_DEATH(m.stream_read(0, p, 8), "model\\.space_attribution");
}

TEST_F(ModelSanitizerDeath, NearChargeOverrunningAllocationFires) {
  Machine m(tiny());
  auto buf = m.alloc_array<std::uint64_t>(Space::Near, 64);
  // 512 + 64 bytes of charge against a 512-byte allocation: past even the
  // one-line probe slack.
  EXPECT_DEATH(m.stream_read(0, buf.data(), buf.size_bytes() + 512),
               "model\\.space_attribution");
}

TEST_F(ModelSanitizerDeath, FarChargeOverrunningRegionFires) {
  Machine m(tiny());
  std::vector<std::uint64_t> ext(64);
  m.adopt_far(ext.data(), ext.size() * 8);
  EXPECT_DEATH(m.stream_read(0, ext.data(), 4096), "model\\.space_attribution");
}

TEST_F(ModelSanitizerDeath, UnregisteredFarChargeIsLegal) {
  Machine m(tiny());
  std::vector<std::uint64_t> plain(64);
  m.stream_read(0, plain.data(), plain.size() * 8);  // counting-only far use
  SUCCEED();
}

// ---- sanitized end-to-end runs ---------------------------------------------
// The shipped kernels must be model-clean: run them under the sanitizer.

TEST(ModelSanitizerClean, NmSortConforms) {
  TwoLevelConfig c = tiny();
  c.threads = 2;
  Machine m(c);
  std::vector<std::uint64_t> keys(200'000), out(keys.size());
  std::uint64_t x = 0x9e3779b97f4a7c15ULL;
  for (auto& k : keys) k = x = x * 6364136223846793005ULL + 1442695040888963407ULL;
  sort::nm_sort_into(m, std::span<const std::uint64_t>(keys),
                     std::span<std::uint64_t>(out));
  m.end_phase();
  EXPECT_TRUE(std::is_sorted(out.begin(), out.end()));
}

TEST(ModelSanitizerClean, PipelinedNmSortConforms) {
  // The overlap_dma=true path stages batches through two scratchpad
  // buffers; both must be freed before Phase 2 closes.
  TwoLevelConfig c = tiny();
  c.threads = 2;
  c.overlap_dma = true;
  Machine m(c);
  std::vector<std::uint64_t> keys(200'000), out(keys.size());
  std::uint64_t x = 0x2545f4914f6cdd1dULL;
  for (auto& k : keys) k = x = x * 6364136223846793005ULL + 1442695040888963407ULL;
  sort::nm_sort_into(m, std::span<const std::uint64_t>(keys),
                     std::span<std::uint64_t>(out));
  m.end_phase();
  EXPECT_TRUE(std::is_sorted(out.begin(), out.end()));
}

TEST(ModelSanitizerClean, StagedKMeansConforms) {
  // Out-of-core k-means stages a resident prefix plus two streaming
  // buffers; all three must be gone when the phase closes.
  TwoLevelConfig c = tiny();
  c.threads = 2;
  c.overlap_dma = true;
  Machine m(c);
  const auto pts =
      kmeans::make_blobs(4 * (1 * MiB) / (4 * 8), 4, 4, 19);  // 4x capacity
  kmeans::KMeansOptions o;
  o.k = 4;
  o.dims = 4;
  o.max_iters = 3;
  o.tol = 0;
  const auto r = kmeans::kmeans_staged(m, pts, o);
  EXPECT_EQ(r.iterations, 3u);
  EXPECT_GT(m.stager_stats().batches, 0u);
}

TEST(ModelSanitizerClean, ScratchpadSortConforms) {
  TwoLevelConfig c = tiny();
  c.threads = 2;
  Machine m(c);
  std::vector<std::uint64_t> keys(100'000);
  std::uint64_t x = 88172645463325252ULL;
  for (auto& k : keys) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    k = x;
  }
  sort::scratchpad_sort(m, std::span<std::uint64_t>(keys));
  m.end_phase();
  EXPECT_TRUE(std::is_sorted(keys.begin(), keys.end()));
}

}  // namespace
}  // namespace tlm
