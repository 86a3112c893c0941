// Tests for the Stager staged-streaming primitive: batch planning, the
// synchronous/prefetched gather split, the single-buffer degradation, the
// oversized escape hatch with its pipeline restart, and the counter
// plumbing into Machine::stager_stats().
#include <gtest/gtest.h>

#include <cstddef>
#include <cstring>
#include <numeric>
#include <vector>

#include "scratchpad/stager.hpp"

namespace tlm {
namespace {

TwoLevelConfig st_config(bool overlap) {
  TwoLevelConfig c = test_config(4.0);
  c.near_capacity = 1 * MiB;
  c.threads = 4;
  c.overlap_dma = overlap;
  return c;
}

std::vector<std::uint64_t> keys(std::size_t n, std::uint64_t salt = 1) {
  std::vector<std::uint64_t> v(n);
  std::uint64_t x = 0x9e3779b97f4a7c15ULL * salt + 1;
  for (auto& k : v) k = x = x * 6364136223846793005ULL + 1442695040888963407ULL;
  return v;
}

// One item covering [lo, hi) of `base` as a single slice at buffer start.
Stager::Item chunk_item(const std::uint64_t* base, std::size_t lo,
                        std::size_t hi, std::size_t idx) {
  Stager::Item it;
  it.index = idx;
  it.bytes = (hi - lo) * sizeof(std::uint64_t);
  it.slices.push_back(Stager::slice_of(base + lo, 0, hi - lo));
  return it;
}

Stager::Options u64_options(std::uint64_t buffer_elems) {
  Stager::Options o;
  o.buffer_bytes = buffer_elems * sizeof(std::uint64_t);
  o.elem_bytes = sizeof(std::uint64_t);
  return o;
}

// ------------------------------------------------------------------ plan

TEST(StagerPlan, GreedyPrefixPacking) {
  const std::vector<std::uint64_t> sizes{3, 4, 5, 6};
  const auto ranges = Stager::plan(sizes, 10);
  ASSERT_EQ(ranges.size(), 3u);
  EXPECT_EQ(ranges[0].first, 0u);
  EXPECT_EQ(ranges[0].last, 2u);
  EXPECT_EQ(ranges[0].bytes, 7u);
  EXPECT_FALSE(ranges[0].oversized);
  EXPECT_EQ(ranges[1].first, 2u);
  EXPECT_EQ(ranges[1].last, 3u);
  EXPECT_EQ(ranges[2].first, 3u);
  EXPECT_EQ(ranges[2].last, 4u);
}

TEST(StagerPlan, OversizedItemGetsItsOwnRange) {
  const std::vector<std::uint64_t> sizes{4, 25, 3, 3};
  const auto ranges = Stager::plan(sizes, 10);
  ASSERT_EQ(ranges.size(), 3u);
  EXPECT_FALSE(ranges[0].oversized);
  EXPECT_TRUE(ranges[1].oversized);
  EXPECT_EQ(ranges[1].first, 1u);
  EXPECT_EQ(ranges[1].last, 2u);
  EXPECT_EQ(ranges[1].bytes, 25u);
  EXPECT_FALSE(ranges[2].oversized);
  EXPECT_EQ(ranges[2].bytes, 6u);
}

TEST(StagerPlan, EmptyAndExactFit) {
  EXPECT_TRUE(Stager::plan({}, 10).empty());
  const std::vector<std::uint64_t> sizes{5, 5};
  const auto ranges = Stager::plan(sizes, 10);
  ASSERT_EQ(ranges.size(), 1u);
  EXPECT_EQ(ranges[0].bytes, 10u);
}

// ------------------------------------------------------------------- run

TEST(Stager, SingleItemGathersSynchronouslyWithOneBuffer) {
  Machine m(st_config(/*overlap=*/true));
  const auto src = keys(1000);
  m.adopt_far(src.data(), src.size() * sizeof(std::uint64_t));

  Stager st(m, u64_options(2048));
  const std::uint64_t one_buffer = m.near_arena().used();

  std::vector<Stager::Item> items;
  // Two slices landing at distinct buffer offsets: front half reversed
  // order, to exercise dst_off.
  Stager::Item it;
  it.index = 0;
  it.bytes = 1000 * sizeof(std::uint64_t);
  it.slices.push_back(Stager::slice_of(src.data() + 500, 0, 500));
  it.slices.push_back(Stager::slice_of(src.data(), 500, 500));
  items.push_back(std::move(it));

  std::size_t calls = 0;
  st.run(items, [&](const Stager::Item& item, std::byte* data,
                    const Stager::WorkerHook& hook) {
    ++calls;
    ASSERT_NE(data, nullptr);
    EXPECT_FALSE(static_cast<bool>(hook));  // nothing to prefetch
    const auto* d = reinterpret_cast<const std::uint64_t*>(data);
    EXPECT_EQ(0, std::memcmp(d, src.data() + 500, 500 * 8));
    EXPECT_EQ(0, std::memcmp(d + 500, src.data(), 500 * 8));
    EXPECT_EQ(item.index, 0u);
  });
  EXPECT_EQ(calls, 1u);
  // A single batch never needs the back buffer: lazy allocation must not
  // have touched the arena again.
  EXPECT_EQ(m.near_arena().used(), one_buffer);

  const StagerStats& s = st.stats();
  EXPECT_EQ(s.batches, 1u);
  EXPECT_EQ(s.sync_bytes, 1000u * 8u);
  EXPECT_EQ(s.prefetch_batches, 0u);
  EXPECT_EQ(s.prefetch_bytes, 0u);
  EXPECT_EQ(m.stats().total.dma_bytes(), 0u);
}

TEST(Stager, PipelinedRunPrefetchesViaWorkerHook) {
  Machine m(st_config(/*overlap=*/true));
  const std::size_t kChunk = 512;
  const auto src = keys(4 * kChunk);
  m.adopt_far(src.data(), src.size() * sizeof(std::uint64_t));

  std::vector<Stager::Item> items;
  for (std::size_t c = 0; c < 4; ++c)
    items.push_back(chunk_item(src.data(), c * kChunk, (c + 1) * kChunk, c));

  Stager st(m, u64_options(kChunk));
  std::vector<const std::byte*> seen;
  st.run(items, [&](const Stager::Item& item, std::byte* data,
                    const Stager::WorkerHook& hook) {
    ASSERT_NE(data, nullptr);
    seen.push_back(data);
    if (hook) {
      // Contract: invoke the hook once per worker inside an SPMD section;
      // the join barrier is the DMA completion fence.
      m.run_spmd([&](std::size_t w) { hook(w); });
    }
    EXPECT_EQ(0, std::memcmp(data, src.data() + item.index * kChunk,
                             kChunk * 8));
  });

  const StagerStats& s = st.stats();
  EXPECT_EQ(s.batches, 4u);
  EXPECT_EQ(s.prefetch_batches, 3u);
  EXPECT_EQ(s.sync_bytes, kChunk * 8u);          // only the first gather
  EXPECT_EQ(s.prefetch_bytes, 3u * kChunk * 8u);  // the rest ride the DMA
  EXPECT_EQ(s.fallback_direct, 0u);
  EXPECT_EQ(s.restarts, 0u);
  // The prefetched gathers are the machine's only DMA traffic (counted on
  // both the far-read and near-write side).
  EXPECT_EQ(m.stats().total.dma_far_bytes(), s.prefetch_bytes);
  EXPECT_EQ(m.stats().total.dma_near_bytes(), s.prefetch_bytes);
  // Double buffering: consecutive batches alternate between two buffers.
  ASSERT_EQ(seen.size(), 4u);
  EXPECT_NE(seen[0], seen[1]);
  EXPECT_EQ(seen[0], seen[2]);
  EXPECT_EQ(seen[1], seen[3]);
}

TEST(Stager, OrchestratorModePostsPrefetchesItself) {
  TwoLevelConfig cfg = st_config(/*overlap=*/true);
  Machine m(cfg);
  const std::size_t kChunk = 256;
  const auto src = keys(3 * kChunk, 7);
  m.adopt_far(src.data(), src.size() * sizeof(std::uint64_t));

  std::vector<Stager::Item> items;
  for (std::size_t c = 0; c < 3; ++c)
    items.push_back(chunk_item(src.data(), c * kChunk, (c + 1) * kChunk, c));

  Stager::Options opt = u64_options(kChunk);
  opt.worker_hook = false;
  Stager st(m, opt);
  st.run(items, [&](const Stager::Item& item, std::byte* data,
                    const Stager::WorkerHook& hook) {
    EXPECT_FALSE(static_cast<bool>(hook));  // the stager posted it already
    ASSERT_NE(data, nullptr);
    // A barrier inside the processing step fences the posted descriptors.
    m.run_spmd([](std::size_t) {});
    EXPECT_EQ(0, std::memcmp(data, src.data() + item.index * kChunk,
                             kChunk * 8));
  });
  EXPECT_EQ(st.stats().prefetch_batches, 2u);
  EXPECT_EQ(m.stats().total.dma_far_bytes(), st.stats().prefetch_bytes);
}

TEST(Stager, DegradesToSingleBufferWithoutOverlap) {
  Machine m(st_config(/*overlap=*/false));
  const std::size_t kChunk = 512;
  const auto src = keys(4 * kChunk, 3);
  m.adopt_far(src.data(), src.size() * sizeof(std::uint64_t));

  std::vector<Stager::Item> items;
  for (std::size_t c = 0; c < 4; ++c)
    items.push_back(chunk_item(src.data(), c * kChunk, (c + 1) * kChunk, c));

  Stager st(m, u64_options(kChunk));
  const std::uint64_t one_buffer = m.near_arena().used();
  std::vector<const std::byte*> seen;
  st.run(items, [&](const Stager::Item& item, std::byte* data,
                    const Stager::WorkerHook& hook) {
    EXPECT_FALSE(static_cast<bool>(hook));
    seen.push_back(data);
    EXPECT_EQ(0, std::memcmp(data, src.data() + item.index * kChunk,
                             kChunk * 8));
  });

  const StagerStats& s = st.stats();
  EXPECT_EQ(s.batches, 4u);
  EXPECT_EQ(s.sync_bytes, 4u * kChunk * 8u);  // every gather is synchronous
  EXPECT_EQ(s.prefetch_batches, 0u);
  EXPECT_EQ(s.prefetch_bytes, 0u);
  EXPECT_EQ(m.stats().total.dma_bytes(), 0u);
  // One buffer, reused for every batch.
  EXPECT_EQ(m.near_arena().used(), one_buffer);
  for (const std::byte* p : seen) EXPECT_EQ(p, seen[0]);
}

TEST(Stager, OversizedFallbackRestartsThePipeline) {
  Machine m(st_config(/*overlap=*/true));
  const std::size_t kChunk = 256;
  const auto src = keys(5 * kChunk, 11);
  m.adopt_far(src.data(), src.size() * sizeof(std::uint64_t));

  // A, B staged; C oversized (covers two chunks' worth); D, E staged.
  std::vector<Stager::Item> items;
  items.push_back(chunk_item(src.data(), 0, kChunk, 0));
  items.push_back(chunk_item(src.data(), kChunk, 2 * kChunk, 1));
  Stager::Item big = chunk_item(src.data(), 2 * kChunk, 4 * kChunk, 2);
  big.oversized = true;
  items.push_back(std::move(big));
  items.push_back(chunk_item(src.data(), 4 * kChunk, 5 * kChunk, 3));
  // Reuse chunk 0 as a final staged item so the pipeline restarts into a
  // second prefetched pair.
  items.push_back(chunk_item(src.data(), 0, kChunk, 4));

  Stager st(m, u64_options(kChunk));
  std::size_t direct = 0;
  st.run(items, [&](const Stager::Item& item, std::byte* data,
                    const Stager::WorkerHook& hook) {
    if (item.oversized) {
      EXPECT_EQ(data, nullptr);
      EXPECT_FALSE(static_cast<bool>(hook));
      // Process straight out of far memory via the item's slices.
      const auto* far_src =
          reinterpret_cast<const std::uint64_t*>(item.slices[0].src);
      EXPECT_EQ(far_src[0], src[2 * kChunk]);
      ++direct;
      return;
    }
    ASSERT_NE(data, nullptr);
    if (hook) m.run_spmd([&](std::size_t w) { hook(w); });
  });

  const StagerStats& s = st.stats();
  EXPECT_EQ(direct, 1u);
  EXPECT_EQ(s.batches, 4u);  // oversized items are not staged batches
  EXPECT_EQ(s.fallback_direct, 1u);
  EXPECT_EQ(s.restarts, 1u);
  // B prefetched during A, E prefetched during D.
  EXPECT_EQ(s.prefetch_batches, 2u);
  // A and D gather synchronously (first batch and the restart).
  EXPECT_EQ(s.sync_bytes, 2u * kChunk * 8u);
}

TEST(Stager, ReleaseFoldsCountersIntoTheMachineOnce) {
  Machine m(st_config(/*overlap=*/false));
  const auto src = keys(256, 5);
  m.adopt_far(src.data(), src.size() * sizeof(std::uint64_t));
  {
    Stager st(m, u64_options(256));
    std::vector<Stager::Item> items{chunk_item(src.data(), 0, 256, 0)};
    st.run(items, [&](const Stager::Item&, std::byte* data,
                      const Stager::WorkerHook&) { ASSERT_NE(data, nullptr); });
    st.release();
    st.release();  // idempotent: no double counting
    EXPECT_THROW(st.run(items, [](const Stager::Item&, std::byte*,
                                  const Stager::WorkerHook&) {}),
                 std::invalid_argument);
  }  // destructor after release() is also a no-op
  EXPECT_EQ(m.stager_stats().batches, 1u);
  EXPECT_EQ(m.stager_stats().sync_bytes, 256u * 8u);
  EXPECT_EQ(m.near_arena().used(), 0u);
}

TEST(Stager, RejectsItemLargerThanBufferUnlessMarkedOversized) {
  Machine m(st_config(/*overlap=*/false));
  const auto src = keys(1024, 9);
  m.adopt_far(src.data(), src.size() * sizeof(std::uint64_t));
  Stager st(m, u64_options(512));
  std::vector<Stager::Item> items{chunk_item(src.data(), 0, 1024, 0)};
  EXPECT_THROW(st.run(items, [](const Stager::Item&, std::byte*,
                                const Stager::WorkerHook&) {}),
               std::invalid_argument);
}

// ---------------------------------------------------- degradation ladder

TEST(StagerLadder, BackBufferDenialDegradesToSingle) {
  Machine m(st_config(/*overlap=*/true));
  FaultInjector fi(42);
  // Occurrence 1 is the constructor's front buffer; occurrence 2 is the
  // lazy back-buffer allocation the first prefetch needs.
  fi.arm(fault_site::kNearAlloc, FaultSchedule::nth_occurrence(2));
  m.set_fault_injector(&fi);

  const std::size_t kChunk = 512;
  const auto src = keys(4 * kChunk, 21);
  m.adopt_far(src.data(), src.size() * sizeof(std::uint64_t));

  std::vector<Stager::Item> items;
  for (std::size_t c = 0; c < 4; ++c)
    items.push_back(chunk_item(src.data(), c * kChunk, (c + 1) * kChunk, c));

  Stager st(m, u64_options(kChunk));
  EXPECT_EQ(st.level(), Stager::Level::kDouble);
  const std::uint64_t one_buffer = m.near_arena().used();

  st.run(items, [&](const Stager::Item& item, std::byte* data,
                    const Stager::WorkerHook& hook) {
    // Single-buffered: every gather is synchronous, so no hook ever fires.
    EXPECT_FALSE(static_cast<bool>(hook));
    ASSERT_NE(data, nullptr);
    EXPECT_EQ(0, std::memcmp(data, src.data() + item.index * kChunk,
                             kChunk * 8));
  });

  EXPECT_EQ(st.level(), Stager::Level::kSingle);
  const StagerStats& s = st.stats();
  EXPECT_EQ(s.degrade_to_single, 1u);
  EXPECT_EQ(s.degrade_to_direct, 0u);
  EXPECT_EQ(s.batches, 4u);
  EXPECT_EQ(s.prefetch_batches, 0u);
  EXPECT_EQ(s.sync_bytes, 4u * kChunk * 8u);
  // The denial was injected, not genuine: the arena never grew past the
  // front buffer, and the ladder never retries (pressure is persistent).
  EXPECT_EQ(m.near_arena().used(), one_buffer);
  EXPECT_EQ(m.fault_stats().near_alloc_injected, 1u);
}

TEST(StagerLadder, FrontBufferDenialRunsDirectFromFar) {
  Machine m(st_config(/*overlap=*/true));
  FaultInjector fi(7);
  fi.arm(fault_site::kNearAlloc, FaultSchedule::every());
  m.set_fault_injector(&fi);

  const std::size_t kChunk = 256;
  const auto src = keys(3 * kChunk, 23);
  m.adopt_far(src.data(), src.size() * sizeof(std::uint64_t));

  std::vector<Stager::Item> items;
  for (std::size_t c = 0; c < 3; ++c)
    items.push_back(chunk_item(src.data(), c * kChunk, (c + 1) * kChunk, c));

  Stager st(m, u64_options(kChunk));
  EXPECT_EQ(st.level(), Stager::Level::kDirect);
  EXPECT_EQ(m.near_arena().used(), 0u);  // total blackout: nothing staged

  auto direct = [&](const Stager::Item& item, std::byte* data,
                    const Stager::WorkerHook& hook) {
    EXPECT_EQ(data, nullptr);
    EXPECT_FALSE(static_cast<bool>(hook));
    // The callback's far-memory path: the slices still address the operand.
    const auto* far_src =
        reinterpret_cast<const std::uint64_t*>(item.slices[0].src);
    EXPECT_EQ(far_src[0], src[item.index * kChunk]);
  };
  st.run(items, direct);
  EXPECT_EQ(st.stats().fallback_direct, 3u);
  EXPECT_EQ(st.stats().batches, 0u);
  EXPECT_EQ(st.stats().sync_bytes, 0u);
  EXPECT_EQ(st.stats().degrade_to_direct, 1u);

  // A later run stays on the bottom rung; the transition is not re-counted.
  st.run(items, direct);
  EXPECT_EQ(st.stats().fallback_direct, 6u);
  EXPECT_EQ(st.stats().degrade_to_direct, 1u);
  // Only the constructor's attempt consulted the injector.
  EXPECT_EQ(m.fault_stats().near_alloc_injected, 1u);

  st.release();
  EXPECT_EQ(m.stager_stats().degrade_to_direct, 1u);
  EXPECT_EQ(m.stager_stats().fallback_direct, 6u);
}

TEST(StagerLadder, GenuineExhaustionAlsoStepsTheLadder) {
  // No injector: a staging buffer larger than the whole scratchpad is a
  // genuine capacity miss, and the ladder (not an abort) must handle it.
  Machine m(st_config(/*overlap=*/true));
  const auto src = keys(256, 29);
  m.adopt_far(src.data(), src.size() * sizeof(std::uint64_t));
  Stager st(m, u64_options(2 * MiB / sizeof(std::uint64_t)));
  EXPECT_EQ(st.level(), Stager::Level::kDirect);
  EXPECT_EQ(m.fault_stats().near_alloc_exhausted, 1u);
  EXPECT_EQ(m.fault_stats().near_alloc_injected, 0u);
  std::vector<Stager::Item> items{chunk_item(src.data(), 0, 256, 0)};
  std::size_t calls = 0;
  st.run(items, [&](const Stager::Item&, std::byte* data,
                    const Stager::WorkerHook&) {
    EXPECT_EQ(data, nullptr);
    ++calls;
  });
  EXPECT_EQ(calls, 1u);
}

TEST(Stager, SequentialGatherDrivesCopiesFromTheOrchestrator) {
  Machine m(st_config(/*overlap=*/false));
  const auto src = keys(300, 13);
  m.adopt_far(src.data(), src.size() * sizeof(std::uint64_t));
  Stager::Options opt = u64_options(512);
  opt.gather = Stager::Gather::kSequential;
  Stager st(m, opt);
  std::vector<Stager::Item> items{chunk_item(src.data(), 0, 300, 0)};
  st.run(items, [&](const Stager::Item&, std::byte* data,
                    const Stager::WorkerHook&) {
    EXPECT_EQ(0, std::memcmp(data, src.data(), 300 * 8));
  });
  // One burst for the whole gather (no SPMD split).
  EXPECT_EQ(m.stats().total.far_bursts(), 1u);
}

}  // namespace
}  // namespace tlm
