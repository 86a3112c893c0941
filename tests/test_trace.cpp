// Tests for the trace capture layer (the Ariel substitute): per-thread
// streams, coalescing, summaries, the v3 record writer, and Machine →
// TraceBuffer integration.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "scratchpad/machine.hpp"
#include "trace/capture.hpp"

namespace tlm::trace {
namespace {

TEST(TraceBuffer, RecordsPerThreadStreams) {
  TraceBuffer tb(2);
  tb.on_read(0, 0x1000, 64);
  tb.on_write(1, 0x2000, 64);
  EXPECT_EQ(tb.stream(0).size(), 1u);
  EXPECT_EQ(tb.stream(1).size(), 1u);
  EXPECT_EQ(tb.stream(0)[0].kind, OpKind::Read);
  EXPECT_EQ(tb.stream(1)[0].kind, OpKind::Write);
}

TEST(TraceBuffer, CoalescesContiguousBursts) {
  TraceBuffer tb(1);
  tb.on_read(0, 0x1000, 64);
  tb.on_read(0, 0x1040, 64);
  tb.on_read(0, 0x1080, 128);
  ASSERT_EQ(tb.stream(0).size(), 1u);
  EXPECT_EQ(tb.stream(0)[0].bytes, 256u);
}

TEST(TraceBuffer, DoesNotCoalesceAcrossGapsOrKinds) {
  TraceBuffer tb(1);
  tb.on_read(0, 0x1000, 64);
  tb.on_read(0, 0x2000, 64);  // gap
  tb.on_write(0, 0x2040, 64); // kind change
  EXPECT_EQ(tb.stream(0).size(), 3u);
}

TEST(TraceBuffer, MergesAdjacentCompute) {
  TraceBuffer tb(1);
  tb.on_compute(0, 10.0);
  tb.on_compute(0, 15.0);
  ASSERT_EQ(tb.stream(0).size(), 1u);
  EXPECT_DOUBLE_EQ(tb.stream(0)[0].ops, 25.0);
}

TEST(TraceBuffer, BarriersNeverMerge) {
  TraceBuffer tb(1);
  tb.on_barrier(0, 0);
  tb.on_barrier(0, 1);
  EXPECT_EQ(tb.stream(0).size(), 2u);
  EXPECT_EQ(tb.stream(0)[1].addr, 1u);
}

TEST(TraceBuffer, SummaryAggregates) {
  TraceBuffer tb(2);
  tb.on_read(0, 0x1000, 128);
  tb.on_write(1, 0x2000, 64);
  tb.on_compute(0, 5.0);
  tb.on_barrier(0, 0);
  tb.on_barrier(1, 0);
  const TraceSummary s = tb.summary();
  EXPECT_EQ(s.reads, 1u);
  EXPECT_EQ(s.writes, 1u);
  EXPECT_EQ(s.read_bytes, 128u);
  EXPECT_EQ(s.write_bytes, 64u);
  EXPECT_DOUBLE_EQ(s.compute_ops, 5.0);
  EXPECT_EQ(s.barriers, 2u);
}

// The v3 bytes of `ops` encoded one record each, from a fresh codec.
std::vector<std::uint8_t> encode_all(const std::vector<TraceOp>& ops) {
  std::vector<std::uint8_t> out;
  wire::Codec c;
  for (const TraceOp& op : ops) {
    std::uint8_t rec[wire::kMaxRecordBytes];
    out.insert(out.end(), rec, rec + wire::encode_op(rec, c, op));
  }
  return out;
}

std::vector<std::uint8_t> bytes_of(const TraceBuffer& tb, std::size_t t) {
  const auto log = tb.log(t);
  return {log.begin(), log.end()};
}

TEST(TraceBuffer, CoalescedTailIsReencodedInPlace) {
  // 64 B fits a one-byte varint; the merged 128 B needs two, so the tail
  // record grows by a byte when it is rewritten. The next record must land
  // after the grown tail and decode against the merged tail's end.
  TraceBuffer tb(1);
  tb.on_read(0, 0x1000, 64);
  const std::size_t one = tb.log(0).size();
  tb.on_read(0, 0x1040, 64);
  EXPECT_EQ(tb.log(0).size(), one + 1);
  tb.on_write(0, 0x9000, 8);
  const std::vector<TraceOp> want = {{OpKind::Read, 0x1000, 128},
                                     {OpKind::Write, 0x9000, 8}};
  EXPECT_EQ(bytes_of(tb, 0), encode_all(want));
  const std::vector<TraceOp> got = tb.stream(0);
  ASSERT_EQ(got.size(), 2u);
  EXPECT_EQ(got[0].addr, 0x1000u);
  EXPECT_EQ(got[0].bytes, 128u);
  EXPECT_EQ(got[1].kind, OpKind::Write);
  EXPECT_EQ(got[1].addr, 0x9000u);
  EXPECT_EQ(got[1].bytes, 8u);
  EXPECT_EQ(tb.records(0), 2u);
}

TEST(TraceBuffer, CoalescedTailCanShrink) {
  // The byte-swapped 1.0 takes a three-byte varint, 3.0 a two-byte one.
  TraceBuffer tb(1);
  tb.on_compute(0, 1.0);
  const std::size_t before = tb.log(0).size();
  tb.on_compute(0, 2.0);
  EXPECT_EQ(tb.log(0).size(), before - 1);
  tb.on_barrier(0, 7);
  EXPECT_EQ(bytes_of(tb, 0),
            encode_all({{OpKind::Compute, 0, 0, 3.0}, {OpKind::Barrier, 7}}));
}

TEST(TraceBuffer, AdoptedLogContinuesCoalescing) {
  // A log adopted from its bytes continues exactly like the buffer that
  // wrote it: the next contiguous burst merges into the adopted tail.
  TraceBuffer a(1);
  a.on_compute(0, 4.0);
  a.on_read(0, 0x2000, 64);
  TraceBuffer b(1);
  b.adopt(0, bytes_of(a, 0), a.records(0));
  a.on_read(0, 0x2040, 64);
  b.on_read(0, 0x2040, 64);
  EXPECT_EQ(bytes_of(a, 0), bytes_of(b, 0));
  EXPECT_EQ(b.records(0), 2u);
  EXPECT_EQ(b.summary().read_bytes, 128u);
  EXPECT_THROW(b.adopt(0, bytes_of(a, 0), 3), std::invalid_argument);
}

TEST(TraceBuffer, OutOfRangeThreadThrows) {
  TraceBuffer tb(1);
  EXPECT_THROW(tb.on_read(1, 0, 64), std::invalid_argument);
}

TEST(MachineIntegration, OperationsAppearInTrace) {
  TwoLevelConfig cfg = test_config(4.0);
  cfg.near_capacity = 1 * MiB;
  cfg.threads = 2;
  TraceBuffer tb(2);
  Machine m(cfg, &tb);

  auto far = m.alloc_array<std::uint64_t>(Space::Far, 4096);
  auto near = m.alloc_array<std::uint64_t>(Space::Near, 4096);
  m.run_spmd([&](std::size_t w) {
    auto [lo, hi] = ThreadPool::chunk(4096, w, 2);
    m.copy(w, near.data() + lo, far.data() + lo, (hi - lo) * 8);
    m.compute(w, 100.0);
  });

  const TraceSummary s = tb.summary();
  EXPECT_EQ(s.reads, 2u);          // one far read burst per thread
  EXPECT_EQ(s.writes, 2u);         // one near write burst per thread
  EXPECT_EQ(s.read_bytes, 4096u * 8);
  EXPECT_EQ(s.barriers, 4u);       // SPMD fork + join, one marker per thread
  EXPECT_DOUBLE_EQ(s.compute_ops, 200.0);

  // Reads target the far region, writes the near region.
  for (std::size_t t = 0; t < 2; ++t) {
    for (const TraceOp& op : tb.stream(t)) {
      if (op.kind == OpKind::Read) {
        EXPECT_FALSE(is_near_addr(op.addr));
      }
      if (op.kind == OpKind::Write) {
        EXPECT_TRUE(is_near_addr(op.addr));
      }
    }
  }
}

TEST(MachineIntegration, BarrierEpochsAreConsistentAcrossThreads) {
  TwoLevelConfig cfg = test_config(2.0);
  cfg.near_capacity = 1 * MiB;
  cfg.threads = 4;
  TraceBuffer tb(4);
  Machine m(cfg, &tb);
  for (int round = 0; round < 3; ++round)
    m.run_spmd([&](std::size_t w) { m.compute(w, 1.0); });

  // Every thread must see the fork/join barrier ids 0..5 in order.
  for (std::size_t t = 0; t < 4; ++t) {
    std::vector<std::uint64_t> ids;
    for (const TraceOp& op : tb.stream(t))
      if (op.kind == OpKind::Barrier) ids.push_back(op.addr);
    EXPECT_EQ(ids, (std::vector<std::uint64_t>{0, 1, 2, 3, 4, 5}))
        << "thread " << t;
  }
}

TEST(MachineIntegration, ClearEmptiesStreams) {
  TraceBuffer tb(1);
  tb.on_read(0, 0, 64);
  tb.clear();
  EXPECT_EQ(tb.stream(0).size(), 0u);
  EXPECT_EQ(tb.summary().total_ops(), 0u);
}

TEST(TraceBuffer, ClearResetsSummaryAndCoalescingState) {
  // Regression: clear() must drop the whole incremental summary — not just
  // the streams — and a post-clear op must not merge into (or delta against)
  // any pre-clear predecessor.
  TraceBuffer tb(1);
  tb.on_read(0, 0x1000, 64);
  tb.on_read(0, 0x1040, 64);  // coalesces: summary sees 1 read, 128 B
  tb.on_compute(0, 9.0);
  tb.on_barrier(0, 0);
  tb.clear();

  tb.on_read(0, 0x1080, 64);  // would extend the stale tail if it survived
  ASSERT_EQ(tb.stream(0).size(), 1u);
  EXPECT_EQ(tb.stream(0)[0].addr, 0x1080u);
  EXPECT_EQ(tb.stream(0)[0].bytes, 64u);

  const TraceSummary s = tb.summary();
  EXPECT_EQ(s.reads, 1u);
  EXPECT_EQ(s.read_bytes, 64u);
  EXPECT_EQ(s.barriers, 0u);
  EXPECT_DOUBLE_EQ(s.compute_ops, 0.0);
}

}  // namespace
}  // namespace tlm::trace
