// Tests for the out-of-core trace path: MappedLog capture, crash-tail
// recovery, and ShardedReplay's fence-point merge — pinned against the
// in-RAM TraceBuffer path, which replay must reproduce bit for bit (the
// trace-replay CI lane's contract).
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <span>
#include <string>
#include <vector>

#include "analysis/experiment.hpp"
#include "common/faults.hpp"
#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "scratchpad/machine.hpp"
#include "sim/system.hpp"
#include "sort/sort.hpp"
#include "temp_path.hpp"
#include "trace/capture.hpp"
#include "trace/mapped_log.hpp"
#include "trace/replay.hpp"

namespace tlm::trace {
namespace {

// Forwards every record to both capture paths, so one (possibly
// fault-perturbed, thread-racing) run produces the in-RAM stream and the
// mmap'd log from the *same* op sequence. This is how the chaos replay test
// stays deterministic: fault occurrence numbering races across threads
// between runs, but within one run both sinks see identical ops.
class TeeSink final : public TraceSink {
 public:
  TeeSink(TraceSink& a, TraceSink& b) : a_(a), b_(b) {}
  void record(std::size_t t, const TraceOp& op) override {
    a_.record(t, op);
    b_.record(t, op);
  }

 private:
  TraceSink& a_;
  TraceSink& b_;
};

void expect_streams_equal(const TraceSource& a, const TraceSource& b) {
  ASSERT_EQ(a.threads(), b.threads());
  for (std::size_t t = 0; t < a.threads(); ++t) {
    const auto& x = a.stream(t);
    const auto& y = b.stream(t);
    ASSERT_EQ(x.size(), y.size()) << "thread " << t;
    for (std::size_t i = 0; i < x.size(); ++i) {
      EXPECT_EQ(x[i].kind, y[i].kind) << "thread " << t << " op " << i;
      EXPECT_EQ(x[i].addr, y[i].addr) << "thread " << t << " op " << i;
      EXPECT_EQ(x[i].bytes, y[i].bytes) << "thread " << t << " op " << i;
      EXPECT_EQ(x[i].src, y[i].src) << "thread " << t << " op " << i;
      EXPECT_DOUBLE_EQ(x[i].ops, y[i].ops) << "thread " << t << " op " << i;
    }
  }
}

// The stronger form: the two sources hold the same v3 bytes, thread by
// thread.
void expect_logs_identical(const TraceSource& a, const TraceSource& b) {
  ASSERT_EQ(a.threads(), b.threads());
  for (std::size_t t = 0; t < a.threads(); ++t) {
    const std::span<const std::uint8_t> x = a.log(t);
    const std::span<const std::uint8_t> y = b.log(t);
    EXPECT_TRUE(std::equal(x.begin(), x.end(), y.begin(), y.end()))
        << "thread " << t << ": " << x.size() << " vs " << y.size()
        << " bytes";
  }
}

void expect_reports_equal(const sim::SimReport& a, const sim::SimReport& b) {
  EXPECT_EQ(a.seconds, b.seconds);
  EXPECT_EQ(a.events, b.events);
  EXPECT_EQ(a.near.accesses(), b.near.accesses());
  EXPECT_EQ(a.far.accesses(), b.far.accesses());
}

TEST(MappedLog, StreamsMatchTraceBufferExactly) {
  const TempPath dir("replay_test_tee");
  TraceBuffer tb(2);
  {
    MappedLog log(dir.path(), 2);
    TeeSink tee(tb, log);
    // Coalescible bursts, a gap, a zero-length op, computes, DMA pairs with
    // contiguous and non-contiguous continuations, and barriers.
    tee.on_read(0, kFarBase, 64);
    tee.on_read(0, kFarBase + 64, 64);    // coalesces
    tee.on_read(0, kFarBase + 4096, 0);   // zero-length at a gap
    tee.on_write(0, kNearBase, 256);
    tee.on_compute(0, 10.0);
    tee.on_compute(0, 2.5);               // merges
    tee.on_compute(1, 1.0);
    tee.on_compute(1, 2.0);               // merges into a shorter record
    tee.on_barrier(0, 0);
    tee.on_dma(1, kNearBase, kFarBase, 512);
    tee.on_dma(1, kNearBase + 512, kFarBase + 512, 512);  // coalesces
    tee.on_dma(1, kNearBase + 8192, kFarBase + 512 + 512, 64);  // dst gap
    tee.on_barrier(1, 0);
    log.close();
    // The mapped sink must also agree on the aggregate summary.
    EXPECT_EQ(log.summary().total_ops(), tb.summary().total_ops());
    EXPECT_EQ(log.summary().read_bytes, tb.summary().read_bytes);
    EXPECT_EQ(log.summary().dma_bytes, tb.summary().dma_bytes);
  }
  const ShardedReplay replay(dir.path());
  expect_streams_equal(tb, replay);
  expect_logs_identical(tb, replay);
  EXPECT_EQ(replay.stats().recovered_threads, 0u);
}

TEST(MappedLog, RecordsStraddleChunkBoundaries) {
  const TempPath dir("replay_test_chunks");
  TraceBuffer tb(1);
  {
    // A few records per chunk.
    MappedLog log(dir.path(), 1, /*chunk_bytes=*/64);
    TeeSink tee(tb, log);
    for (std::uint64_t i = 0; i < 400; ++i) {
      tee.on_read(0, kFarBase + i * 4096, 64);  // gaps defeat coalescing
      if (i % 7 == 0) tee.on_compute(0, static_cast<double>(i));
    }
    log.close();
    EXPECT_GT(log.stats().chunks, 3u);
    EXPECT_EQ(log.stats().file_bytes,
              log.stats().encoded_bytes + sizeof(MappedLogFileHeader));
  }
  const ShardedReplay replay(dir.path());
  expect_streams_equal(tb, replay);
  expect_logs_identical(tb, replay);
}

TEST(ShardedReplay, NMsortSimulatesBitIdenticallyToInRamPath) {
  // The CI lane in miniature — and cross-*run*, not just cross-sink: the
  // in-RAM capture and the mapped capture are two separate executions of
  // the same clean (fault-free) run, exactly like the two table1 processes
  // report_diff compares. Clean captures must be run-to-run deterministic.
  const TempPath dir("replay_test_nmsort");
  const TwoLevelConfig cfg = analysis::scaled_counting_config(4.0, 4, 256 * KiB);
  analysis::CaptureRun ram = analysis::capture_sort_trace(
      cfg, sort::Algorithm::NMsort, 1 << 15, 21);
  const analysis::MappedCaptureRun mapped = analysis::capture_sort_trace_mapped(
      cfg, sort::Algorithm::NMsort, 1 << 15, 21, dir.path());
  ASSERT_TRUE(ram.counting.verified);
  ASSERT_TRUE(mapped.counting.verified);

  ThreadPool pool(4);
  const ShardedReplay replay(dir.path(), pool);
  expect_streams_equal(ram.trace, replay);
  expect_logs_identical(ram.trace, replay);
  EXPECT_EQ(replay.stats().ops, mapped.log.ops);

  sim::SystemConfig sys = sim::SystemConfig::scaled(4.0, 4);
  sim::System a(sys, ram.trace);
  sim::System b(sys, replay);
  expect_reports_equal(a.run(), b.run());
}

TEST(ShardedReplay, ChaosSeedCaptureReplaysBitIdentically) {
  // A fault-perturbed capture (chaos seed 101, the mixed schedule of
  // test_chaos.cpp) teed to both sinks in one run: the mmap'd log must
  // replay to the identical simulation the in-RAM stream produces.
  const TempPath dir("replay_test_chaos");
  TwoLevelConfig cfg = test_config(4.0);
  cfg.near_capacity = 256 * KiB;
  cfg.cache_bytes = 32 * KiB;
  cfg.threads = 4;
  cfg.overlap_dma = true;

  FaultInjector fi(101);
  fi.arm(fault_site::kNearAlloc, FaultSchedule::prob(0.25));
  fi.arm(fault_site::kDmaFail, FaultSchedule::prob(0.05));
  fi.arm(fault_site::kDmaStall, FaultSchedule::prob(0.1, 1e-6));
  fi.arm(fault_site::kFarStall, FaultSchedule::prob(0.002, 5e-7));

  TraceBuffer tb(cfg.threads);
  FaultStats observed;
  {
    MappedLog log(dir.path(), cfg.threads);
    TeeSink tee(tb, log);
    Machine m(cfg, &tee);
    m.set_fault_injector(&fi);
    std::vector<std::uint64_t> keys = random_keys(100'000, 2026);
    std::vector<std::uint64_t> out(keys.size());
    sort::NMSortOptions opt;
    opt.seed = 2026 ^ 0x9e3779b97f4a7c15ULL;
    sort::nm_sort_into(m, std::span<const std::uint64_t>(keys),
                       std::span<std::uint64_t>(out), opt);
    m.end_phase();
    observed = m.fault_stats();
    log.close();
  }
  // The schedule must actually have bitten, or this proves nothing.
  EXPECT_GT(observed.near_alloc_injected + observed.dma_injected +
                observed.far_stalls,
            0u);

  ThreadPool pool(cfg.threads);
  const ShardedReplay replay(dir.path(), pool);
  expect_streams_equal(tb, replay);
  expect_logs_identical(tb, replay);

  sim::SystemConfig sys = sim::SystemConfig::scaled(4.0, cfg.threads);
  sim::System a(sys, tb);
  sim::System b(sys, replay);
  expect_reports_equal(a.run(), b.run());
}

// Writes a two-thread log where thread 0's tail is cut mid-record and its
// header is never finalized — the on-disk state a crash leaves behind.
struct CutLogFixture {
  TempPath dir{"replay_test_cut"};
  TempPath probe{"replay_test_cut_probe"};
  TraceBuffer expect{2};

  CutLogFixture() {
    // Pass 1: just the prefix, to learn thread 0's exact cut offset.
    {
      MappedLog log(probe.path(), 2);
      emit_prefix(log);
      log.close();
    }
    std::ifstream probe0(mapped_log_file_path(probe.path(), 0),
                         std::ios::binary);
    probe0.seekg(0, std::ios::end);
    const auto cut = static_cast<long>(probe0.tellg()) + 1;  // mid-record

    // Pass 2: the full capture, then surgery on thread 0.
    {
      MappedLog log(dir.path(), 2);
      emit_prefix(log);
      log.on_read(0, kFarBase + 1 * MiB, 64);
      log.on_barrier(0, 1);
      log.on_read(0, kFarBase + 2 * MiB, 64);  // tail past the last fence
      log.on_barrier(1, 1);
      log.close();
    }
    const std::string victim = mapped_log_file_path(dir.path(), 0);
    {
      // Un-finalize the header: committed_bytes and ops back to kUnfinalized.
      std::fstream f(victim,
                     std::ios::binary | std::ios::in | std::ios::out);
      EXPECT_TRUE(f.is_open());
      const std::uint64_t unfinalized[2] = {kUnfinalized, kUnfinalized};
      f.seekp(offsetof(MappedLogFileHeader, committed_bytes));
      f.write(reinterpret_cast<const char*>(unfinalized),
              sizeof(unfinalized));
    }
    EXPECT_EQ(::truncate(victim.c_str(), cut), 0);

    // What the merge must keep: both threads cut after the deepest common
    // fence (barrier 0) — thread 1's finalized epoch-1 ops drop too.
    emit_prefix_into(expect);
  }

  static void emit_prefix(TraceSink& s) {
    s.on_read(0, kFarBase, 64);
    s.on_barrier(0, 0);
    s.on_write(1, kNearBase, 64);
    s.on_barrier(1, 0);
  }
  void emit_prefix_into(TraceBuffer& tb) { emit_prefix(tb); }
};

TEST(ShardedReplay, TruncatedTailRecoversDeepestCommonFencePrefix) {
  const CutLogFixture fx;
  const ShardedReplay replay(fx.dir.path());
  EXPECT_EQ(replay.stats().recovered_threads, 1u);
  EXPECT_EQ(replay.stats().fences, 1u);
  expect_streams_equal(fx.expect, replay);
  expect_logs_identical(fx.expect, replay);
}

TEST(ShardedReplay, DivergentFenceSchedulesCannotMerge) {
  const TempPath dir("replay_test_diverge");
  {
    MappedLog log(dir.path(), 2);
    log.on_barrier(0, 0);
    log.on_barrier(1, 5);  // same depth, different rendezvous id
    log.close();
  }
  EXPECT_THROW(ShardedReplay{dir.path()}, std::logic_error);
}

TEST(ShardedReplay, ExtraBarrierCrossingsInFinalizedLogCannotMerge) {
  const TempPath dir("replay_test_ragged");
  {
    MappedLog log(dir.path(), 2);
    log.on_barrier(0, 0);
    log.on_barrier(0, 1);  // thread 0 crossed a fence thread 1 never saw...
    log.on_barrier(1, 0);
    log.close();           // ...and nothing crashed to excuse it
  }
  EXPECT_THROW(ShardedReplay{dir.path()}, std::logic_error);
}

TEST(ShardedReplay, LegalInterleavingsWithRaggedEpochOpCountsMerge) {
  // Adversarial-but-legal input: both threads cross the identical Barrier-id
  // schedule, but their per-epoch op counts differ wildly (thread 0 does the
  // bulk of epoch 0, thread 1 the bulk of epoch 1, with coalescing-resistant
  // strides). The merge validator must accept this — only the fence
  // *schedule* is the contract, never per-epoch op counts — and the decoded
  // streams must be bit-identical to the in-RAM capture.
  const TempPath dir("replay_test_legal_ragged");
  TraceBuffer expect(2);
  {
    // Force chunk growth too.
    MappedLog log(dir.path(), 2, /*chunk_bytes=*/512);
    TeeSink tee(expect, log);
    for (int i = 0; i < 64; ++i)
      tee.on_read(0, kFarBase + 4096 * i, 64);  // strided: 64 records
    tee.on_write(1, kNearBase, 64);             // one lone op
    tee.on_barrier(0, 0);
    tee.on_barrier(1, 0);
    tee.on_compute(0, 1.0);  // epoch 1 flips the imbalance
    for (int i = 0; i < 64; ++i)
      tee.on_write(1, kNearBase + 4096 * i, 64);
    tee.on_dma(1, kNearBase, kFarBase, 256);
    tee.on_barrier(0, 1);
    tee.on_barrier(1, 1);
    tee.on_barrier(0, 2);  // an empty epoch for both
    tee.on_barrier(1, 2);
    log.close();
  }
  const ShardedReplay replay(dir.path());
  EXPECT_EQ(replay.stats().fences, 3u);
  EXPECT_EQ(replay.stats().recovered_threads, 0u);
  expect_streams_equal(expect, replay);
  expect_logs_identical(expect, replay);
}

TEST(ShardedReplay, InterleavedScheduleDivergenceIsCaughtMidStream) {
  // The schedules agree for two fences and only then fork — the validator
  // must flag the first divergent fence, not just index-0 mismatches.
  const TempPath dir("replay_test_mid_diverge");
  {
    MappedLog log(dir.path(), 2);
    for (std::uint64_t f = 0; f < 2; ++f) {
      log.on_barrier(0, f);
      log.on_barrier(1, f);
    }
    log.on_read(0, kFarBase, 64);
    log.on_barrier(0, 2);
    log.on_barrier(1, 9);  // legal depth, wrong rendezvous
    log.close();
  }
  EXPECT_THROW(ShardedReplay{dir.path()}, std::logic_error);
}

TEST(ShardedReplay, MissingManifestThrows) {
  EXPECT_THROW(ShardedReplay{"/nonexistent/tlm_replay_dir"},
               std::invalid_argument);
}

TEST(ShardedReplay, CommittedLengthPastTheFileIsRejected) {
  // A finalized header whose committed_bytes would wrap a naive
  // header + length sum must still be caught as a short file.
  const TempPath dir("replay_test_overlong_commit");
  {
    MappedLog log(dir.path(), 1);
    log.on_read(0, kFarBase, 64);
    log.on_barrier(0, 0);
    log.close();
  }
  {
    std::fstream f(mapped_log_file_path(dir.path(), 0),
                   std::ios::binary | std::ios::in | std::ios::out);
    ASSERT_TRUE(f.is_open());
    const std::uint64_t committed = 0 - sizeof(MappedLogFileHeader);
    f.seekp(offsetof(MappedLogFileHeader, committed_bytes));
    f.write(reinterpret_cast<const char*>(&committed), sizeof(committed));
  }
  try {
    const ShardedReplay replay(dir.path());
    FAIL() << "a committed length past the file must be rejected";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find(
                  "shorter than its committed length"),
              std::string::npos)
        << e.what();
  }
}

TEST(ShardedReplay, SingleThreadCaptureDecodesAsOneShardOnAnyPool) {
  // Only worker 0's share of a one-thread capture is non-empty, so a pool
  // of any width reads exactly what the one-worker constructor does.
  const TempPath dir("replay_test_one_thread");
  {
    MappedLog log(dir.path(), 1);
    for (std::uint64_t i = 0; i < 32; ++i) {
      log.on_read(0, kFarBase + i * 4096, 64);
      log.on_compute(0, 1.0);
    }
    log.on_dma(0, kNearBase, kFarBase, 256);
    log.on_barrier(0, 0);
    log.close();
  }
  const ShardedReplay serial(dir.path());
  for (const std::size_t width : {1u, 2u, 4u}) {
    ThreadPool pool(width);
    const ShardedReplay pooled(dir.path(), pool);
    expect_streams_equal(serial, pooled);
    expect_logs_identical(serial, pooled);
    EXPECT_EQ(serial.stats().ops, pooled.stats().ops) << "pool " << width;
  }
}

TEST(ShardedReplay, LowestCorruptThreadIsReportedOnEveryPoolWidth) {
  // Threads 1 and 3 of a four-thread capture carry a bad magic. Whichever
  // shard finishes first, the decode must name thread 1: each shard stops
  // at its first bad log, and the pool rethrows the lowest shard's error.
  const TempPath dir("replay_test_two_corrupt");
  {
    MappedLog log(dir.path(), 4);
    for (std::size_t t = 0; t < 4; ++t) {
      log.on_read(t, kFarBase + t * 4096, 64);
      log.on_barrier(t, 0);
    }
    log.close();
  }
  for (const std::size_t t : {1u, 3u}) {
    std::fstream f(mapped_log_file_path(dir.path(), t),
                   std::ios::binary | std::ios::in | std::ios::out);
    ASSERT_TRUE(f.is_open());
    f.seekp(offsetof(MappedLogFileHeader, magic));
    f.write("XXXX", 4);
  }
  for (const std::size_t width : {1u, 2u, 4u}) {
    ThreadPool pool(width);
    try {
      const ShardedReplay replay(dir.path(), pool);
      FAIL() << "a corrupt capture must not decode (pool " << width << ")";
    } catch (const std::invalid_argument& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("bad magic"), std::string::npos) << what;
      EXPECT_NE(what.find(mapped_log_file_path(dir.path(), 1)),
                std::string::npos)
          << "pool " << width << ": " << what;
    }
  }
}

TEST(ShardedReplay, WideMappedSortDecodesOnTheHostsCpusAndMatchesRam) {
  // A 16-core mapped capture, read back on pools narrower than its thread
  // count, holds the in-RAM capture's bytes and simulates exactly what the
  // in-RAM capture does.
  const TempPath dir("replay_test_wide_mapped");
  const analysis::MappedSimulatedSort mapped = analysis::simulate_sort_mapped(
      sim::SystemConfig::scaled(4.0, 16), 4.0, 1 << 14, 256 * KiB,
      sort::Algorithm::NMsort, 29, dir.path());
  const analysis::SimulatedSort ram = analysis::simulate_sort(
      sim::SystemConfig::scaled(4.0, 16), 4.0, 1 << 14, 256 * KiB,
      sort::Algorithm::NMsort, 29);
  ASSERT_TRUE(mapped.counting.verified);
  EXPECT_EQ(mapped.report.counters(), ram.report.counters());

  const analysis::CaptureRun cap = analysis::capture_sort_trace(
      analysis::scaled_counting_config(4.0, 16, 256 * KiB),
      sort::Algorithm::NMsort, 1 << 14, 29);
  for (const std::size_t width : {1u, 2u, 4u}) {
    ThreadPool pool(width);
    const ShardedReplay replay(dir.path(), pool);
    expect_streams_equal(cap.trace, replay);
    expect_logs_identical(cap.trace, replay);
    EXPECT_EQ(replay.stats().ops, mapped.replay.ops) << "pool " << width;
  }
}

TEST(MappedLog, TeedSortWritesTheRamBytes) {
  // One NMsort run teed to both sinks: each thread's mapped log holds
  // exactly the bytes the TraceBuffer holds, before any replay is involved.
  const TempPath dir("replay_test_teed_sort");
  const TwoLevelConfig cfg = analysis::scaled_counting_config(4.0, 4, 256 * KiB);
  TraceBuffer tb(cfg.threads);
  {
    MappedLog log(dir.path(), cfg.threads, /*chunk_bytes=*/4096);
    TeeSink tee(tb, log);
    Machine m(cfg, &tee);
    const std::vector<std::uint64_t> keys = random_keys(1 << 15, 31);
    std::vector<std::uint64_t> out(keys.size());
    sort::nm_sort_into(m, std::span<const std::uint64_t>(keys),
                       std::span<std::uint64_t>(out), sort::NMSortOptions{});
    m.end_phase();
    log.close();
    EXPECT_EQ(log.stats().encoded_bytes, tb.bytes());
    EXPECT_EQ(log.stats().ops, tb.summary().total_ops());
  }
  expect_logs_identical(tb, ShardedReplay(dir.path()));
}

TEST(MappedLog, ShrunkTailLeavesNoStaleBytes) {
  // The byte-swapped 1.0 takes a three-byte varint and the merged 3.0 a
  // two-byte one. Before close() the file still holds the mapping's bytes,
  // as a crash would leave them: the byte the old tail ended on is zero,
  // like unwritten chunk slack.
  const TempPath dir("replay_test_shrunk_tail");
  MappedLog log(dir.path(), 1);
  log.on_compute(0, 1.0);
  log.on_compute(0, 2.0);
  std::ifstream f(mapped_log_file_path(dir.path(), 0), std::ios::binary);
  std::vector<char> bytes(sizeof(MappedLogFileHeader) + 4);
  ASSERT_TRUE(f.read(bytes.data(), static_cast<std::streamsize>(bytes.size())));
  EXPECT_EQ(log.stats().encoded_bytes, 3u);
  EXPECT_EQ(bytes[sizeof(MappedLogFileHeader) + 3], 0);
  log.close();
}

TEST(MappedLog, AppendAfterCloseThrows) {
  const TempPath dir("replay_test_closed");
  MappedLog log(dir.path(), 1);
  log.on_read(0, kFarBase, 64);
  log.close();
  EXPECT_TRUE(log.closed());
  EXPECT_THROW(log.on_read(0, kFarBase, 64), std::logic_error);
  log.close();  // idempotent
}

}  // namespace
}  // namespace tlm::trace
