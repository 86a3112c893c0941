// Tests for trace serialization: round trips, corruption detection, and
// replay equivalence (a loaded trace must produce the identical simulation).
#include <gtest/gtest.h>

#include <cstring>
#include <sstream>
#include <string>

#include "analysis/experiment.hpp"
#include "sim/system.hpp"
#include "trace/serialize.hpp"

namespace tlm::trace {
namespace {

TraceBuffer sample_trace() {
  TraceBuffer tb(3);
  tb.on_read(0, kFarBase, 4096);
  tb.on_compute(0, 123.5);
  tb.on_barrier(0, 0);
  tb.on_write(1, kNearBase + 64, 128);
  tb.on_barrier(1, 0);
  tb.on_compute(2, 7.0);
  tb.on_barrier(2, 0);
  return tb;
}

// Appends `op`'s v3 record to `buf`.
void append(std::vector<std::uint8_t>& buf, wire::Codec& c, const TraceOp& op) {
  std::uint8_t rec[wire::kMaxRecordBytes];
  const std::size_t n = wire::encode_op(rec, c, op);
  buf.insert(buf.end(), rec, rec + n);
}

bool equal(const TraceBuffer& a, const TraceBuffer& b) {
  if (a.threads() != b.threads()) return false;
  for (std::size_t t = 0; t < a.threads(); ++t) {
    const auto& x = a.stream(t);
    const auto& y = b.stream(t);
    if (x.size() != y.size()) return false;
    for (std::size_t i = 0; i < x.size(); ++i)
      if (x[i].kind != y[i].kind || x[i].addr != y[i].addr ||
          x[i].bytes != y[i].bytes || x[i].ops != y[i].ops ||
          x[i].src != y[i].src)
        return false;
  }
  return true;
}

TEST(TraceSerialize, RoundTripPreservesStreams) {
  const TraceBuffer tb = sample_trace();
  std::stringstream ss;
  save_trace(tb, ss);
  const TraceBuffer back = load_trace(ss);
  EXPECT_TRUE(equal(tb, back));
}

TEST(TraceSerialize, EmptyStreamsSurvive) {
  TraceBuffer tb(4);
  tb.on_read(2, kFarBase, 64);  // threads 0,1,3 stay empty
  std::stringstream ss;
  save_trace(tb, ss);
  const TraceBuffer back = load_trace(ss);
  EXPECT_TRUE(equal(tb, back));
}

TEST(TraceSerialize, BadMagicRejected) {
  std::stringstream ss;
  ss << "NOTATRACEFILE_____________";
  EXPECT_THROW(load_trace(ss), std::invalid_argument);

  // A good magic with any version but v3 (here v2, raw POD) is rejected.
  std::stringstream v3;
  save_trace(sample_trace(), v3);
  std::string bytes = v3.str();
  const std::uint32_t v2 = 2;
  std::memcpy(bytes.data() + 8, &v2, sizeof(v2));  // after the 8-byte magic
  std::stringstream old(bytes);
  try {
    (void)load_trace(old);
    FAIL() << "a v2 header must not load";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("unsupported trace version"),
              std::string::npos)
        << e.what();
  }
}

TEST(TraceSerialize, TruncationRejected) {
  const TraceBuffer tb = sample_trace();
  std::stringstream ss;
  save_trace(tb, ss);
  const std::string full = ss.str();
  std::stringstream cut(full.substr(0, full.size() / 2));
  EXPECT_THROW(load_trace(cut), std::invalid_argument);
}

TEST(TraceSerialize, V2AndV3LoadIdenticalStreams) {
  // A real captured trace must decode to the same ops it was saved from:
  // v3 is a wire change, not a semantic one.
  const TwoLevelConfig cfg =
      analysis::scaled_counting_config(4.0, 4, 256 * KiB);
  const analysis::CaptureRun cap = analysis::capture_sort_trace(
      cfg, sort::Algorithm::NMsort, 1 << 14, 33);
  std::stringstream varint;
  save_trace(cap.trace, varint);
  EXPECT_TRUE(equal(cap.trace, load_trace(varint)));
}

TEST(TraceSerialize, ZeroLengthOpsSurvive) {
  TraceBuffer tb(1);
  tb.on_read(0, kFarBase, 0);            // zero-length burst
  tb.on_write(0, kNearBase + 4096, 0);   // at a gap
  tb.on_dma(0, kNearBase, kFarBase + 1 * MiB, 0);
  tb.on_barrier(0, 0);
  std::stringstream ss;
  save_trace(tb, ss);
  EXPECT_TRUE(equal(tb, load_trace(ss)));
}

TEST(TraceSerialize, MaxU64AddressDeltasRoundTrip) {
  // Deltas are wrapping-u64 zigzag; the extreme jumps — 0 -> ~0, back to 0,
  // and the sign-bit delta 2^63 — must each round-trip exactly.
  wire::Codec enc, dec;
  std::vector<std::uint8_t> buf;
  const TraceOp ops[] = {
      {OpKind::Read, 0, 1, 0, 0},
      {OpKind::Read, ~0ULL, 0, 0, 0},          // forward jump of ~2^64
      {OpKind::Write, 0, 0, 0, 0},             // wraps back down
      {OpKind::Read, 1ULL << 63, 64, 0, 0},    // the zigzag sign boundary
      {OpKind::DmaCopy, ~0ULL - 63, 64, 0, ~0ULL - 63},  // dst+bytes wraps
  };
  for (const TraceOp& op : ops) append(buf, enc, op);
  const std::uint8_t* p = buf.data();
  const std::uint8_t* end = p + buf.size();
  for (const TraceOp& want : ops) {
    TraceOp got{};
    ASSERT_TRUE(wire::decode_op(&p, end, dec, &got));
    EXPECT_EQ(got.kind, want.kind);
    EXPECT_EQ(got.addr, want.addr);
    EXPECT_EQ(got.bytes, want.bytes);
    EXPECT_EQ(got.src, want.src);
  }
  EXPECT_EQ(p, end);
}

TEST(TraceSerialize, TruncatedRecordSignalsWithoutConsuming) {
  wire::Codec enc;
  std::vector<std::uint8_t> buf;
  append(buf, enc, TraceOp{OpKind::Read, kFarBase, 4096, 0, 0});
  for (std::size_t cut = 0; cut < buf.size(); ++cut) {
    wire::Codec dec;
    const std::uint8_t* p = buf.data();
    TraceOp op{};
    EXPECT_FALSE(wire::decode_op(&p, p + cut, dec, &op)) << "cut " << cut;
    EXPECT_EQ(p, buf.data()) << "cut " << cut;  // *p must not advance
  }
}

TEST(TraceSerialize, OverlongVarintRejected) {
  // A Barrier tag followed by an id no u64 varint can encode: corrupt, not
  // merely truncated, so the decoder throws instead of signaling recovery.
  // The 10th byte holds only bit 63, so a 10th byte above 1 carries bits
  // past 64.
  const std::uint8_t tag = static_cast<std::uint8_t>(OpKind::Barrier);
  std::vector<std::uint8_t> eleven_continuations(11, 0x80);
  std::vector<std::uint8_t> tenth_byte_two(9, 0x80);
  tenth_byte_two.push_back(0x02);
  std::vector<std::uint8_t> tenth_byte_7f(9, 0xff);
  tenth_byte_7f.push_back(0x7f);
  for (auto buf : {eleven_continuations, tenth_byte_two, tenth_byte_7f}) {
    buf.insert(buf.begin(), tag);
    const std::uint8_t* p = buf.data();
    wire::Codec c;
    TraceOp op{};
    EXPECT_THROW(wire::decode_op(&p, p + buf.size(), c, &op),
                 std::invalid_argument)
        << "decoded id " << op.addr;
  }
}

TEST(TraceSerialize, LoadedTraceReplaysIdentically) {
  // Capture a real NMsort trace, replay the original and a save/load copy:
  // the simulations must agree event for event.
  const TwoLevelConfig cfg =
      analysis::scaled_counting_config(4.0, 4, 256 * KiB);
  analysis::CaptureRun cap =
      analysis::capture_sort_trace(cfg, sort::Algorithm::NMsort,
                                   1 << 15, 21);
  std::stringstream ss;
  save_trace(cap.trace, ss);
  const TraceBuffer loaded = load_trace(ss);

  sim::SystemConfig sys = sim::SystemConfig::scaled(4.0, 4);
  sim::System a(sys, cap.trace);
  sim::System b(sys, loaded);
  const sim::SimReport ra = a.run();
  const sim::SimReport rb = b.run();
  EXPECT_EQ(ra.seconds, rb.seconds);
  EXPECT_EQ(ra.events, rb.events);
  EXPECT_EQ(ra.far.accesses(), rb.far.accesses());
  EXPECT_EQ(ra.near.accesses(), rb.near.accesses());
}

}  // namespace
}  // namespace tlm::trace
