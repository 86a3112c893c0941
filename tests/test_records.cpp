// The sorts are templates: verify they work on non-u64 element types — a
// 16-byte key/payload record (the database-style use the intro motivates)
// and 32-bit keys — with the traffic accounts scaling by element size.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/rng.hpp"
#include "scratchpad/machine.hpp"
#include "sort/sort.hpp"
#include "trace/capture.hpp"

namespace tlm::sort {
namespace {

struct Record {
  std::uint64_t key;
  std::uint64_t payload;
  bool operator==(const Record&) const = default;
};

struct ByKey {
  bool operator()(const Record& a, const Record& b) const {
    return a.key < b.key;
  }
};

TwoLevelConfig rec_config() {
  TwoLevelConfig cfg = test_config(4.0);
  cfg.near_capacity = 2 * MiB;
  cfg.cache_bytes = 64 * KiB;
  cfg.threads = 4;
  return cfg;
}

std::vector<Record> make_records(std::size_t n, std::uint64_t seed) {
  Xoshiro256 rng(seed);
  std::vector<Record> v(n);
  for (std::size_t i = 0; i < n; ++i)
    v[i] = Record{rng.below(1000), i};  // many duplicate keys
  return v;
}

TEST(RecordSort, NmSortCarriesPayloads) {
  Machine m(rec_config());
  auto recs = make_records(120'000, 1);
  std::vector<Record> out(recs.size());
  nm_sort_into(m, std::span<const Record>(recs), std::span<Record>(out), {},
               ByKey{});
  EXPECT_TRUE(std::is_sorted(out.begin(), out.end(), ByKey{}));
  // Payload multiset preserved: every payload appears exactly once.
  std::vector<std::uint64_t> payloads(out.size());
  for (std::size_t i = 0; i < out.size(); ++i) payloads[i] = out[i].payload;
  std::sort(payloads.begin(), payloads.end());
  for (std::size_t i = 0; i < payloads.size(); ++i)
    ASSERT_EQ(payloads[i], i);
}

TEST(RecordSort, BaselineCarriesPayloads) {
  Machine m(rec_config());
  auto recs = make_records(100'000, 2);
  auto expect = recs;
  std::stable_sort(expect.begin(), expect.end(), ByKey{});
  gnu_like_sort(m, std::span<Record>(recs), ByKey{});
  EXPECT_TRUE(std::is_sorted(recs.begin(), recs.end(), ByKey{}));
}

TEST(RecordSort, SequentialScratchpadSortOnRecords) {
  Machine m(rec_config());
  auto recs = make_records(150'000, 3);
  scratchpad_sort(m, std::span<Record>(recs), {}, ByKey{});
  EXPECT_TRUE(std::is_sorted(recs.begin(), recs.end(), ByKey{}));
}

TEST(RecordSort, TrafficScalesWithElementSize) {
  // Same element count, 2x the element size -> ~2x the far bytes. n is
  // large enough that both element sizes are in the multi-chunk regime
  // (otherwise the smaller type takes the single-chunk fast path and the
  // pass counts differ).
  const std::size_t n = 300'000;
  Machine m64(rec_config());
  auto keys = random_keys(n, 4);
  std::vector<std::uint64_t> out64(n);
  nm_sort_into(m64, std::span<const std::uint64_t>(keys),
               std::span<std::uint64_t>(out64));
  m64.end_phase();

  Machine m128(rec_config());
  auto recs = make_records(n, 4);
  std::vector<Record> out128(n);
  nm_sort_into(m128, std::span<const Record>(recs),
               std::span<Record>(out128), {}, ByKey{});
  m128.end_phase();

  const double ratio =
      static_cast<double>(m128.stats().total.far_bytes()) /
      static_cast<double>(m64.stats().total.far_bytes());
  EXPECT_GT(ratio, 1.7);
  EXPECT_LT(ratio, 2.3);
}

TEST(RecordSort, ThirtyTwoBitKeys) {
  Machine m(rec_config());
  Xoshiro256 rng(5);
  std::vector<std::uint32_t> v(200'000);
  for (auto& x : v) x = static_cast<std::uint32_t>(rng.next());
  auto expect = v;
  std::sort(expect.begin(), expect.end());
  std::vector<std::uint32_t> out(v.size());
  nm_sort_into(m, std::span<const std::uint32_t>(v),
               std::span<std::uint32_t>(out));
  EXPECT_EQ(out, expect);
}

TEST(RecordSort, TraceCaptureWorksForRecords) {
  TwoLevelConfig cfg = rec_config();
  trace::TraceBuffer tb(cfg.threads);
  Machine m(cfg, &tb);
  auto recs = make_records(60'000, 6);
  std::vector<Record> out(recs.size());
  nm_sort_into(m, std::span<const Record>(recs), std::span<Record>(out), {},
               ByKey{});
  m.end_phase();
  EXPECT_TRUE(std::is_sorted(out.begin(), out.end(), ByKey{}));
  const auto sum = tb.summary();
  EXPECT_EQ(sum.read_bytes, m.stats().total.far_read_bytes() +
                                m.stats().total.near_read_bytes());
}

}  // namespace
}  // namespace tlm::sort
