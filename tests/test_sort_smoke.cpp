// Smoke tests: every sorting entry point sorts correctly on a small machine.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>

#include "common/rng.hpp"
#include "scratchpad/machine.hpp"
#include "sort/sort.hpp"

namespace tlm {
namespace {

using sort::NMSortOptions;
using sort::ScratchpadSortOptions;

TwoLevelConfig small_config() {
  TwoLevelConfig cfg = test_config(4.0);
  cfg.near_capacity = 2 * MiB;
  cfg.cache_bytes = 64 * KiB;
  cfg.threads = 4;
  return cfg;
}

TEST(SortSmoke, BaselineSortsRandomKeys) {
  Machine m(small_config());
  auto keys = random_keys(100'000, 1);
  m.adopt_far(keys.data(), keys.size() * 8);
  sort::gnu_like_sort(m, std::span<std::uint64_t>(keys));
  EXPECT_TRUE(std::is_sorted(keys.begin(), keys.end()));
}

TEST(SortSmoke, NmSortIntoSortsRandomKeys) {
  Machine m(small_config());
  auto keys = random_keys(300'000, 2);
  std::vector<std::uint64_t> out(keys.size());
  sort::nm_sort_into(m, std::span<const std::uint64_t>(keys),
                     std::span<std::uint64_t>(out));
  std::sort(keys.begin(), keys.end());
  EXPECT_EQ(out, keys);
}

TEST(SortSmoke, NmSortIntoSingleChunk) {
  Machine m(small_config());
  auto keys = random_keys(50'000, 3);
  std::vector<std::uint64_t> out(keys.size());
  sort::nm_sort_into(m, std::span<const std::uint64_t>(keys),
                     std::span<std::uint64_t>(out));
  std::sort(keys.begin(), keys.end());
  EXPECT_EQ(out, keys);
}

TEST(SortSmoke, ScratchpadSortRecursive) {
  Machine m(small_config());
  auto keys = random_keys(400'000, 4);
  auto expect = keys;
  std::sort(expect.begin(), expect.end());
  sort::scratchpad_sort(m, std::span<std::uint64_t>(keys));
  EXPECT_EQ(keys, expect);
}

TEST(SortSmoke, TrafficIsAccounted) {
  Machine m(small_config());
  auto keys = random_keys(200'000, 5);
  std::vector<std::uint64_t> out(keys.size());
  sort::nm_sort_into(m, std::span<const std::uint64_t>(keys),
                     std::span<std::uint64_t>(out));
  const MachineStats st = m.stats();
  EXPECT_TRUE(std::is_sorted(out.begin(), out.end()));
  // At minimum the input must be read and the output written once.
  EXPECT_GE(st.total.far_read_bytes(), keys.size() * 8);
  EXPECT_GE(st.total.far_write_bytes(), keys.size() * 8);
  EXPECT_GT(st.total.near_bytes(), 0u);
  EXPECT_GT(st.total.seconds(), 0.0);
}

}  // namespace
}  // namespace tlm
