#include "common/sorted_check.hpp"

#include <algorithm>
#include <bit>
#include <cstddef>
#include <memory>
#include <span>

#include "common/assert.hpp"

namespace tlm {
namespace {

// Buckets of at most this many keys are insertion-sorted and compared.
constexpr std::size_t kSmall = 16;
// At most 2^14 buckets: a level's two counter arrays (128 KiB) stay in L2.
constexpr unsigned kMaxBucketBits = 14;

unsigned bucket_bits(std::size_t n) {
  return std::min(kMaxBucketBits, static_cast<unsigned>(std::bit_width(n)));
}

// Sorts `keys` by insertion: O(n + inversions).
void insertion_sort(std::span<std::uint64_t> keys) {
  for (std::size_t i = 1; i < keys.size(); ++i) {
    const std::uint64_t k = keys[i];
    std::size_t j = i;
    for (; j > 0 && keys[j - 1] > k; --j) keys[j] = keys[j - 1];
    keys[j] = k;
  }
}

bool small_equal(std::span<std::uint64_t> keys,
                 std::span<const std::uint64_t> sorted) {
  insertion_sort(keys);
  return std::equal(keys.begin(), keys.end(), sorted.begin());
}

// Whether `keys` (any order; permuted on return) holds the multiset that
// the ascending `sorted` of the same length holds. `spare` is scratch of
// that length; `counts` has room for 2 * 2^bucket_bits(keys.size()) + 1
// counters.
bool same_keys(std::span<std::uint64_t> keys,
               std::span<const std::uint64_t> sorted,
               std::span<std::uint64_t> spare,
               std::span<std::uint32_t> counts) {
  const std::size_t n = keys.size();
  if (n <= kSmall) return small_equal(keys, sorted);
  const std::uint64_t lo = sorted.front();
  const std::uint64_t range = sorted.back() - lo;
  if (range == 0)
    return std::all_of(keys.begin(), keys.end(),
                       [lo](std::uint64_t k) { return k == lo; });

  // Bucket b holds the keys whose (key - lo) has high bits b; the buckets
  // are ascending ranges, so each is one contiguous run of `sorted`,
  // [bound[b], bound[b + 1]).
  const unsigned width = std::bit_width(range);
  const unsigned bits = bucket_bits(n);
  const unsigned shift = width > bits ? width - bits : 0;
  auto bucket = [lo, shift](std::uint64_t k) { return (k - lo) >> shift; };
  const std::size_t buckets = (range >> shift) + 1;
  const std::span<std::uint32_t> bound = counts.first(buckets + 1);
  const std::span<std::uint32_t> next = counts.subspan(buckets + 1, buckets);
  std::fill(bound.begin(), bound.end(), 0);
  for (std::uint64_t s : sorted) ++bound[bucket(s)];
  std::uint32_t largest = 0, start = 0;
  std::size_t b = 0;
  for (; b < buckets; ++b) {
    const std::uint32_t count = bound[b];
    largest = std::max(largest, count);
    bound[b] = next[b] = start;
    start += count;
  }
  bound[buckets] = start;
  for (std::uint64_t k : keys) {
    if (k - lo > range) return false;  // outside [front, back]
    const std::size_t pos = next[bucket(k)]++;
    if (pos >= n) return false;
    spare[pos] = k;
  }
  // Each bucket must have drawn exactly its run's length of keys; then no
  // bucket spilled into a neighbour and spare[bound[b], bound[b + 1]) is
  // bucket b.
  if (!std::equal(next.begin(), next.end(), bound.begin() + 1)) return false;

  if (largest <= kSmall) {
    // No key moves past a smaller bucket's keys, so this costs at most
    // kSmall steps a key.
    insertion_sort(spare);
    return std::equal(spare.begin(), spare.end(), sorted.begin());
  }
  for (b = 0; b < buckets; ++b) {
    const std::size_t i = bound[b], m = bound[b + 1] - bound[b];
    if (m <= kSmall && !small_equal(spare.subspan(i, m), sorted.subspan(i, m)))
      return false;
  }
  // The large buckets split again on their own narrower range. `keys` is
  // free now and serves as their scratch, and `counts` holds their
  // counters, so their bounds come from walking `sorted`.
  for (std::size_t i = 0; i < n;) {
    const std::uint64_t c = bucket(sorted[i]);
    std::size_t j = i + 1;
    while (j < n && bucket(sorted[j]) == c) ++j;
    if (j - i > kSmall &&
        !same_keys(spare.subspan(i, j - i), sorted.subspan(i, j - i),
                   keys.subspan(i, j - i), counts))
      return false;
    i = j;
  }
  return true;
}

// A scratch buffer that only grows and is never filled on growth.
template <typename T>
class GrowOnly {
 public:
  std::span<T> first(std::size_t n) {
    if (n > capacity_) {
      buf_ = std::make_unique_for_overwrite<T[]>(n);
      capacity_ = n;
    }
    return {buf_.get(), n};
  }

 private:
  std::unique_ptr<T[]> buf_;
  std::size_t capacity_ = 0;
};

// Each thread keeps its scratch between checks: freed after every check,
// it was returned to the OS by the allocator and faulted in again by the
// next one.
struct Scratch {
  GrowOnly<std::uint64_t> keys, spare;
  GrowOnly<std::uint32_t> counts;
};

}  // namespace

bool is_sorted_permutation(std::span<const std::uint64_t> input,
                           std::span<const std::uint64_t> output) {
  if (input.size() != output.size()) return false;
  bool descent = false;  // no early exit: the loop vectorizes
  for (std::size_t i = 1; i < output.size(); ++i)
    descent |= output[i] < output[i - 1];
  if (descent) return false;
  TLM_REQUIRE(input.size() <= UINT32_MAX, "counters are 32-bit");
  const std::size_t n = input.size();
  const std::size_t counters = (std::size_t{2} << bucket_bits(n)) + 1;
  thread_local Scratch scratch;
  const std::span<std::uint64_t> keys = scratch.keys.first(n);
  std::copy(input.begin(), input.end(), keys.begin());
  return same_keys(keys, output, scratch.spare.first(n),
                   scratch.counts.first(counters));
}

}  // namespace tlm
