// Sorted-run plumbing shared by the multiway mergesort baseline, NMsort's
// Phase 2, and the sequential scratchpad sort: run descriptors, instrumented
// binary search, and value-based splitter selection for parallel merging.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <span>
#include <vector>

#include "common/assert.hpp"
#include "scratchpad/machine.hpp"

namespace tlm::sort {

template <typename T>
struct Run {
  const T* begin = nullptr;
  const T* end = nullptr;

  std::uint64_t size() const {
    return static_cast<std::uint64_t>(end - begin);
  }
  bool empty() const { return begin == end; }
};

template <typename T>
std::uint64_t total_size(const std::vector<Run<T>>& runs) {
  std::uint64_t n = 0;
  for (const auto& r : runs) n += r.size();
  return n;
}

// Binary search (first element not less than `value`) that charges one
// line-sized read per probed element, so splitter computation shows up in
// the traffic accounts at its true (logarithmic) cost.
template <typename T, typename Cmp>
const T* charged_lower_bound(Machine& m, std::size_t thread, const T* first,
                             const T* last, const T& value, Cmp cmp) {
  const std::uint64_t line = m.config().block_bytes;
  std::uint64_t len = static_cast<std::uint64_t>(last - first);
  while (len > 0) {
    const std::uint64_t half = len / 2;
    const T* mid = first + half;
    m.stream_read(thread, mid, std::min<std::uint64_t>(line, sizeof(T)));
    if (cmp(*mid, value)) {
      first = mid + 1;
      len -= half + 1;
    } else {
      len = half;
    }
  }
  return first;
}

// Galloping variant for monotone query sequences: when consecutive pivots
// are nondecreasing, searching forward from the previous hit costs
// O(lg gap) probes instead of O(lg n) — this is what keeps NMsort's
// BucketPos computation at a fraction of a percent of the chunk traffic.
template <typename T, typename Cmp>
const T* charged_gallop_lower_bound(Machine& m, std::size_t thread,
                                    const T* from, const T* end,
                                    const T& value, Cmp cmp) {
  const std::uint64_t line = m.config().block_bytes;
  const std::uint64_t n = static_cast<std::uint64_t>(end - from);
  std::uint64_t hi = 1;
  while (hi <= n) {
    m.stream_read(thread, from + hi - 1,
                  std::min<std::uint64_t>(line, sizeof(T)));
    if (cmp(from[hi - 1], value))
      hi *= 2;
    else
      break;
  }
  const std::uint64_t lo = hi / 2;  // from[lo-1] < value (or lo == 0)
  hi = std::min(hi, n);
  return charged_lower_bound(m, thread, from + lo, from + hi, value, cmp);
}

// Chooses `parts - 1` splitter values by gathering a strided sample from
// every run, sorting it, and picking even quantiles. Any value-based split
// yields correct independent merges; sampling only affects load balance,
// which is excellent for the random keys the paper sorts. Matches the
// splitting role of MCSTL's multiseq selection at a fraction of the code.
template <typename T, typename Cmp>
std::vector<T> sample_splitters(Machine& m, std::size_t thread,
                                const std::vector<Run<T>>& runs,
                                std::size_t parts, Cmp cmp,
                                std::size_t oversample = 16) {
  TLM_REQUIRE(parts >= 1, "need at least one part");
  std::vector<T> sample;
  if (parts == 1) return sample;
  const std::uint64_t line = m.config().block_bytes;
  sample.reserve(runs.size() * oversample);
  for (const auto& r : runs) {
    const std::uint64_t n = r.size();
    if (n == 0) continue;
    const std::size_t take =
        static_cast<std::size_t>(std::min<std::uint64_t>(oversample, n));
    for (std::size_t i = 0; i < take; ++i) {
      const std::uint64_t idx =
          (2 * static_cast<std::uint64_t>(i) + 1) * n / (2 * take);
      m.stream_read(thread, r.begin + idx,
                    std::min<std::uint64_t>(line, sizeof(T)));
      sample.push_back(r.begin[idx]);
    }
  }
  std::sort(sample.begin(), sample.end(), cmp);
  m.compute(thread, static_cast<double>(sample.size()) *
                        std::log2(static_cast<double>(sample.size()) + 2));
  std::vector<T> splitters;
  splitters.reserve(parts - 1);
  if (sample.empty()) return splitters;
  for (std::size_t j = 1; j < parts; ++j)
    splitters.push_back(sample[j * sample.size() / parts]);
  return splitters;
}

// Positions of `splitter` within every run (lower_bound semantics: elements
// strictly less than the splitter fall left). Charged probes.
template <typename T, typename Cmp>
std::vector<const T*> split_runs_by_value(Machine& m, std::size_t thread,
                                          const std::vector<Run<T>>& runs,
                                          const T& splitter, Cmp cmp) {
  std::vector<const T*> cut;
  cut.reserve(runs.size());
  for (const auto& r : runs)
    cut.push_back(charged_lower_bound(m, thread, r.begin, r.end, splitter, cmp));
  return cut;
}

}  // namespace tlm::sort
