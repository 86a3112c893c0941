// Random pivot sampling (§III-A): select Θ(M/B) elements of the input,
// move them into the scratchpad, and sort them there. The sorted sample
// defines the bucket boundaries for both the sequential scratchpad sort and
// NMsort. Also here: the bucketizing geometry the §III and §IV-C sorts
// share, and the parallel bucket-bound sweep of a sorted group.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <span>
#include <vector>

#include "common/rng.hpp"
#include "scratchpad/machine.hpp"
#include "sort/runs.hpp"

namespace tlm::sort {

// Samples `count` pivots (with replacement) from far-resident `data` into a
// freshly allocated near array (far under near-memory pressure — the
// sample's ordering is residency-independent), sorts them there, and
// returns the span. Caller frees with the space-inferred
// m.free_array(pivots). The gathers are split
// across all threads (§IV-C: "we can randomly choose the elements of X and
// move them into the scratchpad in parallel"); each costs one far line read
// — the O(m) block transfers of Lemma 4. The pivot sort's compute is
// charged as a parallel sort's span.
template <typename T, typename Cmp = std::less<T>>
std::span<T> sample_pivots(Machine& m, std::span<const T> data,
                           std::size_t count, std::uint64_t seed,
                           Cmp cmp = {}) {
  TLM_REQUIRE(count >= 1 && !data.empty(), "cannot sample an empty input");
  std::span<T> pivots = m.alloc_array_near_or_far<T>(count);
  const std::uint64_t line = m.config().block_bytes;
  const Xoshiro256 root(seed);
  m.parallel_for(0, count, [&](std::size_t w, std::size_t lo,
                               std::size_t hi) {
    Xoshiro256 rng = root.fork(w);
    for (std::size_t i = lo; i < hi; ++i) {
      const std::uint64_t idx = rng.below(data.size());
      m.stream_read(w, data.data() + idx,
                    std::min<std::uint64_t>(line, sizeof(T)));
      pivots[i] = data[idx];
    }
    m.stream_write(w, pivots.data() + lo, (hi - lo) * sizeof(T));
  });
  std::sort(pivots.begin(), pivots.end(), cmp);
  m.compute(0, static_cast<double>(count) *
                   (std::log2(static_cast<double>(count) + 2) + 1) /
                   static_cast<double>(m.threads()));
  return pivots;
}

namespace detail {

// Elements of T the §III and §IV-C sorts stage at once: half the usable
// scratchpad (the other half is the inner sort's working buffer), at least
// 1024.
template <typename T>
std::uint64_t fit_elems(const TwoLevelConfig& cfg) {
  return std::max<std::uint64_t>(1024, cfg.usable_near() / sizeof(T) / 2);
}

// Pivots per bucketizing round over `n` elements: `requested`, or when 0
// Θ(M/B) capped at fit/4 and 1024 (any m >= (N/M)^(1/rounds) keeps the
// recursion at Lemma 5's depth, so 1024 is plenty for the N/M ratios a real
// node sees); always at least one and at most n/2 + 1.
inline std::size_t pivot_count(const TwoLevelConfig& cfg,
                               std::uint64_t fit_elems, std::uint64_t n,
                               std::size_t requested) {
  const std::size_t s =
      requested ? requested
                : static_cast<std::size_t>(std::min<std::uint64_t>(
                      {cfg.near_capacity / cfg.block_bytes, fit_elems / 4,
                       1024}));
  return static_cast<std::size_t>(
      std::min<std::uint64_t>(std::max<std::size_t>(s, 1), n / 2 + 1));
}

// Elements per bucketizing group: M − Θ(m), i.e. the staging fit less room
// for the `s` pivots, at least 1024.
inline std::uint64_t group_elems(std::uint64_t fit_elems, std::size_t s) {
  return std::max<std::uint64_t>(
      1024, fit_elems - std::min<std::uint64_t>(fit_elems / 2, 2 * s));
}

// Per-bucket totals over every group's bucket bounds (`pos[c]` holds group
// c's nb + 1 bounds).
inline std::vector<std::uint64_t> bucket_totals(
    const std::vector<std::vector<std::uint64_t>>& pos, std::size_t nb) {
  std::vector<std::uint64_t> tot(nb, 0);
  for (const std::vector<std::uint64_t>& row : pos)
    for (std::size_t i = 0; i < nb; ++i) tot[i] += row[i + 1] - row[i];
  return tot;
}

// Bucket bounds of the `len` sorted elements at `sorted` against the
// ascending `pivots`: row[0] = 0, row[i] = the lower bound of pivots[i − 1],
// row[pivots.size() + 1] = len. The pivots are split across all cores; each
// gallops forward from its previous hit, charging its probes.
template <typename T, typename Cmp>
void bucket_bounds(Machine& m, const T* sorted, std::uint64_t len,
                   std::span<const T> pivots, std::uint64_t* row, Cmp cmp) {
  const std::size_t nb = pivots.size() + 1;
  row[0] = 0;
  row[nb] = len;
  m.parallel_for(1, nb, [&](std::size_t w, std::size_t lo, std::size_t hi) {
    const T* prev = sorted;
    for (std::size_t i = lo; i < hi; ++i) {
      prev = charged_gallop_lower_bound(m, w, prev, sorted + len,
                                        pivots[i - 1], cmp);
      row[i] = static_cast<std::uint64_t>(prev - sorted);
    }
  });
}

}  // namespace detail

}  // namespace tlm::sort
