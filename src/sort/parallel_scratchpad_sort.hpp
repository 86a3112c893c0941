// The theoretical parallel scratchpad sort of §IV-C — the algorithm behind
// Theorem 10, kept distinct from the practical NMsort (§IV-D).
//
// It parallelizes the two subroutines of the sequential §III sort exactly
// as the paper does: "we ingest blocks into the scratchpad in parallel, and
// we sort within the scratchpad using a parallel external-memory sort"
// (the PEM role is played by the same parallel multiway mergesort). The
// bucket structure stays the eager §III one — buckets are materialized and
// recursed on — which is precisely what NMsort's metadata later avoids;
// having both lets the benches measure what each §IV refinement buys.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <span>
#include <vector>

#include "common/math.hpp"
#include "scratchpad/machine.hpp"
#include "sort/multiway_sort.hpp"
#include "sort/runs.hpp"
#include "sort/sample.hpp"

namespace tlm::sort {

struct ParallelScratchpadSortOptions {
  std::size_t sample_size = 0;  // pivots per round; 0 → min(M/B, 1024)
  MultiwaySortOptions inner;
  std::uint64_t seed = 0x9a5eedULL;
  std::size_t max_depth = 64;
};

namespace detail {

template <typename T, typename Cmp>
void psp_rec(Machine& m, std::span<T> seg,
             const ParallelScratchpadSortOptions& o, std::uint64_t fit_elems,
             std::size_t depth, Cmp cmp) {
  const std::uint64_t n = seg.size();
  if (n <= 1) return;

  if (n <= fit_elems) {
    // Base case: parallel ingest, parallel in-scratchpad sort (Theorem 8's
    // role), parallel write-back. Under near pressure the segment is
    // sorted in place in far memory instead.
    const auto buf = m.try_alloc_near<T>(n);
    if (!buf) {
      multiway_merge_sort(m, seg, o.inner, cmp);
      return;
    }
    parallel_copy(m, buf->data(), seg.data(), n);
    multiway_merge_sort(m, *buf, o.inner, cmp);
    parallel_copy(m, seg.data(), buf->data(), n);
    m.free_array(Space::Near, *buf);
    return;
  }
  if (depth >= o.max_depth) {
    multiway_merge_sort(m, seg, o.inner, cmp);
    return;
  }

  // Sample X in parallel (§IV-C: "we can randomly choose the elements of X
  // and move them into the scratchpad in parallel").
  const TwoLevelConfig& cfg = m.config();
  std::size_t s = o.sample_size
                      ? o.sample_size
                      : static_cast<std::size_t>(std::min<std::uint64_t>(
                            {cfg.near_capacity / cfg.block_bytes,
                             fit_elems / 4, 1024}));
  s = static_cast<std::size_t>(
      std::min<std::uint64_t>(std::max<std::size_t>(s, 1), n / 2 + 1));
  std::span<T> pivots =
      sample_pivots(m, 0, std::span<const T>(seg.data(), n), s,
                    o.seed + depth * 0x9e3779b9ULL, cmp);
  const std::size_t nb = s + 1;

  // Parallel bucketizing scans (Lemma 9): each group is ingested in
  // parallel, sorted with the parallel in-scratchpad sort, and its bucket
  // boundaries located with a parallel sweep over the pivots.
  const std::uint64_t chunk =
      std::max<std::uint64_t>(1024, fit_elems - std::min<std::uint64_t>(
                                                    fit_elems / 2, 2 * s));
  const std::uint64_t nchunks = ceil_div(n, chunk);
  std::vector<std::vector<std::uint64_t>> pos(
      static_cast<std::size_t>(nchunks));
  std::span<T> buf = m.alloc_array_near_or_far<T>(std::min(chunk, n));
  for (std::uint64_t c = 0; c < nchunks; ++c) {
    const std::uint64_t b = c * chunk;
    const std::uint64_t len = std::min(chunk, n - b);
    parallel_copy(m, buf.data(), seg.data() + b, len);
    std::span<T> group = buf.subspan(0, len);
    multiway_merge_sort(m, group, o.inner, cmp);
    auto& row = pos[static_cast<std::size_t>(c)];
    row.assign(nb + 1, 0);
    row[nb] = len;
    m.parallel_for(1, nb, [&](std::size_t w, std::size_t lo,
                              std::size_t hi) {
      const T* prev = group.data();
      for (std::size_t i = lo; i < hi; ++i) {
        prev = charged_gallop_lower_bound(m, w, prev, group.data() + len,
                                          pivots[i - 1], cmp);
        row[i] = static_cast<std::uint64_t>(prev - group.data());
      }
    });
    parallel_copy(m, seg.data() + b, buf.data(), len);
  }
  m.free_array(buf);
  m.free_array(pivots);

  // Materialize every bucket (the eager §III structure, gathered in
  // parallel across buckets), then recurse per bucket and write back.
  std::vector<std::uint64_t> tot(nb, 0);
  for (std::uint64_t c = 0; c < nchunks; ++c)
    for (std::size_t i = 0; i < nb; ++i)
      tot[i] += pos[static_cast<std::size_t>(c)][i + 1] -
                pos[static_cast<std::size_t>(c)][i];

  std::vector<std::span<T>> buckets(nb);
  for (std::size_t i = 0; i < nb; ++i)
    if (tot[i]) buckets[i] = m.alloc_array<T>(Space::Far, tot[i]);
  m.parallel_for(0, nb, [&](std::size_t w, std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) {
      if (!tot[i]) continue;
      std::uint64_t fill = 0;
      for (std::uint64_t c = 0; c < nchunks; ++c) {
        const auto& row = pos[static_cast<std::size_t>(c)];
        const std::uint64_t a = row[i], e = row[i + 1];
        if (a >= e) continue;
        m.copy(w, buckets[i].data() + fill, seg.data() + c * chunk + a,
               (e - a) * sizeof(T));
        fill += e - a;
      }
    }
  });

  std::uint64_t out_off = 0;
  for (std::size_t i = 0; i < nb; ++i) {
    if (!tot[i]) continue;
    if (tot[i] < n)
      psp_rec(m, buckets[i], o, fit_elems, depth + 1, cmp);
    else
      multiway_merge_sort(m, buckets[i], o.inner, cmp);
    parallel_copy(m, seg.data() + out_off, buckets[i].data(),
                  buckets[i].size());
    out_off += tot[i];
    m.free_array(Space::Far, buckets[i]);
  }
  TLM_CHECK(out_off == n, "parallel bucket gather lost elements");
}

}  // namespace detail

// Sorts far-resident `data` in place with the §IV-C parallel algorithm.
template <typename T, typename Cmp = std::less<T>>
void parallel_scratchpad_sort(Machine& m, std::span<T> data,
                              ParallelScratchpadSortOptions opt = {},
                              Cmp cmp = {}) {
  if (data.size() <= 1) return;
  m.adopt_far(data.data(), data.size_bytes());
  const std::uint64_t reserve = m.config().near_capacity / 16;
  const std::uint64_t usable = m.config().near_capacity - reserve;
  const std::uint64_t fit =
      std::max<std::uint64_t>(1024, usable / sizeof(T) / 2);
  m.begin_phase("psp.sort");
  detail::psp_rec(m, data, opt, fit, 0, cmp);
  m.end_phase();
}

}  // namespace tlm::sort
