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
  std::uint64_t seed = 0x9a5eedULL;
};

namespace detail {

// Recursion guard: past it a segment is sorted directly (multiway).
inline constexpr std::size_t kPspMaxDepth = 64;

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
      multiway_merge_sort(m, seg, cmp);
      return;
    }
    m.parallel_copy(buf->data(), seg.data(), n);
    multiway_merge_sort(m, *buf, cmp);
    m.parallel_copy(seg.data(), buf->data(), n);
    m.free_array(Space::Near, *buf);
    return;
  }
  if (depth >= kPspMaxDepth) {
    multiway_merge_sort(m, seg, cmp);
    return;
  }

  // Sample X in parallel (§IV-C: "we can randomly choose the elements of X
  // and move them into the scratchpad in parallel").
  const std::size_t s = pivot_count(m.config(), fit_elems, n, 0);
  std::span<T> pivots =
      sample_pivots(m, std::span<const T>(seg.data(), n), s,
                    o.seed + depth * 0x9e3779b9ULL, cmp);
  const std::size_t nb = s + 1;

  // Parallel bucketizing scans (Lemma 9): each group is ingested in
  // parallel, sorted with the parallel in-scratchpad sort, and its bucket
  // boundaries located with a parallel sweep over the pivots.
  const std::uint64_t chunk = group_elems(fit_elems, s);
  const std::uint64_t nchunks = ceil_div(n, chunk);
  std::vector<std::vector<std::uint64_t>> pos(
      static_cast<std::size_t>(nchunks));
  std::span<T> buf = m.alloc_array_near_or_far<T>(std::min(chunk, n));
  for (std::uint64_t c = 0; c < nchunks; ++c) {
    const std::uint64_t b = c * chunk;
    const std::uint64_t len = std::min(chunk, n - b);
    m.parallel_copy(buf.data(), seg.data() + b, len);
    std::span<T> group = buf.subspan(0, len);
    multiway_merge_sort(m, group, cmp);
    auto& row = pos[static_cast<std::size_t>(c)];
    row.resize(nb + 1);
    bucket_bounds(m, group.data(), len,
                  std::span<const T>(pivots), row.data(), cmp);
    m.parallel_copy(seg.data() + b, buf.data(), len);
  }
  m.free_array(buf);
  m.free_array(pivots);

  // Materialize every bucket (the eager §III structure, gathered in
  // parallel across buckets), then recurse per bucket and write back.
  const std::vector<std::uint64_t> tot = bucket_totals(pos, nb);

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
      multiway_merge_sort(m, buckets[i], cmp);
    m.parallel_copy(seg.data() + out_off, buckets[i].data(),
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
  m.begin_phase("psp.sort");
  detail::psp_rec(m, data, opt, detail::fit_elems<T>(m.config()), 0, cmp);
  m.end_phase();
}

}  // namespace tlm::sort
