// The sequential randomized scratchpad sort of §III.
//
// Recursively refines the input into buckets: sample Θ(M/B) pivots, sort
// them in the scratchpad, stream the input through the scratchpad in
// (M − Θ(m))-sized groups, sort each group against the pivots, and emit the
// bucketized pieces; recurse per bucket until a bucket fits in the
// scratchpad (Lemma 5 shows O(log_m(N/M)) rounds suffice w.h.p.).
//
// The in-scratchpad sort is either multiway mergesort (Theorem 6's optimal
// choice) or quicksort (Corollary 7: optimal only once ρ = Ω(lg(M/Z))) —
// selectable for the ablation bench.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <span>
#include <vector>

#include "common/math.hpp"
#include "scratchpad/machine.hpp"
#include "scratchpad/stager.hpp"
#include "sort/multiway_sort.hpp"
#include "sort/runs.hpp"
#include "sort/sample.hpp"

namespace tlm::sort {

struct ScratchpadSortOptions {
  std::size_t sample_size = 0;  // pivots per round; 0 → Θ(M/B)
  bool quicksort_inner = false;  // Corollary 7 variant
  std::uint64_t seed = 0x715eedULL;
  std::size_t max_depth = 64;  // safety valve; falls back to external sort
};

// What the recursion actually did — the observables of Lemma 5's analysis
// (recursion depth is the number of bucketizing rounds any element passes
// through; w.h.p. O(log_m(N/M))).
struct ScratchpadSortReport {
  std::size_t max_depth = 0;        // deepest recursion level reached
  std::uint64_t bucketizing_scans = 0;  // chunks sorted against a sample
  std::uint64_t buckets_created = 0;
  std::uint64_t fallbacks = 0;      // max_depth safety-valve activations
};

namespace detail {

// Charged model of quicksort inside the scratchpad: partitioning passes
// stream the operand lg(x·sizeof(T)/Z) times before subproblems fit in
// cache (the lg(M/Z) factor of Corollary 7). Physically an in-place
// host_sort_into.
template <typename T, typename Cmp>
void charged_quicksort(Machine& m, std::span<T> buf, Cmp cmp) {
  const double bytes = static_cast<double>(buf.size_bytes());
  const double cache = static_cast<double>(m.config().cache_bytes);
  const auto passes = static_cast<std::uint64_t>(
      std::max(1.0, std::ceil(std::log2(std::max(2.0, bytes / cache)))));
  for (std::uint64_t p = 0; p < passes; ++p) {
    m.stream_read(0, buf.data(), buf.size_bytes());
    m.stream_write(0, buf.data(), buf.size_bytes());
  }
  host_sort_into(buf.data(), buf.data(), buf.size(), nullptr, cmp);
  m.compute(0, static_cast<double>(buf.size()) *
                   (std::log2(static_cast<double>(buf.size()) + 2)));
}

template <typename T, typename Cmp>
void inner_sort(Machine& m, std::span<T> buf, const ScratchpadSortOptions& o,
                Cmp cmp) {
  if (o.quicksort_inner)
    charged_quicksort(m, buf, cmp);
  else
    multiway_merge_sort(m, buf, cmp);
}

template <typename T, typename Cmp>
void sp_sort_rec(Machine& m, std::span<T> seg, const ScratchpadSortOptions& o,
                 std::uint64_t fit_elems, std::size_t depth, Cmp cmp,
                 ScratchpadSortReport& report) {
  const std::uint64_t n = seg.size();
  report.max_depth = std::max(report.max_depth, depth);
  if (n <= 1) return;

  if (n <= fit_elems) {
    // Base case: stage into the scratchpad, sort, write back. Under near
    // pressure (genuine or injected) sort the segment in place in far
    // memory instead — same comparisons, same output, no staging copies.
    const auto buf = m.try_alloc_near<T>(n);
    if (!buf) {
      inner_sort(m, seg, o, cmp);
      return;
    }
    m.copy(0, buf->data(), seg.data(), seg.size_bytes());
    inner_sort(m, *buf, o, cmp);
    m.copy(0, seg.data(), buf->data(), seg.size_bytes());
    m.free_array(Space::Near, *buf);
    return;
  }
  if (depth >= o.max_depth) {
    // Adversarial/duplicate-heavy input defeated the sampling: fall back to
    // a plain external multiway mergesort on this segment.
    ++report.fallbacks;
    multiway_merge_sort(m, seg, cmp);
    return;
  }

  // --- choose and sort the sample X (§III-A) -----------------------------
  const TwoLevelConfig& cfg = m.config();
  const std::size_t s = pivot_count(cfg, fit_elems, n, o.sample_size);
  std::span<T> pivots =
      sample_pivots(m, std::span<const T>(seg.data(), n), s,
                    o.seed + depth * 0x9e3779b9ULL, cmp);
  const std::size_t nb = s + 1;

  // --- bucketizing scan (§III-B) ------------------------------------------
  // Groups of M − Θ(m) elements stream through the scratchpad; the sorted
  // group's positions against X yield the bucket pieces, written back in
  // place so each chunk of `seg` becomes a bucket-ordered sorted run.
  std::uint64_t chunk = group_elems(fit_elems, s);
  // Pipelined staging (§VI-B): with an overlap-capable engine the gather of
  // group c+1 runs on the DMA while group c sorts. That costs a second
  // staging buffer, so shrink the group until two buffers plus the inner
  // sort's working area still fit: 3 * chunk <= 2 * fit_elems.
  if (cfg.overlap_dma && n > chunk)
    chunk = std::max<std::uint64_t>(
        1024, std::min(chunk, 2 * fit_elems / 3));
  const std::uint64_t nchunks = ceil_div(n, chunk);
  std::vector<std::vector<std::uint64_t>> pos(
      static_cast<std::size_t>(nchunks));
  // The Stager owns the scan's staging: one near buffer when the machine
  // has no overlapping engine (every group copied in synchronously), a
  // lazily-allocated second buffer when it does — group c+1 rides the DMA,
  // posted by this (sequential) orchestrator, while group c sorts out of
  // the other buffer. This replaces the hand-rolled parity-buffer loop.
  std::vector<Stager::Item> groups;
  groups.reserve(static_cast<std::size_t>(nchunks));
  for (std::uint64_t c = 0; c < nchunks; ++c) {
    const std::uint64_t b = c * chunk;
    const std::uint64_t len = std::min(chunk, n - b);
    Stager::Item it;
    it.index = static_cast<std::size_t>(c);
    it.bytes = len * sizeof(T);
    it.slices.push_back(Stager::slice_of(seg.data() + b, 0, len));
    groups.push_back(std::move(it));
  }
  Stager::Options sopt;
  sopt.buffer_bytes = std::min(chunk, n) * sizeof(T);
  sopt.elem_bytes = sizeof(T);
  sopt.double_buffer = true;  // engaged only under overlap_dma
  sopt.gather = Stager::Gather::kSequential;
  sopt.worker_hook = false;   // sequential pipeline: orchestrator posts DMA
  Stager stager(m, sopt);
  stager.run(groups, [&](const Stager::Item& it, std::byte* data,
                         const Stager::WorkerHook&) {
    const std::uint64_t b = static_cast<std::uint64_t>(it.index) * chunk;
    const std::uint64_t len = it.bytes / sizeof(T);
    // Null data = the stager's direct-from-far rung: sort the group in
    // place in far memory. Same comparisons, same bucket boundaries.
    std::span<T> group =
        data ? std::span<T>(reinterpret_cast<T*>(data),
                            static_cast<std::size_t>(len))
             : seg.subspan(static_cast<std::size_t>(b),
                           static_cast<std::size_t>(len));
    inner_sort(m, group, o, cmp);
    auto& row = pos[it.index];
    row.resize(nb + 1);
    row[0] = 0;
    row[nb] = len;
    for (std::size_t i = 1; i < nb; ++i)
      row[i] = static_cast<std::uint64_t>(
          charged_lower_bound(m, 0, group.data(), group.data() + len,
                              pivots[i - 1], cmp) -
          group.data());
    if (data) m.copy(0, seg.data() + b, group.data(), len * sizeof(T));
    ++report.bucketizing_scans;
  });
  stager.release();
  m.free_array(pivots);

  // --- gather buckets and recurse ------------------------------------------
  const std::vector<std::uint64_t> tot = bucket_totals(pos, nb);

  // Gather every bucket into its own far array *before* overwriting seg:
  // final positions overlap the not-yet-gathered pieces, so the write-back
  // must not start until seg has been fully consumed.
  std::vector<std::span<T>> buckets(nb);
  for (std::size_t i = 0; i < nb; ++i) {
    if (tot[i] == 0) continue;
    buckets[i] = m.alloc_array<T>(Space::Far, tot[i]);
    std::uint64_t fill = 0;
    for (std::uint64_t c = 0; c < nchunks; ++c) {
      const auto& row = pos[static_cast<std::size_t>(c)];
      const std::uint64_t lo = row[i], hi = row[i + 1];
      if (lo >= hi) continue;
      m.copy(0, buckets[i].data() + fill, seg.data() + c * chunk + lo,
             (hi - lo) * sizeof(T));
      fill += hi - lo;
    }
  }

  std::uint64_t out_off = 0;
  for (std::size_t i = 0; i < nb; ++i) {
    if (tot[i] == 0) continue;
    ++report.buckets_created;
    // A bucket strictly smaller than the segment recurses; otherwise (all
    // sampled pivots equal, degenerate input) sort it directly.
    if (tot[i] < n)
      sp_sort_rec(m, buckets[i], o, fit_elems, depth + 1, cmp, report);
    else
      multiway_merge_sort(m, buckets[i], cmp);
    m.copy(0, seg.data() + out_off, buckets[i].data(),
           buckets[i].size_bytes());
    out_off += tot[i];
    m.free_array(Space::Far, buckets[i]);
  }
  TLM_CHECK(out_off == n, "bucket gather lost elements");
}

}  // namespace detail

// Sorts far-resident `data` in place with the §III algorithm; returns the
// recursion observables for Lemma 5 validation.
template <typename T, typename Cmp = std::less<T>>
ScratchpadSortReport scratchpad_sort(Machine& m, std::span<T> data,
                                     ScratchpadSortOptions opt = {},
                                     Cmp cmp = {}) {
  ScratchpadSortReport report;
  if (data.size() <= 1) return report;
  m.adopt_far(data.data(), data.size_bytes());
  // Staging budget: half the usable scratchpad for the operand, half for
  // the inner sort's working buffer (quicksort is in-place but keeps the
  // same geometry so the A1 ablation isolates the inner-sort choice).
  detail::sp_sort_rec(m, data, opt, detail::fit_elems<T>(m.config()), 0, cmp,
                      report);
  return report;
}

}  // namespace tlm::sort
