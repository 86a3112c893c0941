// Charged k-way merging: the memory behaviour of every merge in this
// repository flows through these two functions.
//
// merge_runs_charged consumes runs through block-granular refills (charging
// stream reads in actual consumption order) and flushes output in blocks, so
// a trace replayed on the simulator interleaves reads, compute, and writes
// the way a real buffered external merge would.
//
// parallel_multiway_merge splits one big merge across all machine threads by
// merge-path / k-way exact partitioning (multisequence selection on the
// cross-run rank, after Green/Odeh/Birk's Merge Path): part j starts at
// global rank ⌊j·total/p⌋ in every run, so each thread's slice is within one
// element of total/p regardless of the key distribution — including
// all-equal and heavily skewed keys, where value-based splitters collapse
// onto a single thread. As in Merge Path, every worker finds its own cuts.
#pragma once

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "common/loser_tree.hpp"
#include "common/units.hpp"
#include "scratchpad/machine.hpp"
#include "sort/runs.hpp"

namespace tlm::sort {

// Refill/flush granularity of the buffered cursors. 4 KiB amortizes the
// per-burst access latency while letting 2·fan buffers fit in the cache
// (plan_runs derives the fan-in from cache_bytes / (2·kRefillBytes)).
inline constexpr std::uint64_t kRefillBytes = 4 * KiB;
// Minimum elements per parallel merge slice: splitting a merge across more
// threads than total/kMinPartElems just burns splitter probes and produces
// sub-refill slices.
inline constexpr std::uint64_t kMinPartElems = 1024;

// Sequential k-way merge of `runs` into `out` (which must have room for the
// total size), charging `thread` for all traffic and compute. Before each
// element is consumed, its run's next refill is charged if the element lies
// past the run's charged prefix; after each element is emitted, a full
// kRefillBytes of output is flushed (written and charged lg k + 1 compute
// per element). Two runs merge in a two-cursor loop, more through a
// LoserTree; both take run 0's head on equal keys, so the element order and
// with it every Machine call are the same either way.
template <typename T, typename Cmp = std::less<T>>
void merge_runs_charged(Machine& m, std::size_t thread,
                        const std::vector<Run<T>>& runs, T* out,
                        Cmp cmp = {}) {
  const std::uint64_t total = total_size(runs);
  if (total == 0) return;

  const std::uint64_t refill_elems =
      std::max<std::uint64_t>(1, kRefillBytes / sizeof(T));
  // Modeled comparisons per emitted element: log2(k), plus one.
  const double per_elem =
      std::log2(static_cast<double>(std::max<std::size_t>(2, runs.size()))) +
      1.0;

  // Charges the refill covering `cursor` if it lies past `watermark`, the
  // end of its run's charged prefix.
  auto refill = [&](const T* cursor, const T*& watermark, const T* end) {
    if (cursor < watermark) [[likely]]
      return;
    const std::uint64_t take = std::min(
        refill_elems, static_cast<std::uint64_t>(end - watermark));
    m.stream_read(thread, watermark, take * sizeof(T));
    watermark += take;
  };
  T* o = out;
  T* flush_from = out;
  auto flush = [&] {
    m.stream_write(thread, flush_from,
                   static_cast<std::uint64_t>(o - flush_from) * sizeof(T));
    m.compute(thread, static_cast<double>(o - flush_from) * per_elem);
    flush_from = o;
  };
  // Emits `x`, flushing once a full refill of output is pending.
  auto emit = [&](const T& x) {
    *o++ = x;
    if (static_cast<std::uint64_t>(o - flush_from) >= refill_elems)
      [[unlikely]] flush();
  };

  if (runs.size() == 2) {
    const T* c0 = runs[0].begin;
    const T* c1 = runs[1].begin;
    const T* const e0 = runs[0].end;
    const T* const e1 = runs[1].end;
    const T* w0 = c0;
    const T* w1 = c1;
    while (c0 != e0 && c1 != e1) {
      // Run 1 goes first only when strictly smaller: the tree's tie-break.
      const bool one = cmp(*c1, *c0);
      // Tested on both runs so that no branch depends on `one`; refill
      // charges only the run whose head is taken.
      if ((c0 >= w0) | (c1 >= w1)) [[unlikely]] {
        if (one)
          refill(c1, w1, e1);
        else
          refill(c0, w0, e0);
      }
      emit(one ? *c1 : *c0);
      c1 += one;
      c0 += !one;
    }
    for (; c0 != e0; ++c0) {
      refill(c0, w0, e0);
      emit(*c0);
    }
    for (; c1 != e1; ++c1) {
      refill(c1, w1, e1);
      emit(*c1);
    }
  } else {
    using LT = LoserTree<T, Cmp>;
    std::vector<typename LT::Run> lt_runs;
    lt_runs.reserve(runs.size());
    std::vector<const T*> watermark;
    watermark.reserve(runs.size());
    for (const auto& r : runs) {
      lt_runs.push_back({r.begin, r.end});
      watermark.push_back(r.begin);
    }
    LT tree(std::move(lt_runs), cmp);
    while (!tree.done()) {
      const std::size_t r = tree.top_run();
      refill(tree.cursor(r), watermark[r], runs[r].end);
      emit(tree.pop());
    }
  }
  if (o != flush_from) flush();
}

// First global rank of part j when `total` elements split into `parts`.
inline std::uint64_t part_rank(std::uint64_t total, std::size_t parts,
                               std::size_t j) {
  return total * static_cast<std::uint64_t>(j) / parts;
}

// Exact, stable multisequence selection (Varman et al. 1991, the k-way form
// of Merge Path): cut positions cut[i] with Σ (cut[i] − runs[i].begin) ==
// target such that the elements left of the cuts are exactly the first
// `target` elements a stable sequential merge emits. Ties are ordered by
// (value, run index), the loser tree's tie-break.
//
// The runs are halved together. Conceptually every run is padded with +∞
// past its end; at granularity s its s-samples are the elements at positions
// s−1, 2s−1, …, and cnt[i] counts run i's share of the ⌊target/s⌋ smallest
// s-samples. The top granularity exceeds every run, so only padding is
// taken there. Halving s adds one sample per run, the midpoint just past
// its last taken sample; every midpoint not above the largest taken sample
// joins, which takes exactly the s/2-samples up to that sample. That count
// is at most k above or one below ⌊target/(s/2)⌋, and the difference moves
// one sample at a time at the run holding the largest taken (or smallest
// untaken) sample. At s = 1 the samples are the elements and cnt is the cut.
//
// A level reads one midpoint per run plus one element per corrective move
// (every other comparison is between boundary elements already read), so a
// cut costs at most 2k·⌈lg(max run + 1)⌉ charged probes. The comparisons
// actually made are charged as compute.
template <typename T, typename Cmp>
std::vector<const T*> select_cut(Machine& m, std::size_t thread,
                                 const std::vector<Run<T>>& runs,
                                 std::uint64_t target, Cmp cmp) {
  const std::size_t k = runs.size();
  const std::uint64_t total = total_size(runs);
  std::vector<const T*> cut(k);
  if (target == 0 || target >= total || k == 1) {
    for (std::size_t i = 0; i < k; ++i)
      cut[i] = target == 0       ? runs[i].begin
               : target >= total ? runs[i].end
                                 : runs[i].begin + target;
    return cut;
  }

  std::uint64_t longest = 0;
  for (const auto& r : runs) longest = std::max(longest, r.size());
  const std::uint64_t line = m.config().block_bytes;
  auto probe = [&](std::size_t i, std::uint64_t pos) {
    if (pos < runs[i].size())
      m.stream_read(thread, runs[i].begin + pos,
                    std::min<std::uint64_t>(line, sizeof(T)));
  };
  // Strict order on (run, position) keys: real elements by (value, run,
  // position), all before the padding, which is ordered by (position, run).
  double comparisons = 0;
  auto before = [&](std::size_t i, std::uint64_t p, std::size_t j,
                    std::uint64_t q) {
    comparisons += 1;
    const bool pad_p = p >= runs[i].size(), pad_q = q >= runs[j].size();
    if (pad_p || pad_q) {
      if (pad_p != pad_q) return pad_q;
      return p != q ? p < q : i < j;
    }
    const T& x = runs[i].begin[p];
    const T& y = runs[j].begin[q];
    if (cmp(x, y)) return true;
    if (cmp(y, x)) return false;
    return i != j ? i < j : p < q;
  };

  // Top granularity 2^lg > longest: every s-sample is padding, and fewer
  // than k of them are taken, one from each of the first runs.
  unsigned lg = static_cast<unsigned>(std::bit_width(longest));
  std::vector<std::uint64_t> cnt(k, 0);
  for (std::uint64_t i = 0; i < (target >> lg); ++i) cnt[i] = 1;

  // Max-heap of runs keyed by their last taken sample, at position cnt·h − 1
  // once the granularity has dropped to h.
  std::vector<std::size_t> heap;
  heap.reserve(k);
  while (lg > 0) {
    const std::uint64_t s = std::uint64_t{1} << lg;
    const std::uint64_t h = s / 2;
    std::size_t y = k;  // the run holding the largest taken s-sample
    for (std::size_t i = 0; i < k; ++i)
      if (cnt[i] > 0 &&
          (y == k || before(y, cnt[y] * s - 1, i, cnt[i] * s - 1)))
        y = i;
    const std::uint64_t y_pos = y == k ? 0 : cnt[y] * s - 1;
    std::uint64_t taken = 0;
    for (std::size_t i = 0; i < k; ++i) {
      const std::uint64_t mid = cnt[i] * s + h - 1;
      probe(i, mid);
      cnt[i] = 2 * cnt[i] + (y != k && before(i, mid, y, y_pos) ? 1 : 0);
      taken += cnt[i];
    }
    --lg;
    const std::uint64_t want = target >> lg;
    while (taken < want) {  // at most once
      std::size_t r = k;
      for (std::size_t i = 0; i < k; ++i)
        if (r == k || before(i, cnt[i] * h + h - 1, r, cnt[r] * h + h - 1))
          r = i;
      ++cnt[r];
      ++taken;
      probe(r, cnt[r] * h + h - 1);
    }
    if (taken > want) {  // at most k moves
      auto heap_less = [&](std::size_t a, std::size_t b) {
        return before(a, cnt[a] * h - 1, b, cnt[b] * h - 1);
      };
      heap.clear();
      for (std::size_t i = 0; i < k; ++i)
        if (cnt[i] > 0) heap.push_back(i);
      std::make_heap(heap.begin(), heap.end(), heap_less);
      for (; taken > want; --taken) {
        std::pop_heap(heap.begin(), heap.end(), heap_less);
        const std::size_t r = heap.back();
        heap.pop_back();
        if (--cnt[r] == 0) continue;
        probe(r, cnt[r] * h - 1);
        heap.push_back(r);
        std::push_heap(heap.begin(), heap.end(), heap_less);
      }
    }
  }

  for (std::size_t i = 0; i < k; ++i) {
    TLM_CHECK(cnt[i] <= runs[i].size(), "multisequence cut ran into padding");
    cut[i] = runs[i].begin + cnt[i];
  }
  m.compute(thread, comparisons);
  return cut;
}

// Part j of the exact k-way partition of `runs` (`total` elements) into
// `parts` parts: the non-empty pieces of every run between the cuts at
// global ranks part_rank(j) and part_rank(j + 1), found by two select_cut
// calls charged to `thread`. Every part holds at most ⌈total/parts⌉
// elements whatever the key distribution.
template <typename T, typename Cmp>
std::vector<Run<T>> part_slice(Machine& m, std::size_t thread,
                               const std::vector<Run<T>>& runs,
                               std::uint64_t total, std::size_t parts,
                               std::size_t j, Cmp cmp) {
  const std::uint64_t first = part_rank(total, parts, j);
  const std::uint64_t last = part_rank(total, parts, j + 1);
  const std::vector<const T*> lo = select_cut(m, thread, runs, first, cmp);
  const std::vector<const T*> hi = select_cut(m, thread, runs, last, cmp);
  std::vector<Run<T>> slice;
  std::uint64_t elems = 0;
  for (std::size_t i = 0; i < runs.size(); ++i) {
    TLM_CHECK(lo[i] <= hi[i], "merge cuts are not monotone");
    if (hi[i] > lo[i]) slice.push_back(Run<T>{lo[i], hi[i]});
    elems += static_cast<std::uint64_t>(hi[i] - lo[i]);
  }
  TLM_CHECK(elems == last - first, "merge cuts lost elements");
  return slice;
}

// Merges `runs` into `out` using every thread of the machine. Must be called
// from the orchestrating thread (it runs an SPMD section internally).
//
// `per_worker`, when given, runs on every worker at the start of the SPMD
// section, before the worker merges its slice — NMsort's Phase 2 uses it to
// post the DMA gather of the next batch so the transfer overlaps with the
// current batch's merge, with the SPMD join barrier as the completion fence.
// A non-empty hook forces the SPMD section even for merges too small to
// split, so the fence always exists.
template <typename T, typename Cmp = std::less<T>>
void parallel_multiway_merge(
    Machine& m, const std::vector<Run<T>>& runs, std::span<T> out, Cmp cmp = {},
    const std::function<void(std::size_t)>& per_worker = {}) {
  const std::uint64_t total = total_size(runs);
  TLM_REQUIRE(out.size() == total, "output size must equal total run size");
  if (total == 0) {
    if (per_worker) m.run_spmd(per_worker);
    return;
  }

  const std::size_t parts = static_cast<std::size_t>(std::clamp<std::uint64_t>(
      total / kMinPartElems, 1, m.threads()));
  if (parts == 1 && !per_worker) {
    merge_runs_charged(m, 0, runs, out.data(), cmp);
    return;
  }
  // Merge Path: every worker finds the cuts bounding its own part, so the
  // partition's span is one cut pair rather than parts − 1 cuts on the
  // orchestrator, with no extra barrier and no shared modeled writes. Each
  // worker fills only its own slot of slice_elems, from which the
  // orchestrator records the largest slice a worker actually merged.
  std::vector<std::uint64_t> slice_elems(parts, 0);
  m.run_spmd([&](std::size_t w) {
    if (per_worker) per_worker(w);
    if (w >= parts) return;
    const std::vector<Run<T>> slice =
        part_slice(m, w, runs, total, parts, w, cmp);
    slice_elems[w] = total_size(slice);
    if (!slice.empty())
      merge_runs_charged(m, w, slice, out.data() + part_rank(total, parts, w),
                         cmp);
  });
  m.note_partition(0, parts,
                   *std::max_element(slice_elems.begin(), slice_elems.end()),
                   total);
}

}  // namespace tlm::sort
