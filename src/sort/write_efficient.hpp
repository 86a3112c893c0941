// Write-efficient NMsort — the asymmetric-ω counterpart of §IV-D's NMsort.
//
// Stock NMsort moves every element through far memory twice in each
// direction: Phase 1 writes the sorted-run area, Phase 2 writes the output
// (2·N far reads + 2·N far writes). When far writes cost ω× a read
// (TwoLevelConfig::far_write_cost — NVM-style asymmetry), those run-area
// writes dominate. This variant eliminates the far intermediate entirely by
// trading them for extra far *reads*:
//
//   1. sample    — sort a pivot sample, deduplicate it into `s` splitters,
//                  and define 2s+1 key-ordered buckets that alternate
//                  open ranges and singleton (equal-to-splitter) buckets;
//                  singletons are what keep heavily repeated keys from
//                  bloating any one open range.
//   2. histogram — one staged streaming pass over the input counting, per
//                  (chunk × worker) slice, how many keys land in each
//                  bucket (the count matrix is scratchpad metadata, like
//                  NMsort's BucketTot); prefix sums fix every bucket's
//                  final output offset and every slice's gather offset.
//   3. distribute— greedily pack consecutive buckets into groups that fit
//                  the near gather buffer (Stager::plan, §IV-D's "largest
//                  prefix that fits"); for each group, re-stream the input
//                  through the Stager, filter the group's keys into the
//                  gather buffer at their precomputed slice offsets, sort
//                  the gathered group entirely inside the scratchpad, and
//                  merge it straight to its final far position.
//
// Far traffic: (1 + c)·N reads + N writes, where c = #groups ≈
// N / gather-capacity, versus stock NMsort's 2·N reads + 2·N writes. In the
// ω-weighted cost model the variant wins when 2(1+ω) > (1+c) + ω, i.e.
// ω > c − 1 — model::crossover_omega / write_efficient_sort_cost are the
// closed forms, and bench/sweep_omega gates the crossover empirically.
//
// Degenerate buckets degrade gracefully: an oversized *singleton* bucket is
// filled into the output directly (no gather, no sort — a pure ω-weighted
// write, which is optimal); an oversized *open* bucket is gathered into a
// far temporary and recursively sorted (extra far traffic proportional to
// the bucket — the honest price of a sampling miss), with an NMsort
// fallback at the depth cap so adversarial inputs always terminate.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <span>
#include <vector>

#include "common/math.hpp"
#include "common/units.hpp"
#include "scratchpad/machine.hpp"
#include "scratchpad/stager.hpp"
#include "sort/merge.hpp"
#include "sort/multiway_sort.hpp"
#include "sort/nmsort.hpp"
#include "sort/runs.hpp"
#include "sort/sample.hpp"

namespace tlm::sort {

struct WESortOptions {
  std::uint64_t seed = 0x5eedULL;
};

namespace detail {

// Recursion guard for oversized open buckets; past it the bucket falls back
// to stock NMsort (correct for any input, just not write-efficient).
inline constexpr int kWEMaxDepth = 24;

struct WEGeometry {
  std::uint64_t gather_elems = 0;
  std::uint64_t chunk_elems = 0;
  std::uint64_t nchunks = 0;
  std::size_t num_splitters = 0;
  std::uint64_t meta_bytes = 0;
};

template <typename T>
WEGeometry we_geometry(const Machine& m, std::uint64_t n) {
  WEGeometry g;
  // Same metadata slice as NMsort: splitters, the count matrix, and the
  // bucket offset arrays live here, scratchpad-resident throughout.
  g.meta_bytes = meta_slice_bytes(m.config());
  const std::uint64_t usable = m.config().near_capacity - g.meta_bytes;

  // Near budget: gather buffer + sort ping-pong buffer (3/8 usable each)
  // plus two staging chunks (usable/8 each) fill the scratchpad exactly.
  g.gather_elems = std::max<std::uint64_t>(1024, (usable * 3 / 8) / sizeof(T));
  g.chunk_elems = std::min<std::uint64_t>(
      std::max<std::uint64_t>(1024, usable / 8 / sizeof(T)), n);
  g.nchunks = ceil_div(n, g.chunk_elems);

  // The count matrix has one row per (chunk × worker) slice and one column
  // per bucket (2s+1 for s splitters); it must fit half the metadata slice.
  const std::uint64_t nslices = g.nchunks * m.threads();
  const std::uint64_t nb_cap = std::max<std::uint64_t>(
      3, g.meta_bytes / 2 / std::max<std::uint64_t>(1, nslices * 8));
  const std::uint64_t s_cap = (nb_cap - 1) / 2;
  // Enough splitters that the average open bucket is a quarter of the
  // gather buffer, so group packing stays tight.
  const std::uint64_t want = std::max<std::uint64_t>(
      16, 4 * ceil_div(n, std::max<std::uint64_t>(1, g.gather_elems)));
  g.num_splitters = static_cast<std::size_t>(std::min<std::uint64_t>(
      {want, s_cap, 1024, std::max<std::uint64_t>(1, n / 4)}));
  TLM_REQUIRE(g.num_splitters >= 1, "need at least one splitter");
  return g;
}

// Sorts `len` gathered elements sitting at the front of `buf` entirely in
// the scratchpad (ping-ponging against `tmp`) and merges the result
// straight into far-resident `out` — the only far write the group pays.
template <typename T, typename Cmp>
void we_sort_group_into(Machine& m, T* buf, T* tmp, std::uint64_t len,
                        std::span<T> out, Cmp cmp) {
  const RunLayout L = plan_runs<T>(m, len);
  finish_runs(m, form_and_merge(m, buf, tmp, buf, len, L, cmp), out, cmp);
}

template <typename T, typename Cmp>
void we_sort_into_impl(Machine& m, std::span<const T> input,
                       std::span<T> output, const WESortOptions& opt, Cmp cmp,
                       int depth) {
  const std::uint64_t n = input.size();
  const WEGeometry g = we_geometry<T>(m, n);
  const std::size_t p = m.threads();

  // ---- small fast path: the whole input fits the gather buffer -----------
  // One read in, one sorted write out — already write-optimal, so reuse the
  // fused in-scratchpad pipeline directly.
  if (n <= g.gather_elems) {
    m.begin_phase("wesort.small");
    std::span<T> buf = m.alloc_array_near_or_far<T>(n);
    std::span<T> tmp = m.alloc_array_near_or_far<T>(n);
    m.parallel_copy(buf.data(), input.data(), n);
    we_sort_group_into(m, buf.data(), tmp.data(), n, output, cmp);
    m.free_array(tmp);
    m.free_array(buf);
    m.end_phase();
    return;
  }

  // ---- sample: splitters and the bucket structure ------------------------
  m.begin_phase("wesort.sample");
  std::span<T> pivots = sample_pivots(m, input, g.num_splitters, opt.seed, cmp);
  // Deduplicate: each distinct splitter value gets a singleton bucket of
  // its own, so repeated keys (skewed / all-equal inputs) concentrate
  // there instead of widening an open range.
  std::vector<T> sv(pivots.begin(), pivots.end());
  sv.erase(std::unique(sv.begin(), sv.end(),
                       [&](const T& a, const T& b) {
                         return !cmp(a, b) && !cmp(b, a);
                       }),
           sv.end());
  m.free_array(pivots);
  const std::size_t ns = sv.size();
  // Buckets in key order: 2i = open range below splitter i, 2i+1 = keys
  // equal to splitter i, 2·ns = the open range above every splitter.
  const std::size_t nb = 2 * ns + 1;

  std::span<T> split = m.alloc_array_near_or_far<T>(ns);
  m.retain_across_phases(split.data());
  std::memcpy(split.data(), sv.data(), ns * sizeof(T));
  m.stream_write(0, split.data(), split.size_bytes());

  const std::uint64_t nslices = g.nchunks * p;
  std::span<std::uint64_t> counts =
      m.alloc_array_near_or_far<std::uint64_t>(nslices * nb);
  m.retain_across_phases(counts.data());
  m.parallel_for(0, static_cast<std::size_t>(nslices * nb),
                 [&](std::size_t w, std::size_t lo, std::size_t hi) {
                   std::fill(counts.begin() + lo, counts.begin() + hi, 0);
                   m.stream_write(w, counts.data() + lo,
                                  (hi - lo) * sizeof(std::uint64_t));
                 });
  std::span<std::uint64_t> bucket_off =
      m.alloc_array_near_or_far<std::uint64_t>(nb + 1);
  m.retain_across_phases(bucket_off.data());
  m.end_phase();

  const double lg = std::log2(static_cast<double>(ns) + 2.0);
  auto bucket_of = [&](const T& x) -> std::size_t {
    const T* const b = split.data();
    const T* const e = b + ns;
    const T* const it = std::lower_bound(b, e, x, cmp);
    const std::size_t j = static_cast<std::size_t>(it - b);
    if (it != e && !cmp(x, *it)) return 2 * j + 1;  // x == splitter j
    return 2 * j;
  };

  // The staged streaming pass shared by the histogram and every
  // distribution sweep: one item per input chunk, one slice each.
  std::vector<Stager::Item> items(static_cast<std::size_t>(g.nchunks));
  for (std::uint64_t c = 0; c < g.nchunks; ++c) {
    const std::uint64_t b = c * g.chunk_elems;
    const std::uint64_t len = std::min(g.chunk_elems, n - b);
    items[c].index = static_cast<std::size_t>(c);
    items[c].bytes = len * sizeof(T);
    items[c].slices.push_back(Stager::slice_of(input.data() + b, 0, len));
  }
  const std::uint64_t usable = m.config().near_capacity - g.meta_bytes;
  Stager::Options sopt;
  sopt.buffer_bytes = g.chunk_elems * sizeof(T);
  sopt.elem_bytes = sizeof(T);
  sopt.gather = Stager::Gather::kParallel;
  sopt.worker_hook = true;

  // ---- histogram: one streaming pass, per-slice bucket counts ------------
  m.begin_phase("wesort.histogram");
  {
    Stager::Options hopt = sopt;
    hopt.double_buffer = 2 * sopt.buffer_bytes <= usable;
    Stager stager(m, hopt);
    stager.run(items, [&](const Stager::Item& it, std::byte* data,
                          const Stager::WorkerHook& prefetch) {
      const std::uint64_t c = it.index;
      const std::uint64_t len = it.bytes / sizeof(T);
      const T* src = data ? reinterpret_cast<const T*>(data)
                          : input.data() + c * g.chunk_elems;
      m.run_spmd([&](std::size_t w) {
        if (prefetch) prefetch(w);
        const auto [lo, hi] =
            ThreadPool::chunk(static_cast<std::size_t>(len), w, p);
        if (lo >= hi) return;
        std::uint64_t* row = counts.data() + (c * p + w) * nb;
        for (std::size_t i = lo; i < hi; ++i) ++row[bucket_of(src[i])];
        m.stream_read(w, src + lo, (hi - lo) * sizeof(T));
        m.stream_read(w, split.data(), split.size_bytes());
        m.stream_write(w, row, nb * sizeof(std::uint64_t));
        m.compute(w, static_cast<double>(hi - lo) * (lg + 1.0));
      });
    });
    stager.release();
  }
  // Prefix sums: every bucket's final offset in the output. The planner
  // reads the whole count matrix once (scratchpad metadata traffic).
  m.stream_read(0, counts.data(), counts.size_bytes());
  bucket_off[0] = 0;
  for (std::size_t b = 0; b < nb; ++b) {
    std::uint64_t tot = 0;
    for (std::uint64_t s = 0; s < nslices; ++s) tot += counts[s * nb + b];
    bucket_off[b + 1] = bucket_off[b] + tot;
  }
  m.compute(0, static_cast<double>(nslices) * static_cast<double>(nb));
  m.stream_write(0, bucket_off.data(), bucket_off.size_bytes());
  TLM_CHECK(bucket_off[nb] == n, "histogram lost elements");
  m.end_phase();

  // ---- distribute: gather, sort in near, merge straight to far -----------
  // Oversized open buckets are gathered to far temporaries during the
  // sweep but recursed on only after the phase closes, so each recursion
  // level owns its own phases.
  struct Deferred {
    std::span<T> temp;
    std::uint64_t out_off = 0;
    std::size_t bucket = 0;
  };
  std::vector<Deferred> deferred;

  m.begin_phase("wesort.distribute");
  {
    std::span<T> gather = m.alloc_array_near_or_far<T>(g.gather_elems);
    std::span<T> ping = m.alloc_array_near_or_far<T>(g.gather_elems);
    Stager::Options dopt = sopt;
    dopt.double_buffer =
        2 * sopt.buffer_bytes + 2 * g.gather_elems * sizeof(T) <= usable;
    Stager stager(m, dopt);

    std::vector<std::uint64_t> bucket_bytes(nb);
    for (std::size_t b = 0; b < nb; ++b)
      bucket_bytes[b] = (bucket_off[b + 1] - bucket_off[b]) * sizeof(T);
    const std::vector<Stager::Range> groups =
        Stager::plan(bucket_bytes, g.gather_elems * sizeof(T));

    // One filtered sweep of the input: every key of a bucket in [first,
    // last) lands at its precomputed slice offset in `dst`.
    std::vector<std::uint64_t> slice_off(static_cast<std::size_t>(nslices) +
                                         1);
    auto sweep_into = [&](std::size_t first, std::size_t last, T* dst,
                          std::uint64_t expect) {
      slice_off[0] = 0;
      for (std::uint64_t s = 0; s < nslices; ++s) {
        std::uint64_t cnt = 0;
        for (std::size_t b = first; b < last; ++b) cnt += counts[s * nb + b];
        slice_off[s + 1] = slice_off[s] + cnt;
      }
      m.stream_read(0, counts.data(), counts.size_bytes());
      m.compute(0, static_cast<double>(nslices) *
                       static_cast<double>(last - first));
      TLM_CHECK(slice_off[nslices] == expect, "group gather size mismatch");
      // Skip chunks that contribute nothing (cheap win on presorted data).
      std::vector<Stager::Item> sel;
      for (std::uint64_t c = 0; c < g.nchunks; ++c)
        if (slice_off[(c + 1) * p] > slice_off[c * p])
          sel.push_back(items[static_cast<std::size_t>(c)]);
      stager.run(sel, [&](const Stager::Item& it, std::byte* data,
                          const Stager::WorkerHook& prefetch) {
        const std::uint64_t c = it.index;
        const std::uint64_t len = it.bytes / sizeof(T);
        const T* src = data ? reinterpret_cast<const T*>(data)
                            : input.data() + c * g.chunk_elems;
        m.run_spmd([&](std::size_t w) {
          if (prefetch) prefetch(w);
          const auto [lo, hi] =
              ThreadPool::chunk(static_cast<std::size_t>(len), w, p);
          if (lo >= hi) return;
          const std::uint64_t start = slice_off[c * p + w];
          std::uint64_t pos = start;
          for (std::size_t i = lo; i < hi; ++i) {
            const std::size_t b = bucket_of(src[i]);
            if (b >= first && b < last) dst[pos++] = src[i];
          }
          TLM_CHECK(pos == slice_off[c * p + w + 1],
                    "gather offsets out of step with histogram");
          m.stream_read(w, src + lo, (hi - lo) * sizeof(T));
          m.stream_read(w, split.data(), split.size_bytes());
          if (pos > start)
            m.stream_write(w, dst + start, (pos - start) * sizeof(T));
          m.compute(w, static_cast<double>(hi - lo) * (lg + 1.0));
        });
      });
    };

    for (const Stager::Range& r : groups) {
      const std::uint64_t elems = r.bytes / sizeof(T);
      if (elems == 0) continue;
      const std::uint64_t out_off = bucket_off[r.first];
      std::span<T> out = output.subspan(out_off, elems);
      if (r.oversized && r.first % 2 == 1) {
        // Oversized singleton: every key equals splitter r.first/2 — fill
        // the output range directly. Pure ω-weighted writes, no gather.
        const T v = split[r.first / 2];
        m.parallel_for(0, static_cast<std::size_t>(elems),
                       [&](std::size_t w, std::size_t lo, std::size_t hi) {
                         std::fill(out.begin() + lo, out.begin() + hi, v);
                         m.stream_write(w, out.data() + lo,
                                        (hi - lo) * sizeof(T));
                         m.compute(w, static_cast<double>(hi - lo));
                       });
        continue;
      }
      if (r.oversized) {
        // Oversized open bucket (a sampling miss): gather it to a far
        // temporary — extra far writes, the honest fallback price — and
        // recurse on it after the phase closes.
        std::span<T> temp = m.alloc_array<T>(Space::Far, elems);
        sweep_into(r.first, r.last, temp.data(), elems);
        deferred.push_back(Deferred{temp, out_off, r.first});
        continue;
      }
      sweep_into(r.first, r.last, gather.data(), elems);
      we_sort_group_into(m, gather.data(), ping.data(), elems, out, cmp);
    }
    stager.release();
    m.free_array(ping);
    m.free_array(gather);
  }
  m.end_phase();

  m.free_array(bucket_off);
  m.free_array(counts);
  m.free_array(split);

  for (const Deferred& d : deferred) {
    std::span<T> out = output.subspan(d.out_off, d.temp.size());
    const std::span<const T> in(d.temp.data(), d.temp.size());
    if (depth + 1 >= kWEMaxDepth) {
      NMSortOptions fb;
      fb.seed = opt.seed ^ 0x9e3779b97f4a7c15ULL;
      nm_sort_into(m, in, out, fb, cmp);
    } else {
      WESortOptions sub = opt;
      // Reseed per bucket so the recursion samples fresh splitters from
      // inside the bucket instead of replaying the miss.
      sub.seed = opt.seed * 0x9e3779b97f4a7c15ULL + d.bucket + 1;
      we_sort_into_impl(m, in, out, sub, cmp, depth + 1);
    }
    m.free_array(Space::Far, d.temp);
  }
}

}  // namespace detail

// Sorts `input` into `output` (both far-resident, non-overlapping),
// writing each element to far memory exactly once on the common path.
template <typename T, typename Cmp = std::less<T>>
void we_sort_into(Machine& m, std::span<const T> input, std::span<T> output,
                  WESortOptions opt = {}, Cmp cmp = {}) {
  TLM_REQUIRE(input.size() == output.size(), "output must match input size");
  if (input.empty()) return;
  TLM_REQUIRE(m.space_of(input.data()) == Space::Far &&
                  m.space_of(output.data()) == Space::Far,
              "write-efficient sort operands live in far memory");
  m.adopt_far(input.data(), input.size_bytes());
  m.adopt_far(output.data(), output.size_bytes());
  detail::we_sort_into_impl(m, input, output, opt, cmp, 0);
}

}  // namespace tlm::sort
