// NMsort — the practical parallel near-memory sort of §IV-D.
//
// Phase 1 streams Θ(M)-sized chunks of the input through the scratchpad:
// each chunk is loaded in parallel, sorted in the scratchpad by the same
// parallel multiway mergesort used as the single-level baseline, written
// back to far memory as a sorted run, and its bucket boundaries (BucketPos)
// against a sorted random pivot sample are recorded alongside running
// per-bucket totals (BucketTot, scratchpad-resident throughout). Recording
// metadata instead of eagerly scattering buckets is the innovation that
// avoids the many small DRAM transfers of the textbook algorithm (§III) —
// "Without this innovation, we were unable to exploit the scratchpad
// effectively."
//
// Phase 2 repeatedly takes the largest prefix of not-yet-consumed buckets
// whose total fits in the scratchpad (batching thousands of buckets per
// transfer), gathers the corresponding contiguous slice of every sorted run
// into the scratchpad, multiway-merges the slices with all threads, and
// streams the result to its final position in far memory.
//
// `use_bucket_metadata = false` selects the naive eager-scatter Phase 1
// (per-chunk, per-bucket appends to far memory) so the ablation bench can
// quantify what the metadata buys.
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
#include "sort/runs.hpp"
#include "sort/sample.hpp"

namespace tlm::sort {

struct NMSortOptions {
  bool use_bucket_metadata = true;
  std::uint64_t seed = 0x5eedULL;
};

namespace detail {

// The metadata slice NMsort and the write-efficient sort reserve in the
// scratchpad for pivots and bucket tables — Θ(M/B) entries, i.e. well under
// 1% of M at realistic geometries (§IV-D's overhead argument).
inline std::uint64_t meta_slice_bytes(const TwoLevelConfig& cfg) {
  const std::uint64_t meta =
      std::clamp<std::uint64_t>(cfg.near_capacity / 16, 64 * KiB, 2 * MiB);
  TLM_REQUIRE(meta * 2 < cfg.near_capacity,
              "scratchpad too small for the sort's metadata slice");
  return meta;
}

struct NMGeometry {
  std::uint64_t chunk_elems = 0;
  std::uint64_t nchunks = 0;
  std::size_t num_buckets = 0;
  std::uint64_t batch_elems = 0;
  std::uint64_t meta_bytes = 0;
};

// NMsort's geometry for `n` elements on `m`, from the scratchpad size and
// thread count alone. Chunks are half the usable scratchpad (the chunk and
// its ping-pong buffer), and a Phase-2 batch is all of it — half under
// `overlap_dma`, whose staging area is double-buffered (two live batches:
// one merging, one being gathered by the DMA engine).
template <typename T>
NMGeometry nm_geometry(const Machine& m, std::uint64_t n) {
  const TwoLevelConfig& cfg = m.config();
  NMGeometry g;
  // The pivots, BucketTot and a BucketPos row live in the metadata slice.
  g.meta_bytes = meta_slice_bytes(cfg);
  const std::uint64_t usable = cfg.near_capacity - g.meta_bytes;

  g.chunk_elems = std::min(
      std::max<std::uint64_t>(1024, usable / (2 * sizeof(T))), n);
  g.nchunks = ceil_div(n, g.chunk_elems);

  // Metadata arrays (pivots + BucketTot + one BucketPos row) must fit in the
  // reserved slice: three arrays of ~num_buckets entries of 8 bytes.
  const std::uint64_t nb_cap =
      std::max<std::uint64_t>(1, g.meta_bytes / (4 * sizeof(std::uint64_t)) /
                                     3);
  // Enough buckets that Phase 2 batches stay fine-grained (the paper
  // batched "thousands of buckets into one transfer"), capped so the
  // metadata and the sampling cost stay negligible.
  const std::uint64_t want =
      std::max<std::uint64_t>(64, g.nchunks * m.threads() * 8);
  g.num_buckets = static_cast<std::size_t>(std::min<std::uint64_t>(
      {want, nb_cap, 4096, std::max<std::uint64_t>(1, n / 4)}));

  const std::uint64_t batch_budget = cfg.overlap_dma ? usable / 2 : usable;
  g.batch_elems = std::max<std::uint64_t>(1024, batch_budget / sizeof(T));
  return g;
}

}  // namespace detail

// Sorts `input` into `output` (both far-resident, non-overlapping). This is
// the paper's layout: DRAM holds the input/run area and the final list.
template <typename T, typename Cmp = std::less<T>>
void nm_sort_into(Machine& m, std::span<const T> input, std::span<T> output,
                  NMSortOptions opt = {}, Cmp cmp = {}) {
  TLM_REQUIRE(input.size() == output.size(), "output must match input size");
  const std::uint64_t n = input.size();
  if (n == 0) return;
  TLM_REQUIRE(m.space_of(input.data()) == Space::Far &&
                  m.space_of(output.data()) == Space::Far,
              "NMsort operands live in far memory");
  m.adopt_far(input.data(), input.size_bytes());
  m.adopt_far(output.data(), output.size_bytes());

  const detail::NMGeometry g = detail::nm_geometry<T>(m, n);

  // ---- single-chunk fast path: the whole input fits in the scratchpad ----
  // (the paper's own Table I regime: the near memory "can store several
  // copies" of the array). Fused pipeline: run formation streams far->near,
  // intermediate merge passes stay in near, the final pass streams to far.
  if (g.nchunks == 1) {
    m.begin_phase("nmsort.phase1");
    // Near when available; under near pressure (genuine or injected) the
    // sort runs out of far memory instead — identical ordering decisions,
    // just without the bandwidth advantage.
    std::span<T> buf = m.alloc_array_near_or_far<T>(n);
    std::span<T> tmp = m.alloc_array_near_or_far<T>(n);
    const detail::RunLayout L = detail::plan_runs<T>(m, n);
    detail::finish_runs(m,
                        detail::form_and_merge(m, input.data(), buf.data(),
                                               tmp.data(), n, L, cmp),
                        output, cmp);
    m.free_array(tmp);
    m.free_array(buf);
    m.end_phase();
    return;
  }

  const std::size_t nb = g.num_buckets;
  const std::size_t npivots = nb - 1;

  // ---- pivot sample (§III-A) ---------------------------------------------
  m.begin_phase("nmsort.sample");
  std::span<T> pivots;
  if (npivots > 0) pivots = sample_pivots(m, input, npivots, opt.seed, cmp);
  // The pivots and bucket metadata are "scratchpad-resident throughout"
  // (§III-B): they intentionally live across every later phase, so tell the
  // model sanitizer they are not end-of-phase leaks. Under near pressure
  // they fall back to far memory, where retaining is a no-op.
  m.retain_across_phases(pivots.data());

  // Scratchpad-resident metadata (far-fallback under pressure).
  std::span<std::uint64_t> bucket_tot =
      m.alloc_array_near_or_far<std::uint64_t>(nb);
  m.retain_across_phases(bucket_tot.data());
  std::fill(bucket_tot.begin(), bucket_tot.end(), 0);
  m.stream_write(0, bucket_tot.data(), bucket_tot.size_bytes());
  std::span<std::uint64_t> pos_row =
      m.alloc_array_near_or_far<std::uint64_t>(nb + 1);
  m.retain_across_phases(pos_row.data());

  // Far-resident sorted-run area and BucketPos matrix (Fig. 2(d)).
  std::span<T> runs_area = m.alloc_array<T>(Space::Far, n);
  std::span<std::uint64_t> bucket_pos =
      m.alloc_array<std::uint64_t>(Space::Far, g.nchunks * (nb + 1));

  if (opt.use_bucket_metadata) {
    // ======================= Phase 1 (Fig. 2) ============================
    // Fused chunk pipeline: run formation streams the far chunk directly
    // into the scratchpad, intermediate merge passes ping-pong inside it,
    // bucket boundaries are computed against the near-resident runs, and
    // the final merge pass streams the sorted chunk to far memory — no
    // redundant staging copies.
    m.begin_phase("nmsort.phase1");
    std::span<T> chunk_buf = m.alloc_array_near_or_far<T>(g.chunk_elems);
    std::span<T> temp_buf = m.alloc_array_near_or_far<T>(g.chunk_elems);
    for (std::uint64_t c = 0; c < g.nchunks; ++c) {
      const std::uint64_t b = c * g.chunk_elems;
      const std::uint64_t len = std::min(g.chunk_elems, n - b);

      const detail::RunLayout L = detail::plan_runs<T>(m, len);
      const std::vector<Run<T>> rs =
          detail::form_and_merge(m, input.data() + b, chunk_buf.data(),
                                 temp_buf.data(), len, L, cmp)
              .all();

      // Bucket boundaries, in parallel across pivots: the position inside
      // the (about-to-be-merged) sorted chunk is the sum of per-run lower
      // bounds. Each worker sweeps its ascending pivot slice forward
      // through every run, so per (worker, run) the traffic is one
      // contiguous scratchpad stream over the swept span (the probes stay
      // inside lines the sweep touches anyway), plus the comparison work.
      pos_row[0] = 0;
      pos_row[nb] = len;
      if (npivots > 0) {
        m.parallel_for(1, nb, [&](std::size_t w, std::size_t lo,
                                  std::size_t hi) {
          std::vector<const T*> prev(rs.size());
          std::vector<const T*> sweep_from(rs.size());
          for (std::size_t j = 0; j < rs.size(); ++j) {
            prev[j] = std::lower_bound(rs[j].begin, rs[j].end,
                                       pivots[lo - 1], cmp);
            sweep_from[j] = prev[j];
          }
          std::uint64_t first_pos = 0;
          for (std::size_t j = 0; j < rs.size(); ++j)
            first_pos += static_cast<std::uint64_t>(prev[j] - rs[j].begin);
          pos_row[lo] = first_pos;
          for (std::size_t i = lo + 1; i < hi; ++i) {
            std::uint64_t pos = 0;
            for (std::size_t j = 0; j < rs.size(); ++j) {
              prev[j] = std::lower_bound(prev[j], rs[j].end, pivots[i - 1],
                                         cmp);
              pos += static_cast<std::uint64_t>(prev[j] - rs[j].begin);
            }
            pos_row[i] = pos;
          }
          const std::uint64_t line = m.config().block_bytes;
          for (std::size_t j = 0; j < rs.size(); ++j) {
            // Swept span plus one line of probe lookahead, clamped to the
            // run: a sweep that starts at (or reaches) the run's end has
            // nothing left to read, and charging past it would bill lines
            // the sweep never touches — possibly outside the allocation.
            const std::uint64_t swept =
                static_cast<std::uint64_t>(prev[j] - sweep_from[j]) *
                sizeof(T);
            const std::uint64_t rest =
                static_cast<std::uint64_t>(rs[j].end - sweep_from[j]) *
                sizeof(T);
            const std::uint64_t charge = std::min(swept + line, rest);
            if (charge) m.stream_read(w, sweep_from[j], charge);
          }
          m.compute(w, static_cast<double>(hi - lo) *
                           static_cast<double>(rs.size()) * 16.0);
        });
      }
      // Aggregate running bucket totals (BucketTot stays in near memory).
      m.parallel_for(0, nb, [&](std::size_t w, std::size_t lo,
                                std::size_t hi) {
        for (std::size_t i = lo; i < hi; ++i)
          bucket_tot[i] += pos_row[i + 1] - pos_row[i];
        m.stream_write(w, bucket_tot.data() + lo,
                       (hi - lo) * sizeof(std::uint64_t));
      });
      // Write the BucketPos row, then stream the sorted chunk to far memory
      // through the final merge pass (Fig. 2(b)).
      m.copy(0, bucket_pos.data() + c * (nb + 1), pos_row.data(),
             (nb + 1) * sizeof(std::uint64_t));
      parallel_multiway_merge(m, rs, runs_area.subspan(b, len), cmp);
    }
    m.free_array(temp_buf);
    m.free_array(chunk_buf);
    m.end_phase();

    // ======================= Phase 2 (Fig. 3) ============================
    // Pipelined when the machine has an overlapping DMA engine: the batch
    // schedule is planned up-front from BucketTot, the staging area is
    // double-buffered, and while all threads merge batch i out of one
    // buffer they also post the DMA gather of batch i+1 into the other.
    // The merge SPMD's join barrier is the transfer's completion fence, so
    // under `overlap_dma` the gather traffic hides behind the merge.
    m.begin_phase("nmsort.phase2");
    // The planner consults BucketTot (near) and BucketPos (far): charge one
    // streaming read of each.
    m.stream_read(0, bucket_tot.data(), bucket_tot.size_bytes());
    m.stream_read(0, bucket_pos.data(), bucket_pos.size_bytes());

    auto row = [&](std::uint64_t c) {
      return bucket_pos.data() + c * (nb + 1);
    };

    // Batch plan: greedy largest bucket prefix fitting one staging buffer,
    // with the oversized-bucket escape hatch (a single bucket larger than
    // the buffer is merged directly from far memory — correct, just
    // without the bandwidth advantage). Stager::plan is the same greedy
    // packing this function used to hand-roll.
    const std::uint64_t cap = std::min<std::uint64_t>(g.batch_elems, n);
    std::vector<std::uint64_t> bucket_bytes(nb);
    for (std::size_t i = 0; i < nb; ++i)
      bucket_bytes[i] = bucket_tot[i] * sizeof(T);
    const std::vector<Stager::Range> batches =
        Stager::plan(bucket_bytes, cap * sizeof(T));

    // A gather is a fixed set of (source slice, staging offset) pairs; the
    // same descriptors drive both the synchronous copy and the DMA
    // prefetch, so each batch's slices are computed once, up front.
    std::vector<Stager::Item> items;
    items.reserve(batches.size());
    for (std::size_t bi = 0; bi < batches.size(); ++bi) {
      const Stager::Range& bt = batches[bi];
      Stager::Item it;
      it.index = bi;
      it.bytes = bt.bytes;
      it.oversized = bt.oversized;
      if (!bt.oversized) {
        std::uint64_t fill = 0;
        for (std::uint64_t c = 0; c < g.nchunks; ++c) {
          const T* base = runs_area.data() + c * g.chunk_elems;
          const std::uint64_t lo = row(c)[bt.first], hi = row(c)[bt.last];
          if (lo >= hi) continue;
          it.slices.push_back(Stager::slice_of(base + lo, fill, hi - lo));
          fill += hi - lo;
        }
        TLM_CHECK(fill * sizeof(T) == bt.bytes, "batch gather size mismatch");
      }
      items.push_back(std::move(it));
    }

    // The Stager owns the whole staging recipe: double-buffering when two
    // batch buffers fit the usable scratchpad, per-worker DMA prefetch of
    // batch i+1 posted through the merge's per_worker hook (the merge
    // SPMD's join barrier is the transfer's completion fence), synchronous
    // gathers for the first batch and whenever the pipeline is cold, and
    // the restart after an oversized far-merge batch.
    const std::uint64_t usable = m.config().near_capacity - g.meta_bytes;
    Stager::Options sopt;
    sopt.buffer_bytes = cap * sizeof(T);
    sopt.elem_bytes = sizeof(T);
    sopt.double_buffer = 2 * cap * sizeof(T) <= usable;
    sopt.gather = Stager::Gather::kParallel;
    sopt.worker_hook = true;
    Stager stager(m, sopt);

    std::uint64_t out_off = 0;
    stager.run(items, [&](const Stager::Item& it, std::byte* data,
                          const Stager::WorkerHook& prefetch) {
      const Stager::Range& bt = batches[it.index];
      const std::uint64_t elems = bt.bytes / sizeof(T);
      if (data == nullptr) {
        std::vector<Run<T>> far_runs;
        for (std::uint64_t c = 0; c < g.nchunks; ++c) {
          const T* base = runs_area.data() + c * g.chunk_elems;
          const std::uint64_t lo = row(c)[bt.first], hi = row(c)[bt.last];
          if (lo < hi) far_runs.push_back(Run<T>{base + lo, base + hi});
        }
        parallel_multiway_merge(m, far_runs, output.subspan(out_off, elems),
                                cmp);
        out_off += elems;
        return;
      }
      T* dst = reinterpret_cast<T*>(data);
      std::vector<Run<T>> near_runs;
      near_runs.reserve(it.slices.size());
      for (const auto& s : it.slices) {
        T* p = dst + s.dst_off / sizeof(T);
        near_runs.push_back(Run<T>{p, p + s.bytes / sizeof(T)});
      }
      parallel_multiway_merge(m, near_runs, output.subspan(out_off, elems),
                              cmp, prefetch);
      out_off += elems;
    });
    TLM_CHECK(out_off == n, "phase 2 did not emit every element");
    stager.release();
    m.end_phase();
  } else {
    // ============== Naive eager-scatter variant (ablation) ===============
    // The §III/§IV-C behaviour NMsort improves on: after sorting each chunk,
    // append every bucket's elements to that bucket's far array immediately,
    // producing Θ(nchunks · nb) small DRAM transfers.
    m.begin_phase("nmsort.naive_scatter");
    // Every (chunk, bucket) piece becomes its own small far allocation and
    // transfer — the inefficiency NMsort's metadata removes. Segmented
    // storage keeps the variant robust even for fully degenerate inputs
    // (all keys in one bucket).
    std::vector<std::vector<std::span<T>>> pieces(nb);

    std::span<T> chunk_buf = m.alloc_array_near_or_far<T>(g.chunk_elems);
    for (std::uint64_t c = 0; c < g.nchunks; ++c) {
      const std::uint64_t b = c * g.chunk_elems;
      const std::uint64_t len = std::min(g.chunk_elems, n - b);
      std::span<T> chunk = chunk_buf.subspan(0, len);
      m.parallel_copy(chunk.data(), input.data() + b, len);
      multiway_merge_sort(m, chunk, cmp);
      detail::bucket_bounds(m, chunk.data(), len,
                            std::span<const T>(pivots), pos_row.data(), cmp);
      // The inefficient part: one small append per non-empty bucket.
      // (Allocation happens on the orchestrator; the copies — the modeled
      // traffic — run in parallel like the original's appends.)
      std::vector<std::span<T>> chunk_pieces(nb);
      for (std::size_t i = 0; i < nb; ++i) {
        const std::uint64_t cnt = pos_row[i + 1] - pos_row[i];
        if (cnt) chunk_pieces[i] = m.alloc_array<T>(Space::Far, cnt);
      }
      m.parallel_for(0, nb, [&](std::size_t w, std::size_t lo,
                                std::size_t hi) {
        for (std::size_t i = lo; i < hi; ++i) {
          if (chunk_pieces[i].empty()) continue;
          m.copy(w, chunk_pieces[i].data(), chunk.data() + pos_row[i],
                 chunk_pieces[i].size_bytes());
        }
      });
      for (std::size_t i = 0; i < nb; ++i)
        if (!chunk_pieces[i].empty()) pieces[i].push_back(chunk_pieces[i]);
    }
    m.free_array(chunk_buf);
    m.end_phase();

    m.begin_phase("nmsort.naive_merge");
    std::uint64_t out_off = 0;
    for (std::size_t i = 0; i < nb; ++i) {
      std::uint64_t bucket_total = 0;
      std::vector<Run<T>> rs;
      for (const auto& p : pieces[i]) {
        rs.push_back(Run<T>{p.data(), p.data() + p.size()});
        bucket_total += p.size();
      }
      if (bucket_total == 0) continue;
      parallel_multiway_merge(m, rs, output.subspan(out_off, bucket_total),
                              cmp);
      out_off += bucket_total;
      for (const auto& p : pieces[i]) m.free_array(Space::Far, p);
    }
    TLM_CHECK(out_off == n, "naive merge did not emit every element");
    m.end_phase();
  }

  // ---- cleanup -------------------------------------------------------------
  m.free_array(Space::Far, bucket_pos);
  m.free_array(Space::Far, runs_area);
  m.free_array(pos_row);
  m.free_array(bucket_tot);
  if (!pivots.empty()) m.free_array(pivots);
}

}  // namespace tlm::sort
