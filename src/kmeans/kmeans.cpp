#include "kmeans/kmeans.hpp"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <functional>
#include <limits>
#include <optional>

#include "common/assert.hpp"
#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "scratchpad/stager.hpp"

namespace tlm::kmeans {

namespace {

// Points are reduced in fixed tiles of this many points. Each tile gets its
// own accumulator slot, and the orchestrator folds the slots in global tile
// order — a reduction tree that depends only on n, never on thread count,
// point residency, or staging batch boundaries. That is what lets the far,
// near, and staged variants promise bit-identical centroids and inertia.
constexpr std::size_t kTilePoints = 1024;

struct Partial {
  std::vector<double> sum;           // k × d
  std::vector<std::uint64_t> count;  // k
  double inertia = 0;
};

// Per-tile accumulator slots, flat so workers write disjoint ranges.
struct TileAcc {
  std::size_t k = 0, d = 0;
  std::vector<double> sums;           // ntiles × k × d
  std::vector<std::uint64_t> counts;  // ntiles × k
  std::vector<double> inertia;        // ntiles
  void init(std::size_t ntiles, std::size_t k_, std::size_t d_) {
    k = k_;
    d = d_;
    sums.assign(ntiles * k * d, 0.0);
    counts.assign(ntiles * k, 0);
    inertia.assign(ntiles, 0.0);
  }
};

// Classifies the points of tiles [first_tile, last_tile) against
// `centroids`, filling each tile's accumulator slot. `base` points at the
// first point of tile `first_tile` and may live in either space; each
// worker is charged one streaming read over its contiguous tile range plus
// the k·d·3 flops per point.
void tile_pass(Machine& m, const double* base, std::size_t first_tile,
               std::size_t last_tile, std::size_t n,
               const std::vector<double>& centroids, TileAcc& acc) {
  const std::size_t d = acc.d;
  const std::size_t k = acc.k;
  m.parallel_for(first_tile, last_tile,
                 [&](std::size_t w, std::size_t lo, std::size_t hi) {
    if (lo >= hi) return;
    const std::size_t p_lo = lo * kTilePoints;
    const std::size_t p_hi = std::min(n, hi * kTilePoints);
    const double* wbase = base + (p_lo - first_tile * kTilePoints) * d;
    m.stream_read(w, wbase, (p_hi - p_lo) * d * sizeof(double));
    for (std::size_t t = lo; t < hi; ++t) {
      double* sums = acc.sums.data() + t * k * d;
      std::uint64_t* counts = acc.counts.data() + t * k;
      std::fill(sums, sums + k * d, 0.0);
      std::fill(counts, counts + k, 0);
      double tile_inertia = 0;
      const std::size_t t_lo = t * kTilePoints;
      const std::size_t t_hi = std::min(n, t_lo + kTilePoints);
      for (std::size_t i = t_lo; i < t_hi; ++i) {
        const double* x = base + (i - first_tile * kTilePoints) * d;
        double best = std::numeric_limits<double>::infinity();
        std::size_t best_c = 0;
        for (std::size_t c = 0; c < k; ++c) {
          double dist = 0;
          for (std::size_t j = 0; j < d; ++j) {
            const double diff = x[j] - centroids[c * d + j];
            dist += diff * diff;
          }
          if (dist < best) {
            best = dist;
            best_c = c;
          }
        }
        for (std::size_t j = 0; j < d; ++j) sums[best_c * d + j] += x[j];
        counts[best_c] += 1;
        tile_inertia += best;
      }
      acc.inertia[t] = tile_inertia;
    }
    m.compute(w, static_cast<double>(p_hi - p_lo) * static_cast<double>(k) *
                     static_cast<double>(d) * 3.0);
  });
}

// Final labeling pass: assign every point to its nearest centroid and
// stream the labels to far memory.
void label_points(Machine& m, const double* pts, std::size_t n,
                  KMeansResult& res, const KMeansOptions& opt) {
  const std::size_t d = opt.dims;
  const std::size_t k = opt.k;
  res.assignments.assign(n, 0);
  m.adopt_far(res.assignments.data(), n * sizeof(std::uint32_t));
  m.parallel_for(0, n, [&](std::size_t w, std::size_t lo, std::size_t hi) {
    m.stream_read(w, pts + lo * d, (hi - lo) * d * sizeof(double));
    for (std::size_t i = lo; i < hi; ++i) {
      const double* x = pts + i * d;
      double best = std::numeric_limits<double>::infinity();
      std::uint32_t best_c = 0;
      for (std::size_t c = 0; c < k; ++c) {
        double dist = 0;
        for (std::size_t j = 0; j < d; ++j) {
          const double diff = x[j] - res.centroids[c * d + j];
          dist += diff * diff;
        }
        if (dist < best) {
          best = dist;
          best_c = static_cast<std::uint32_t>(c);
        }
      }
      res.assignments[i] = best_c;
    }
    m.stream_write(w, res.assignments.data() + lo,
                   (hi - lo) * sizeof(std::uint32_t));
    m.compute(w, static_cast<double>(hi - lo) * static_cast<double>(k) *
                     static_cast<double>(d) * 3.0);
  });
}

// One Lloyd "sweep": classify every point against the given centroids,
// filling the tile accumulator. The three entry points differ only here —
// where the points live and how they reach the cores.
using SweepFn = std::function<void(const std::vector<double>&, TileAcc&)>;

KMeansResult lloyd(Machine& m, const double* label_pts, std::size_t n,
                   std::span<const double> seed_source,
                   const KMeansOptions& opt, const SweepFn& sweep) {
  const std::size_t d = opt.dims;
  const std::size_t k = opt.k;
  TLM_REQUIRE(k >= 1 && d >= 1 && n >= k, "need at least k points");

  // Forgy initialization from the original (far) data. Draws must be
  // distinct: a duplicate index would seed two centroids on the same point
  // and permanently lose a cluster before the first iteration.
  KMeansResult res;
  res.centroids.resize(k * d);
  Xoshiro256 rng(opt.seed);
  std::vector<std::uint64_t> chosen;
  chosen.reserve(k);
  for (std::size_t c = 0; c < k; ++c) {
    std::uint64_t idx = rng.below(n);
    while (std::find(chosen.begin(), chosen.end(), idx) != chosen.end())
      idx = rng.below(n);
    chosen.push_back(idx);
    m.stream_read(0, seed_source.data() + idx * d, d * sizeof(double));
    for (std::size_t j = 0; j < d; ++j)
      res.centroids[c * d + j] = seed_source[idx * d + j];
  }

  const std::size_t ntiles = (n + kTilePoints - 1) / kTilePoints;
  TileAcc acc;
  acc.init(ntiles, k, d);
  for (std::size_t it = 0; it < opt.max_iters; ++it) {
    sweep(res.centroids, acc);
    // Fold the tile slots in global tile order (see kTilePoints).
    Partial p;
    p.sum.assign(k * d, 0.0);
    p.count.assign(k, 0);
    for (std::size_t t = 0; t < ntiles; ++t) {
      const double* s = acc.sums.data() + t * k * d;
      const std::uint64_t* cnt = acc.counts.data() + t * k;
      for (std::size_t i = 0; i < k * d; ++i) p.sum[i] += s[i];
      for (std::size_t c = 0; c < k; ++c) p.count[c] += cnt[c];
      p.inertia += acc.inertia[t];
    }
    res.iterations = it + 1;
    res.inertia = p.inertia;
    double shift = 0;
    for (std::size_t c = 0; c < k; ++c) {
      if (p.count[c] == 0) continue;  // empty cluster: keep old centroid
      for (std::size_t j = 0; j < d; ++j) {
        const double nc = p.sum[c * d + j] / static_cast<double>(p.count[c]);
        const double diff = nc - res.centroids[c * d + j];
        shift += diff * diff;
        res.centroids[c * d + j] = nc;
      }
    }
    m.compute(0, static_cast<double>(k) * static_cast<double>(d) * 4.0);
    if (shift < opt.tol * opt.tol) {
      res.converged = true;
      break;
    }
  }
  if (opt.produce_assignments) label_points(m, label_pts, n, res, opt);
  return res;
}

}  // namespace

KMeansResult kmeans_far(Machine& m, std::span<const double> points,
                        const KMeansOptions& opt) {
  TLM_REQUIRE(points.size() % opt.dims == 0, "points must be n × dims");
  m.adopt_far(points.data(), points.size_bytes());
  const std::size_t n = points.size() / opt.dims;
  const std::size_t ntiles = (n + kTilePoints - 1) / kTilePoints;
  m.begin_phase("kmeans.far");
  KMeansResult res =
      lloyd(m, points.data(), n, points, opt,
            [&](const std::vector<double>& centroids, TileAcc& acc) {
              tile_pass(m, points.data(), 0, ntiles, n, centroids, acc);
            });
  m.end_phase();
  return res;
}

KMeansResult kmeans_near(Machine& m, std::span<const double> points,
                         const KMeansOptions& opt) {
  TLM_REQUIRE(points.size() % opt.dims == 0, "points must be n × dims");
  TLM_REQUIRE(points.size_bytes() <= m.config().near_capacity,
              "scratchpad k-means needs the points to fit in near memory");
  m.adopt_far(points.data(), points.size_bytes());
  const std::size_t n = points.size() / opt.dims;
  const std::size_t ntiles = (n + kTilePoints - 1) / kTilePoints;

  m.begin_phase("kmeans.stage");
  std::span<double> near = m.alloc_array<double>(Space::Near, points.size());
  // The staged copy stays scratchpad-resident through the iterate phase.
  m.retain_across_phases(near.data());
  m.run_spmd([&](std::size_t w) {
    auto [lo, hi] = ThreadPool::chunk(points.size(), w, m.threads());
    if (lo < hi)
      m.copy(w, near.data() + lo, points.data() + lo,
             (hi - lo) * sizeof(double));
  });

  m.begin_phase("kmeans.near");
  KMeansResult res =
      lloyd(m, near.data(), n, points, opt,
            [&](const std::vector<double>& centroids, TileAcc& acc) {
              tile_pass(m, near.data(), 0, ntiles, n, centroids, acc);
            });
  m.end_phase();
  m.free_array(Space::Near, near);
  return res;
}

KMeansResult kmeans_staged(Machine& m, std::span<const double> points,
                           const KMeansOptions& opt) {
  TLM_REQUIRE(points.size() % opt.dims == 0, "points must be n × dims");
  m.adopt_far(points.data(), points.size_bytes());
  const std::size_t d = opt.dims;
  const std::size_t n = points.size() / d;
  const std::size_t ntiles = (n + kTilePoints - 1) / kTilePoints;
  const std::uint64_t tile_bytes = kTilePoints * d * sizeof(double);
  // Same headroom rule as the sorts: keep a sliver of the scratchpad free
  // for incidental near allocations.
  const std::uint64_t usable =
      m.config().near_capacity - m.config().near_capacity / 16;

  m.begin_phase("kmeans.staged");

  // Split the scratchpad budget between a resident prefix of tiles (staged
  // once, reread every iteration at near bandwidth) and one or two staging
  // buffers that stream the remaining tiles from far each iteration. When
  // everything fits, the tail is empty and this degenerates to kmeans_near.
  std::size_t resident_tiles = ntiles;
  std::size_t batch_tiles = 0;
  const bool all_fit = points.size_bytes() <= usable;
  if (!all_fit) {
    const std::uint64_t nbufs = m.config().overlap_dma ? 2 : 1;
    batch_tiles =
        static_cast<std::size_t>(std::max<std::uint64_t>(1, usable / 8 / tile_bytes));
    TLM_REQUIRE(nbufs * batch_tiles * tile_bytes <= usable,
                "staged k-means needs scratchpad room for its staging "
                "buffers (one tile each)");
    resident_tiles = static_cast<std::size_t>(
        (usable - nbufs * batch_tiles * tile_bytes) / tile_bytes);
  }

  const std::size_t r_pts = std::min(n, resident_tiles * kTilePoints);
  std::span<double> resident;
  if (r_pts > 0) {
    // Under near pressure (genuine or injected) the resident prefix simply
    // stays in far memory and is reread from there every sweep — slower,
    // but the tile-ordered reduction keeps the result bit-identical.
    if (auto buf = m.try_alloc_near<double>(r_pts * d)) {
      resident = *buf;
      m.run_spmd([&](std::size_t w) {
        auto [lo, hi] = ThreadPool::chunk(r_pts * d, w, m.threads());
        if (lo < hi)
          m.copy(w, resident.data() + lo, points.data() + lo,
                 (hi - lo) * sizeof(double));
      });
    }
  }

  // Tail tiles stream through the stager in tile-aligned batches; each
  // batch is one contiguous far range, hence a single gather slice.
  std::vector<Stager::Item> items;
  if (!all_fit) {
    for (std::size_t ts = resident_tiles; ts < ntiles; ts += batch_tiles) {
      const std::size_t te = std::min(ntiles, ts + batch_tiles);
      const std::size_t p_lo = ts * kTilePoints;
      const std::size_t p_hi = std::min(n, te * kTilePoints);
      Stager::Item it;
      it.index = items.size();
      it.bytes = (p_hi - p_lo) * d * sizeof(double);
      it.slices.push_back(
          Stager::slice_of(points.data() + p_lo * d, 0, (p_hi - p_lo) * d));
      items.push_back(std::move(it));
    }
  }

  std::optional<Stager> stager;
  if (!items.empty()) {
    Stager::Options sopt;
    sopt.buffer_bytes = batch_tiles * tile_bytes;
    sopt.elem_bytes = sizeof(double);
    sopt.double_buffer = m.config().overlap_dma;
    sopt.gather = Stager::Gather::kParallel;
    // The processing step is a plain parallel_for with no per-worker hook
    // plumbing, so the stager posts prefetches from the orchestrator; the
    // tile pass's join barrier fences them.
    sopt.worker_hook = false;
    stager.emplace(m, sopt);
  }

  KMeansResult res = lloyd(
      m, points.data(), n, points, opt,
      [&](const std::vector<double>& centroids, TileAcc& acc) {
        if (r_pts > 0)
          tile_pass(m, resident.empty() ? points.data() : resident.data(), 0,
                    resident_tiles, n, centroids, acc);
        if (stager)
          stager->run(items, [&](const Stager::Item& it, std::byte* data,
                                 const Stager::WorkerHook&) {
            const std::size_t ts = resident_tiles + it.index * batch_tiles;
            const std::size_t te = std::min(ntiles, ts + batch_tiles);
            // Null data = the stager's direct-from-far rung: classify the
            // batch straight out of far memory.
            const double* base = data ? reinterpret_cast<const double*>(data)
                                      : points.data() + ts * kTilePoints * d;
            tile_pass(m, base, ts, te, n, centroids, acc);
          });
      });

  if (stager) stager->release();
  if (!resident.empty()) m.free_array(Space::Near, resident);
  m.end_phase();
  return res;
}

std::vector<double> make_blobs(std::size_t n, std::size_t dims, std::size_t k,
                               std::uint64_t seed) {
  TLM_REQUIRE(n >= 1 && dims >= 1 && k >= 1, "bad blob geometry");
  Xoshiro256 rng(seed);
  // Blob centres on a coarse lattice, spread >> intra-blob noise.
  std::vector<double> centres(k * dims);
  for (auto& c : centres) c = 100.0 * static_cast<double>(rng.below(64));
  std::vector<double> pts(n * dims);
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t c = rng.below(k);
    for (std::size_t j = 0; j < dims; ++j) {
      // Sum of uniforms ≈ Gaussian noise, cheap and deterministic.
      const double noise = (rng.uniform01() + rng.uniform01() +
                            rng.uniform01() - 1.5) *
                           4.0;
      pts[i * dims + j] = centres[c * dims + j] + noise;
    }
  }
  return pts;
}

}  // namespace tlm::kmeans
