#include "kmeans/kmeans.hpp"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstring>
#include <functional>
#include <limits>
#include <optional>

#include "common/assert.hpp"
#include "common/rng.hpp"
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

// Two doubles in one 16-byte vector, and the two 64-bit integers a
// comparison of two Pairs gives (all ones or all zeros per lane), which
// also hold the lanes' centroid indices. The default x86-64 target (SSE2)
// keeps either in an XMM register and does each +, −, × and < on both
// lanes at once; every lane op is the scalar IEEE op, so a lane computes
// bit for bit what a scalar loop computes.
using Pair = double __attribute__((vector_size(2 * sizeof(double))));
using Lanes = decltype(Pair{} < Pair{});

// Point and sum rows with a runtime d are only 8-byte aligned, so pairs
// move through memcpy, which compiles to one unaligned load or store.
Pair load_pair(const double* p) {
  Pair v{};
  std::memcpy(&v, p, sizeof v);
  return v;
}

void store_pair(double* p, Pair v) { std::memcpy(p, &v, sizeof v); }

// The centroids with every coordinate twice, {y[c][j], y[c][j]} at
// (c·d + j)·2, so that one load hands the same coordinate to both lanes.
std::vector<double> pair_centroids(const std::vector<double>& cents) {
  std::vector<double> paired(2 * cents.size());
  for (std::size_t i = 0; i < cents.size(); ++i)
    paired[2 * i] = paired[2 * i + 1] = cents[i];
  return paired;
}

// The one nearest-centroid kernel. Classifies the `npts` points of `pts`
// (row-major, d coordinates each) against the k centroids of `paired`
// (pair_centroids' layout) and returns the sum of each point's squared
// distance to its centroid, added in point order. With `sums`/`counts` it
// adds every point to its cluster's coordinate sums and count, in point
// order; with `labels` it stores every point's centroid index.
//
// The arithmetic is the contract the far, near and staged variants (and
// the reference Lloyd in the tests) share bit for bit: each distance
// starts at 0 and adds its d terms in order j = 0, 1, ...; a strict `<`
// keeps the lowest centroid index on ties, so a NaN distance never wins.
// Points i and i+1 take the two lanes of a Pair, and each lane runs that
// arithmetic for its own point: its distances, and its select over the
// centroids in index order. An odd last point fills both lanes, and the
// spare lane is never read. (Lanes over points rather than centroids make
// the select two-wide too.) The select is branch-free, because which
// centroid wins is data and mispredicts as a branch: a lane's best becomes
// `dist < best ? dist : best` (SSE2's minpd), and the lane takes centroid
// c exactly where that made its best fall. Then, point by point, the sums
// add two coordinates a Pair, each lane one coordinate's scalar add. D = 4
// fixes d at compile time (the dims every bench, example and server job
// uses); D = 0 reads `d` at run time.
template <std::size_t D>
double classify(const double* __restrict pts, std::size_t npts,
                const double* __restrict paired, std::size_t k, std::size_t d,
                double* __restrict sums, std::uint64_t* __restrict counts,
                std::uint32_t* __restrict labels) {
  const std::size_t dim = D != 0 ? D : d;
  constexpr double kInf = std::numeric_limits<double>::infinity();
  double inertia = 0;
  for (std::size_t i = 0; i < npts; i += 2) {
    const std::size_t lanes = std::min<std::size_t>(2, npts - i);
    const double* x[2] = {pts + i * dim, pts + (i + lanes - 1) * dim};
    Pair best = {kInf, kInf};
    Lanes best_c = {0, 0};
    Lanes c_lanes = {0, 0};
    const double* __restrict y = paired;
    for (std::size_t c = 0; c < k; ++c, y += 2 * dim, c_lanes += 1) {
      Pair dist = {0, 0};
      for (std::size_t j = 0; j < dim; ++j) {
        const Pair diff = Pair{x[0][j], x[1][j]} - load_pair(y + 2 * j);
        dist += diff * diff;
      }
      const Pair prev = best;
      best = dist < best ? dist : best;
      best_c = best < prev ? c_lanes : best_c;
    }
    for (std::size_t l = 0; l < lanes; ++l) {
      const auto c = static_cast<std::size_t>(best_c[l]);
      if (sums != nullptr) {
        double* __restrict s = sums + c * dim;
        std::size_t j = 0;
        for (; j + 2 <= dim; j += 2)
          store_pair(s + j, load_pair(s + j) + load_pair(x[l] + j));
        if (j < dim) s[j] += x[l][j];
        counts[c] += 1;
      }
      if (labels != nullptr) labels[i + l] = static_cast<std::uint32_t>(c);
      inertia += best[l];
    }
  }
  return inertia;
}

double classify_points(const double* pts, std::size_t npts,
                       const double* paired, std::size_t k, std::size_t d,
                       double* sums, std::uint64_t* counts,
                       std::uint32_t* labels) {
  return d == 4 ? classify<4>(pts, npts, paired, k, d, sums, counts, labels)
                : classify<0>(pts, npts, paired, k, d, sums, counts, labels);
}

// Classifies the points of tiles [first_tile, last_tile) against the
// `paired` centroids (pair_centroids' layout), filling each tile's
// accumulator slot. `base` points at the first point of tile `first_tile`
// and may live in either space; each worker is charged one streaming read
// over its contiguous tile range plus the k·d·3 flops per point.
void tile_pass(Machine& m, const double* base, std::size_t first_tile,
               std::size_t last_tile, std::size_t n,
               const std::vector<double>& paired, TileAcc& acc) {
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
      const std::size_t t_lo = t * kTilePoints;
      const std::size_t t_hi = std::min(n, t_lo + kTilePoints);
      acc.inertia[t] = classify_points(
          base + (t_lo - first_tile * kTilePoints) * d, t_hi - t_lo,
          paired.data(), k, d, sums, counts, nullptr);
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
  const std::vector<double> paired = pair_centroids(res.centroids);
  m.parallel_for(0, n, [&](std::size_t w, std::size_t lo, std::size_t hi) {
    m.stream_read(w, pts + lo * d, (hi - lo) * d * sizeof(double));
    classify_points(pts + lo * d, hi - lo, paired.data(), k, d, nullptr,
                    nullptr, res.assignments.data() + lo);
    m.stream_write(w, res.assignments.data() + lo,
                   (hi - lo) * sizeof(std::uint32_t));
    m.compute(w, static_cast<double>(hi - lo) * static_cast<double>(k) *
                     static_cast<double>(d) * 3.0);
  });
}

// One Lloyd "sweep": classify every point against the given centroids, in
// pair_centroids' layout, filling the tile accumulator. The three entry
// points differ only here — where the points live and how they reach the
// cores.
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
    sweep(pair_centroids(res.centroids), acc);
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
            [&](const std::vector<double>& paired, TileAcc& acc) {
              tile_pass(m, points.data(), 0, ntiles, n, paired, acc);
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
  m.parallel_copy(near.data(), points.data(), points.size());

  m.begin_phase("kmeans.near");
  KMeansResult res =
      lloyd(m, near.data(), n, points, opt,
            [&](const std::vector<double>& paired, TileAcc& acc) {
              tile_pass(m, near.data(), 0, ntiles, n, paired, acc);
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
  const std::uint64_t usable = m.config().usable_near();

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
      m.parallel_copy(resident.data(), points.data(), r_pts * d);
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
      [&](const std::vector<double>& paired, TileAcc& acc) {
        if (r_pts > 0)
          tile_pass(m, resident.empty() ? points.data() : resident.data(), 0,
                    resident_tiles, n, paired, acc);
        if (stager)
          stager->run(items, [&](const Stager::Item& it, std::byte* data,
                                 const Stager::WorkerHook&) {
            const std::size_t ts = resident_tiles + it.index * batch_tiles;
            const std::size_t te = std::min(ntiles, ts + batch_tiles);
            // Null data = the stager's direct-from-far rung: classify the
            // batch straight out of far memory.
            const double* base = data ? reinterpret_cast<const double*>(data)
                                      : points.data() + ts * kTilePoints * d;
            tile_pass(m, base, ts, te, n, paired, acc);
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
