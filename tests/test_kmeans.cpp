// Tests for the §VII k-means extension: correctness of clustering, the
// far/near traffic split, and the ρ-speedup mechanism.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "common/rng.hpp"
#include "kmeans/kmeans.hpp"
#include "trace/capture.hpp"

namespace tlm::kmeans {
namespace {

TwoLevelConfig km_config(double rho = 4.0) {
  TwoLevelConfig c = test_config(rho);
  c.near_capacity = 8 * MiB;
  c.threads = 4;
  return c;
}

KMeansOptions opts(std::size_t k, std::size_t d) {
  KMeansOptions o;
  o.k = k;
  o.dims = d;
  o.max_iters = 25;
  o.seed = 77;
  return o;
}

TEST(KMeans, BlobsHaveExpectedShape) {
  auto pts = make_blobs(1000, 3, 4, 11);
  EXPECT_EQ(pts.size(), 3000u);
  // Deterministic per seed.
  EXPECT_EQ(pts, make_blobs(1000, 3, 4, 11));
  EXPECT_NE(pts, make_blobs(1000, 3, 4, 12));
}

TEST(KMeans, FarAndNearAgreeOnCentroids) {
  const auto pts = make_blobs(20000, 4, 8, 3);
  Machine mf(km_config());
  Machine mn(km_config());
  const auto rf = kmeans_far(mf, pts, opts(8, 4));
  const auto rn = kmeans_near(mn, pts, opts(8, 4));
  // Same seed, same data, same arithmetic: identical trajectories.
  EXPECT_EQ(rf.iterations, rn.iterations);
  EXPECT_DOUBLE_EQ(rf.inertia, rn.inertia);
  EXPECT_EQ(rf.centroids, rn.centroids);
}

TEST(KMeans, ConvergesOnSeparatedBlobs) {
  const auto pts = make_blobs(20000, 4, 4, 5);
  Machine m(km_config());
  const auto r = kmeans_far(m, pts, opts(4, 4));
  EXPECT_TRUE(r.converged);
  // Inertia per point should be on the order of the injected noise (<~ 50),
  // far below the blob separation scale (100^2).
  EXPECT_LT(r.inertia / 20000.0, 100.0);
}

TEST(KMeans, NearVersionMovesTrafficToScratchpad) {
  const auto pts = make_blobs(50000, 4, 8, 9);
  Machine mf(km_config());
  Machine mn(km_config());
  KMeansOptions o = opts(8, 4);
  o.max_iters = 10;
  o.tol = 0;  // force all iterations
  kmeans_far(mf, pts, o);
  kmeans_near(mn, pts, o);

  const auto sf = mf.stats().total;
  const auto sn = mn.stats().total;
  const std::uint64_t bytes = pts.size() * sizeof(double);
  // Far version streams the points from DRAM every iteration.
  EXPECT_GE(sf.far_read_bytes(), 10 * bytes);
  EXPECT_EQ(sf.near_bytes(), 0u);
  // Near version touches DRAM once (staging) and streams near thereafter.
  EXPECT_LT(sn.far_read_bytes(), 2 * bytes);
  EXPECT_GE(sn.near_read_bytes(), 10 * bytes);
}

TEST(KMeans, SpeedupApproachesRhoWhenMemoryBound) {
  const auto pts = make_blobs(100000, 4, 4, 13);
  KMeansOptions o = opts(4, 4);
  o.max_iters = 20;
  o.tol = 0;
  const double iters = static_cast<double>(o.max_iters);
  for (double rho : {2.0, 4.0, 8.0}) {
    TwoLevelConfig cfg = km_config(rho);
    cfg.core_rate = 1e13;  // make compute free: fully bandwidth bound
    Machine mf(cfg);
    Machine mn(cfg);
    kmeans_far(mf, pts, o);
    kmeans_near(mn, pts, o);
    const double speedup = mf.elapsed_seconds() / mn.elapsed_seconds();
    // Far version: `iters` DRAM passes. Near version: one staging pass
    // (DRAM read + near write) plus `iters` near passes at ρ× bandwidth.
    const double expected = iters / (1.0 + 1.0 / rho + iters / rho);
    EXPECT_NEAR(speedup, expected, expected * 0.15) << "rho=" << rho;
    EXPECT_LT(speedup, rho) << "rho=" << rho;  // staging keeps it below ρ
  }
}

TEST(KMeans, AssignmentsLabelEveryPointWithNearestCentroid) {
  const std::size_t n = 10'000;
  const auto pts = make_blobs(n, 3, 4, 21);
  Machine m(km_config());
  KMeansOptions o = opts(4, 3);
  o.produce_assignments = true;
  const auto r = kmeans_far(m, pts, o);
  ASSERT_EQ(r.assignments.size(), n);
  // Spot-check: each label is within range and is the argmin centroid.
  for (std::size_t i = 0; i < n; i += 997) {
    ASSERT_LT(r.assignments[i], 4u);
    double best = std::numeric_limits<double>::infinity();
    std::uint32_t best_c = 0;
    for (std::uint32_t c = 0; c < 4; ++c) {
      double dist = 0;
      for (std::size_t j = 0; j < 3; ++j) {
        const double diff = pts[i * 3 + j] - r.centroids[c * 3 + j];
        dist += diff * diff;
      }
      if (dist < best) {
        best = dist;
        best_c = c;
      }
    }
    EXPECT_EQ(r.assignments[i], best_c) << "point " << i;
  }
}

TEST(KMeans, AssignmentsOffByDefault) {
  const auto pts = make_blobs(2000, 3, 2, 22);
  Machine m(km_config());
  const auto r = kmeans_far(m, pts, opts(2, 3));
  EXPECT_TRUE(r.assignments.empty());
}

TEST(KMeans, StagedMatchesFarBitForBitBeyondNearCapacity) {
  // 2x / 4x / 8x the scratchpad: the staged variant streams the tail tiles
  // through Stager batches every iteration, yet the tile-ordered reduction
  // keeps its arithmetic identical to the far baseline.
  for (const std::size_t mult : {2u, 4u, 8u}) {
    TwoLevelConfig cfg = km_config();
    cfg.near_capacity = 256 * KiB;
    cfg.overlap_dma = true;
    const std::size_t n = mult * (256 * KiB) / (4 * sizeof(double));
    const auto pts = make_blobs(n, 4, 8, 31);
    Machine mf(km_config());
    Machine ms(cfg);
    KMeansOptions o = opts(8, 4);
    const auto rf = kmeans_far(mf, pts, o);
    const auto rs = kmeans_staged(ms, pts, o);
    EXPECT_EQ(rf.iterations, rs.iterations) << "mult=" << mult;
    EXPECT_DOUBLE_EQ(rf.inertia, rs.inertia) << "mult=" << mult;
    EXPECT_EQ(rf.centroids, rs.centroids) << "mult=" << mult;
    // The staged run actually staged: batches flowed through the pipeline
    // and (with overlap) most of the tail traffic rode the DMA engine.
    const StagerStats ss = ms.stager_stats();
    EXPECT_GT(ss.batches, 0u) << "mult=" << mult;
    EXPECT_GT(ss.prefetch_bytes, 0u) << "mult=" << mult;
    EXPECT_EQ(ss.fallback_direct, 0u) << "mult=" << mult;
  }
}

TEST(KMeans, StagedMatchesNearWhenEverythingFits) {
  const auto pts = make_blobs(20000, 4, 8, 3);
  Machine mn(km_config());
  Machine ms(km_config());
  const auto rn = kmeans_near(mn, pts, opts(8, 4));
  const auto rs = kmeans_staged(ms, pts, opts(8, 4));
  EXPECT_EQ(rn.iterations, rs.iterations);
  EXPECT_DOUBLE_EQ(rn.inertia, rs.inertia);
  EXPECT_EQ(rn.centroids, rs.centroids);
  // Degenerate case: the whole point set is resident, nothing staged.
  EXPECT_EQ(ms.stager_stats().batches, 0u);
}

TEST(KMeans, StagedWorksWithoutDmaOverlap) {
  TwoLevelConfig cfg = km_config();
  cfg.near_capacity = 256 * KiB;
  cfg.overlap_dma = false;  // single staging buffer, synchronous gathers
  const std::size_t n = 4 * (256 * KiB) / (4 * sizeof(double));
  const auto pts = make_blobs(n, 4, 8, 33);
  Machine mf(km_config());
  Machine ms(cfg);
  const auto rf = kmeans_far(mf, pts, opts(8, 4));
  const auto rs = kmeans_staged(ms, pts, opts(8, 4));
  EXPECT_EQ(rf.centroids, rs.centroids);
  EXPECT_DOUBLE_EQ(rf.inertia, rs.inertia);
  const StagerStats ss = ms.stager_stats();
  EXPECT_GT(ss.batches, 0u);
  EXPECT_EQ(ss.prefetch_bytes, 0u);
  EXPECT_GT(ss.sync_bytes, 0u);
  EXPECT_EQ(ms.stats().total.dma_bytes(), 0u);
}

TEST(KMeans, StagedAssignmentsMatchFar) {
  TwoLevelConfig cfg = km_config();
  cfg.near_capacity = 256 * KiB;
  cfg.overlap_dma = true;
  const std::size_t n = 2 * (256 * KiB) / (4 * sizeof(double));
  const auto pts = make_blobs(n, 4, 4, 37);
  Machine mf(km_config());
  Machine ms(cfg);
  KMeansOptions o = opts(4, 4);
  o.produce_assignments = true;
  const auto rf = kmeans_far(mf, pts, o);
  const auto rs = kmeans_staged(ms, pts, o);
  EXPECT_EQ(rf.assignments, rs.assignments);
}

TEST(KMeans, ForgyInitDrawsDistinctSeeds) {
  // Regression: with n barely above k, sampling indices with replacement
  // used to seed two centroids on the same point, permanently losing a
  // cluster. With distinct draws and n == k every point becomes its own
  // centroid and the first iteration already has zero inertia.
  const std::size_t k = 8;
  std::vector<double> pts;
  for (std::size_t i = 0; i < k; ++i) {
    pts.push_back(static_cast<double>(i * 13 % 29));
    pts.push_back(static_cast<double>(i * 7 % 23));
  }
  for (std::uint64_t seed : {1ull, 2ull, 3ull, 77ull, 1234567ull}) {
    Machine m(km_config());
    KMeansOptions o = opts(k, 2);
    o.seed = seed;
    const auto r = kmeans_far(m, pts, o);
    EXPECT_TRUE(r.converged) << "seed=" << seed;
    EXPECT_DOUBLE_EQ(r.inertia, 0.0) << "seed=" << seed;
  }
}

// ---- Oracle: a plain reference Lloyd -------------------------------------
//
// Every other test here compares the library's variants with each other,
// and they all share one classification kernel. This reference is written
// out independently: a point-by-centroid loop with an `if (dist < best)`
// select, the same 1024-point tiles, and the same tile-order fold. The
// library must agree with it bit for bit, which pins the arithmetic
// contract: each distance sums its d terms in order from 0, a strict `<`
// keeps the lowest centroid index on ties, each cluster's sums grow in
// point order within a tile, and the tiles fold in tile order.

struct Reference {
  std::vector<double> centroids;
  std::vector<std::uint32_t> assignments;
  std::size_t iterations = 0;
  double inertia = 0;
  bool converged = false;
};

std::uint32_t reference_nearest(const double* x,
                                const std::vector<double>& cents,
                                std::size_t k, std::size_t d, double& best) {
  best = std::numeric_limits<double>::infinity();
  std::uint32_t best_c = 0;
  for (std::size_t c = 0; c < k; ++c) {
    double dist = 0;
    for (std::size_t j = 0; j < d; ++j) {
      const double diff = x[j] - cents[c * d + j];
      dist += diff * diff;
    }
    if (dist < best) {
      best = dist;
      best_c = static_cast<std::uint32_t>(c);
    }
  }
  return best_c;
}

Reference reference_lloyd(const std::vector<double>& pts,
                          const KMeansOptions& o) {
  constexpr std::size_t kTile = 1024;
  const std::size_t d = o.dims;
  const std::size_t k = o.k;
  const std::size_t n = pts.size() / d;
  Reference r;
  // Forgy: k distinct indices drawn from the seed.
  Xoshiro256 rng(o.seed);
  std::vector<std::uint64_t> chosen;
  for (std::size_t c = 0; c < k; ++c) {
    std::uint64_t idx = rng.below(n);
    while (std::find(chosen.begin(), chosen.end(), idx) != chosen.end())
      idx = rng.below(n);
    chosen.push_back(idx);
    r.centroids.insert(r.centroids.end(), pts.begin() + idx * d,
                       pts.begin() + (idx + 1) * d);
  }
  for (std::size_t it = 0; it < o.max_iters; ++it) {
    std::vector<double> sum(k * d, 0.0);
    std::vector<std::uint64_t> count(k, 0);
    double inertia = 0;
    for (std::size_t t0 = 0; t0 < n; t0 += kTile) {
      std::vector<double> tile_sum(k * d, 0.0);
      double tile_inertia = 0;
      for (std::size_t i = t0; i < std::min(n, t0 + kTile); ++i) {
        double best;
        const std::uint32_t c =
            reference_nearest(&pts[i * d], r.centroids, k, d, best);
        for (std::size_t j = 0; j < d; ++j)
          tile_sum[c * d + j] += pts[i * d + j];
        ++count[c];
        tile_inertia += best;
      }
      for (std::size_t i = 0; i < k * d; ++i) sum[i] += tile_sum[i];
      inertia += tile_inertia;
    }
    r.iterations = it + 1;
    r.inertia = inertia;
    double shift = 0;
    for (std::size_t c = 0; c < k; ++c) {
      if (count[c] == 0) continue;
      for (std::size_t j = 0; j < d; ++j) {
        const double nc = sum[c * d + j] / static_cast<double>(count[c]);
        const double diff = nc - r.centroids[c * d + j];
        shift += diff * diff;
        r.centroids[c * d + j] = nc;
      }
    }
    if (shift < o.tol * o.tol) {
      r.converged = true;
      break;
    }
  }
  for (std::size_t i = 0; i < n; ++i) {
    double best;
    r.assignments.push_back(
        reference_nearest(&pts[i * d], r.centroids, k, d, best));
  }
  return r;
}

// Bit patterns, so NaN centroids compare equal to themselves.
std::vector<std::uint64_t> bits(const std::vector<double>& v) {
  std::vector<std::uint64_t> out;
  for (double x : v) out.push_back(std::bit_cast<std::uint64_t>(x));
  return out;
}

enum class Input { kBlobs, kDuplicates, kNonFinite };

// 2501 points: two full tiles and a partial third of odd length, so the
// kernel's last point pair has a spare lane in the sweeps too.
std::vector<double> oracle_points(Input kind, std::size_t d) {
  constexpr std::size_t n = 2501;
  if (kind == Input::kDuplicates) {
    // Five distinct points, each repeated: with k > 5 Forgy must seed
    // coincident centroids, and every tie between them goes to the lower
    // index.
    const auto base = make_blobs(5, d, 5, 41);
    std::vector<double> pts(n * d);
    for (std::size_t i = 0; i < n; ++i)
      std::copy_n(base.begin() + (i % 5) * d, d, pts.begin() + i * d);
    return pts;
  }
  auto pts = make_blobs(n, d, 6, 43);
  if (kind == Input::kNonFinite) {
    pts[3 * d] = std::numeric_limits<double>::quiet_NaN();
    pts[2000 * d + d - 1] = std::numeric_limits<double>::infinity();
  }
  return pts;
}

TEST(KMeansOracle, EveryVariantMatchesReferenceLloydBitForBit) {
  // d = 4 runs the compiled-in dimension count, the others the runtime
  // one. The staged scratchpad (2.5 tiles) holds one resident tile and one
  // staging buffer, so the other two tiles stream every sweep.
  std::size_t coincident = 0;  // centroid pairs the tie check covered
  for (const Input kind :
       {Input::kBlobs, Input::kDuplicates, Input::kNonFinite})
    for (const std::size_t d : {1u, 3u, 4u, 5u, 8u})
      for (const std::size_t k : {1u, 2u, 4u, 7u, 8u, 16u}) {
        const auto pts = oracle_points(kind, d);
        KMeansOptions o = opts(k, d);
        o.max_iters = 8;
        o.produce_assignments = true;
        const Reference want = reference_lloyd(pts, o);
        for (const std::size_t threads : {1u, 4u})
          for (int variant = 0; variant < 3; ++variant) {
            SCOPED_TRACE(::testing::Message()
                         << "input " << static_cast<int>(kind) << " d=" << d
                         << " k=" << k << " threads=" << threads
                         << " variant " << variant);
            TwoLevelConfig cfg = km_config();
            cfg.threads = threads;
            // Room for the points (at most 160 KB) and nothing more: a
            // Machine zero-fills its whole scratchpad, which is most of a
            // run's cost under a sanitizer.
            cfg.near_capacity = 256 * KiB;
            if (variant == 2) {
              cfg.near_capacity = 2560 * d * sizeof(double);
              cfg.overlap_dma = false;
            }
            Machine m(cfg);
            const KMeansResult got = variant == 0   ? kmeans_far(m, pts, o)
                                     : variant == 1 ? kmeans_near(m, pts, o)
                                                    : kmeans_staged(m, pts, o);
            if (variant == 2) {
              EXPECT_GT(m.stager_stats().batches, 0u);
            }
            EXPECT_EQ(got.iterations, want.iterations);
            EXPECT_EQ(got.converged, want.converged);
            EXPECT_EQ(std::bit_cast<std::uint64_t>(got.inertia),
                      std::bit_cast<std::uint64_t>(want.inertia));
            EXPECT_EQ(bits(got.centroids), bits(want.centroids));
            EXPECT_EQ(got.assignments, want.assignments);
          }
        if (kind == Input::kDuplicates) {
          // No point is labelled with a centroid that coincides with a
          // lower-indexed one.
          for (std::size_t hi = 1; hi < k; ++hi) {
            for (std::size_t lo = 0; lo < hi; ++lo) {
              if (!std::equal(want.centroids.begin() + hi * d,
                              want.centroids.begin() + (hi + 1) * d,
                              want.centroids.begin() + lo * d))
                continue;
              ++coincident;
              EXPECT_EQ(std::count(want.assignments.begin(),
                                   want.assignments.end(), hi),
                        0)
                  << "d=" << d << " k=" << k << " centroid " << hi;
            }
          }
        }
        if (kind == Input::kNonFinite) {
          EXPECT_FALSE(std::isfinite(want.inertia)) << "d=" << d << " k=" << k;
        }
      }
  EXPECT_GT(coincident, 0u);
}

TEST(KMeans, RejectsOversizedNearOperand) {
  TwoLevelConfig cfg = km_config();
  cfg.near_capacity = 1 * MiB;
  Machine m(cfg);
  const auto pts = make_blobs(1 << 18, 4, 2, 1);  // 8 MiB of doubles
  EXPECT_THROW(kmeans_near(m, pts, opts(2, 4)), std::invalid_argument);
}

TEST(KMeans, RejectsMisshapenInput) {
  Machine m(km_config());
  std::vector<double> pts(10);  // not divisible by dims=4
  EXPECT_THROW(kmeans_far(m, pts, opts(2, 4)), std::invalid_argument);
}

TEST(KMeans, EmptyInputIsRejectedBeforeAnySpmdSection) {
  const TwoLevelConfig cfg = km_config();
  trace::TraceBuffer tb(cfg.threads);
  Machine m(cfg, &tb);
  const std::span<const double> none;
  EXPECT_THROW(kmeans_near(m, none, opts(2, 4)), std::invalid_argument);
  EXPECT_THROW(kmeans_staged(m, none, opts(2, 4)), std::invalid_argument);
  EXPECT_EQ(tb.summary().barriers, 0u);
}

}  // namespace
}  // namespace tlm::kmeans
