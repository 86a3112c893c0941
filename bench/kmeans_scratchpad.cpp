// K1 — §VII extension: scratchpad-aware k-means. "All our k-means
// algorithms run a factor of ρ faster using scratchpad for many sizes of
// data and k." Sweeps ρ and k; for small k (bandwidth-bound) the near
// version approaches a ρ× speedup; for large k (compute-bound) the
// advantage evaporates — the same memory-bound story as the sort.
//
// K2 — out-of-core: points 2–8× the scratchpad, clustered with
// kmeans_staged (resident tile prefix + double-buffered DMA-prefetched
// batches). The staged variant must match the far baseline bit-for-bit and
// beat it on modeled time, with the win largest when most of the data fits.
#include <iostream>

#include "bench_util.hpp"
#include "common/table.hpp"
#include "kmeans/kmeans.hpp"
#include "memmodel/membound.hpp"

namespace tlm {
namespace {

// A 4-core slice of the paper's node (x : y preserved). Unlike sort
// comparisons, k-means' multiply-adds vectorize: ~8 flops/cycle per core.
// Small k is then firmly bandwidth-bound, large k compute-bound.
TwoLevelConfig km_config(double rho) {
  TwoLevelConfig cfg = test_config(rho);
  cfg.near_capacity = 8 * MiB;
  cfg.threads = 4;
  cfg.far_bw = 60.0 * GB * 4 / 256;
  cfg.core_rate = 8.0 * 1.7e9;
  return cfg;
}

kmeans::KMeansOptions km_opts(std::size_t k, std::size_t dims,
                              std::size_t iters) {
  kmeans::KMeansOptions opt;
  opt.k = k;
  opt.dims = dims;
  opt.max_iters = iters;
  opt.tol = 0;  // fixed iteration count for a clean comparison
  opt.seed = 71;
  return opt;
}

void record_counting(obs::RunReport& report, const std::string& name,
                     const Machine& m) {
  obs::RunRecord& rec = report.add_run(name);
  rec.set_config(m.config());
  rec.set_counting(m.stats(), m.config().block_bytes);
  obs::export_stats(m.stager_stats(), rec);
  obs::export_stats(m.fault_stats(), rec);
}

// The resident-vs-far sweep of the original K1 table.
bool run_resident_sweep(const bench::Flags& flags, obs::RunReport& report) {
  const std::size_t npoints =
      static_cast<std::size_t>(flags.u64("--points", 100'000));
  const std::size_t dims = static_cast<std::size_t>(flags.u64("--dims", 4));
  const std::size_t iters = static_cast<std::size_t>(flags.u64("--iters", 16));

  Table t("k-means: far-streaming vs scratchpad-resident");
  t.header({"rho", "k", "far model (s)", "near model (s)", "speedup",
            "regime"});
  bool small_k_wins = true;
  for (double rho : {2.0, 4.0, 8.0}) {
    for (std::size_t k : {4ULL, 16ULL, 256ULL}) {
      const TwoLevelConfig cfg = km_config(rho);
      const kmeans::KMeansOptions opt = km_opts(k, dims, iters);
      const auto pts = kmeans::make_blobs(npoints, dims, k, 5);
      Machine mf(cfg);
      Machine mn(cfg);
      const auto rf = kmeans::kmeans_far(mf, pts, opt);
      const auto rn = kmeans::kmeans_near(mn, pts, opt);
      if (rf.centroids != rn.centroids) return false;  // identical paths

      const std::string tag =
          "rho" + Table::num(rho, 0) + ".k" + std::to_string(k);
      record_counting(report, "K1.far." + tag, mf);
      record_counting(report, "K1.near." + tag, mn);

      const double speedup = mf.elapsed_seconds() / mn.elapsed_seconds();
      // Per-element compute grows with k; the kernel is bandwidth-bound
      // while streaming the elements is slower than processing them.
      const double aggregate_rate =
          cfg.core_rate * static_cast<double>(cfg.threads);
      const double elem_rate = cfg.far_bw / sizeof(double);
      const double flops_per_elem = 3.0 * static_cast<double>(k);
      // memory time (1/elem_rate per element) exceeds compute time
      // (flops_per_elem/aggregate_rate per element):
      const bool bandwidth_bound =
          aggregate_rate > elem_rate * flops_per_elem;
      // Bandwidth-bound expectation: far pays `iters` DRAM passes, near one
      // staging pass plus `iters` passes at rho x bandwidth. The measured
      // speedup must track it (it sits slightly below: seeding reads and
      // the centroid update are charged on top).
      const double expected = static_cast<double>(iters) /
                              (1.0 + 1.0 / rho +
                               static_cast<double>(iters) / rho);
      if (k == 4) small_k_wins &= speedup > 0.8 * expected;
      t.row({Table::num(rho, 0), std::to_string(k),
             Table::num(mf.elapsed_seconds(), 6),
             Table::num(mn.elapsed_seconds(), 6), Table::num(speedup, 3),
             bandwidth_bound ? "bandwidth-bound" : "compute-heavy"});
    }
  }
  std::cout << t;
  std::cout << "shape: bandwidth-bound (small k) speedup approaches rho; "
               "compute-heavy (large k) speedup approaches 1\n";
  std::cout << "shape: small-k speedup tracks the staging+iteration model: "
            << (small_k_wins ? "yes" : "NO") << "\n";
  return small_k_wins;
}

// Out-of-core sweep: points at 2x/4x/8x the scratchpad, staged variant vs
// the far-streaming baseline on the same machine.
bool run_staged_sweep(const bench::Flags& flags, obs::RunReport& report) {
  const std::size_t dims = static_cast<std::size_t>(flags.u64("--dims", 4));
  const std::size_t iters = static_cast<std::size_t>(flags.u64("--iters", 16));
  const std::size_t k = 4;  // bandwidth-bound regime
  const double rho = 4.0;

  Table t("out-of-core k-means: far-streaming vs staged tiles");
  t.header({"points/M", "far model (s)", "staged model (s)", "speedup",
            "resident near MB", "prefetch MB"});
  bool staged_wins = true;
  double prev_speedup = 1e300;
  for (const std::size_t mult : {2ULL, 4ULL, 8ULL}) {
    TwoLevelConfig cfg = km_config(rho);
    cfg.near_capacity = 2 * MiB;
    cfg.overlap_dma = true;  // the staged pipeline's DMA engine
    const std::size_t npoints =
        mult * cfg.near_capacity / (dims * sizeof(double));
    const kmeans::KMeansOptions opt = km_opts(k, dims, iters);
    const auto pts = kmeans::make_blobs(npoints, dims, k, 5);

    Machine mf(cfg);
    Machine ms(cfg);
    const auto rf = kmeans::kmeans_far(mf, pts, opt);
    const auto rs = kmeans::kmeans_staged(ms, pts, opt);
    if (rf.centroids != rs.centroids || rf.inertia != rs.inertia) {
      std::cout << "ERROR: staged centroids diverge from far at " << mult
                << "x\n";
      return false;
    }

    const std::string tag = "x" + std::to_string(mult);
    record_counting(report, "K2.far." + tag, mf);
    record_counting(report, "K2.staged." + tag, ms);

    const double speedup = mf.elapsed_seconds() / ms.elapsed_seconds();
    // The staged variant streams only the non-resident tail over DRAM (and
    // overlaps it with near-bandwidth processing), so it must always beat
    // the far baseline — and by the most when the resident fraction is
    // largest (smallest multiple).
    staged_wins &= speedup > 1.0 && speedup <= prev_speedup;
    prev_speedup = speedup;
    const StagerStats ss = ms.stager_stats();
    staged_wins &= ss.prefetch_bytes > 0;
    t.row({std::to_string(mult) + "x",
           Table::num(mf.elapsed_seconds(), 6),
           Table::num(ms.elapsed_seconds(), 6), Table::num(speedup, 3),
           Table::num(static_cast<double>(ms.stats().total.near_read_bytes()) /
                          static_cast<double>(MiB) /
                          static_cast<double>(iters),
                      2),
           Table::num(static_cast<double>(ss.prefetch_bytes) /
                          static_cast<double>(MiB),
                      2)});
  }
  std::cout << t;
  std::cout << "shape: staged beats far everywhere, win shrinking as the "
               "non-resident tail grows: "
            << (staged_wins ? "yes" : "NO") << "\n";
  return staged_wins;
}

int run(const bench::Flags& flags) {
  bench::WallClock wall;
  bench::banner("kmeans_scratchpad",
                "§VII: scratchpad k-means runs a factor of rho faster for "
                "many sizes of data and k");
  obs::RunReport report("kmeans_scratchpad");
  report.params["points"] = flags.u64("--points", 100'000);
  report.params["dims"] = flags.u64("--dims", 4);
  report.params["iters"] = flags.u64("--iters", 16);

  const bool resident_ok = run_resident_sweep(flags, report);
  const bool staged_ok = run_staged_sweep(flags, report);
  bench::write_report_if_requested(flags, report, wall);
  return resident_ok && staged_ok ? 0 : 1;
}

}  // namespace
}  // namespace tlm

int main(int argc, char** argv) {
  return tlm::run(tlm::bench::Flags(argc, argv));
}
