// S4 — Theorem 6 validation: measured block transfers of the scratchpad
// sort (counting backend) against the closed-form bound, across N and ρ.
// "Memory access counts from simulations corroborate predicted performance"
// (abstract). We check the measured/predicted ratio stays within a constant
// band, i.e. the implementation achieves the bound's shape.
#include <iostream>
#include <span>

#include "analysis/experiment.hpp"
#include "bench_util.hpp"
#include "common/rng.hpp"
#include "common/table.hpp"
#include "memmodel/bounds.hpp"
#include "sort/scratchpad_sort.hpp"

namespace tlm {
namespace {

using sort::Algorithm;

int run(const bench::Flags& flags) {
  const std::uint64_t near_cap = flags.u64("--near-mb", 1) * MiB;
  const std::size_t cores = static_cast<std::size_t>(flags.u64("--cores", 4));
  const std::uint64_t seed = flags.u64("--seed", 47);

  bench::banner("theory_validation",
                "Theorem 6 (+ Lemma 4): measured block transfers vs the "
                "closed-form bounds");

  Table t("scratchpad sort: measured vs predicted block transfers");
  t.header({"n", "rho", "far blocks", "thm6 dram", "ratio", "near blocks",
            "thm6 scratch", "ratio"});

  bool in_band = true;
  for (double rho : {2.0, 4.0, 8.0}) {
    for (std::uint64_t n : {1ULL << 17, 1ULL << 19, 1ULL << 21}) {
      const TwoLevelConfig cfg =
          analysis::scaled_counting_config(rho, cores, near_cap);
      const analysis::SortRun r =
          analysis::run_sort_counting(cfg, Algorithm::NMsort, n, seed);
      if (!r.verified) return 1;

      const model::ScratchpadModel m = cfg.to_model(8, cfg.cache_bytes);
      const model::SortBound bound =
          model::scratchpad_sort_bound(m, static_cast<double>(n));

      const double far_ratio =
          static_cast<double>(r.counting.total.far_blocks()) /
          bound.dram_transfers;
      const double near_ratio =
          static_cast<double>(r.counting.total.near_blocks()) /
          bound.scratch_transfers;
      // Constant-factor band: the bound has all constants set to 1; the
      // implementation pays small constants (read+write per pass, metadata).
      in_band &= far_ratio > 0.5 && far_ratio < 16.0;
      in_band &= near_ratio > 0.1 && near_ratio < 16.0;

      t.row({std::to_string(n), Table::num(rho, 0),
             Table::count(r.counting.total.far_blocks()),
             Table::count(static_cast<std::uint64_t>(bound.dram_transfers)),
             Table::num(far_ratio, 2),
             Table::count(r.counting.total.near_blocks()),
             Table::count(
                 static_cast<std::uint64_t>(bound.scratch_transfers)),
             Table::num(near_ratio, 2)});
    }
  }
  std::cout << t;

  // The decisive shape check: within one ρ, the measured/predicted ratio
  // must stay flat as N grows 16x (same asymptotic growth).
  Table t2("ratio flatness across N (per rho)");
  t2.header({"rho", "far ratio n_min", "far ratio n_max", "drift"});
  for (double rho : {2.0, 4.0, 8.0}) {
    const TwoLevelConfig cfg =
        analysis::scaled_counting_config(rho, cores, near_cap);
    const model::ScratchpadModel m = cfg.to_model(8, cfg.cache_bytes);
    double first = 0, last = 0;
    for (std::uint64_t n : {1ULL << 17, 1ULL << 21}) {
      const analysis::SortRun r =
          analysis::run_sort_counting(cfg, Algorithm::NMsort, n, seed);
      const double ratio = static_cast<double>(r.counting.total.far_blocks()) /
                           model::scratchpad_sort_bound(
                               m, static_cast<double>(n))
                               .dram_transfers;
      (first == 0 ? first : last) = ratio;
    }
    const double drift = last / first;
    in_band &= drift > 0.4 && drift < 2.5;
    t2.row({Table::num(rho, 0), Table::num(first, 3), Table::num(last, 3),
            Table::num(drift, 3)});
  }
  std::cout << t2;

  // --- Lemma 5: bucketizing rounds vs sample size -------------------------
  // The recursion depth of the §III sort is O(log_m(N/M)) w.h.p.; shrink
  // the sample m and the measured depth must grow logarithmically.
  {
    Table tl("Lemma 5: measured recursion depth vs sample size m");
    tl.header({"m (pivots)", "log_m(N/fit)", "measured depth", "scans"});
    const TwoLevelConfig cfg =
        analysis::scaled_counting_config(4.0, cores, near_cap);
    Machine m(cfg);
    auto keys = random_keys(1 << 20, 2026);
    const double fit =
        static_cast<double>(cfg.near_capacity - cfg.near_capacity / 16) / 8 /
        2;
    for (std::size_t s : {2u, 4u, 16u, 256u}) {
      auto v = keys;
      sort::ScratchpadSortOptions opt;
      opt.sample_size = s;
      const sort::ScratchpadSortReport r =
          sort::scratchpad_sort(m, std::span<std::uint64_t>(v), opt);
      const double predicted =
          std::log(static_cast<double>(1 << 20) / fit) /
          std::log(static_cast<double>(s + 1));
      in_band &= static_cast<double>(r.max_depth) <= 3.0 * predicted + 2.0;
      tl.row({std::to_string(s), Table::num(predicted, 2),
              std::to_string(r.max_depth),
              Table::count(r.bucketizing_scans)});
    }
    std::cout << tl;
  }

  // --- Theorem 10: parallel block-transfer steps scale as 1/p' -----------
  // The scaled node (SystemConfig::scaled, read by scaled_counting_config)
  // grows far and near bandwidth with the core count, so modeled memory time
  // at p cores is (total steps)/p in the PEM sense; compute scales with p as
  // well. time(p)·p should stay ~constant.
  Table t3("Theorem 10: §IV-C parallel sort, time x cores across p'");
  t3.header({"p'", "model time (s)", "time x p'", "normalized"});
  double base_work = 0;
  bool parallel_ok = true;
  for (std::size_t p : {1ULL, 2ULL, 4ULL, 8ULL}) {
    const TwoLevelConfig cfg = analysis::scaled_counting_config(
        4.0, p, near_cap);
    const analysis::SortRun r = analysis::run_sort_counting(
        cfg, sort::Algorithm::ScratchpadPar, 1ULL << 19, seed);
    if (!r.verified) return 1;
    const double work = r.modeled_seconds * static_cast<double>(p);
    if (base_work == 0) base_work = work;
    const double norm = work / base_work;
    parallel_ok &= norm < 1.6;  // near-linear strong scaling
    t3.row({std::to_string(p), Table::num(r.modeled_seconds, 6),
            Table::num(work, 6), Table::num(norm, 3)});
  }
  std::cout << t3;
  std::cout << "shape: measured counts track Theorem 6 within constant "
               "factors across N and rho: "
            << (in_band ? "yes" : "NO") << "\n";
  std::cout << "shape: Theorem 10 parallel scaling (time x p' within 60% of "
               "flat): "
            << (parallel_ok ? "yes" : "NO") << "\n";
  return (in_band && parallel_ok) ? 0 : 1;
}

}  // namespace
}  // namespace tlm

int main(int argc, char** argv) {
  return tlm::run(tlm::bench::Flags(argc, argv));
}
