// F2/F3 — Figs. 2 & 3: NMsort's two-phase structure. Prints the per-phase
// traffic/compute breakdown of a counting-backend run: the sample pass,
// Phase 1 (chunk sort + metadata), and Phase 2 (batched bucket merges),
// including the metadata overhead claim of §IV-D (<1% extra memory).
#include <iostream>

#include "analysis/experiment.hpp"
#include "bench_util.hpp"
#include "common/table.hpp"

namespace tlm {
namespace {

using sort::Algorithm;

int run(const bench::Flags& flags) {
  const std::uint64_t n = flags.u64("--n", 1ULL << 21);
  const std::uint64_t near_cap = flags.u64("--near-mb", 2) * MiB;
  const std::size_t cores = static_cast<std::size_t>(flags.u64("--cores", 8));
  const double rho = flags.f64("--rho", 4.0);

  bench::banner("fig23_nmsort_phases",
                "Figs. 2 & 3: NMsort phase-by-phase behaviour");

  const TwoLevelConfig cfg =
      analysis::scaled_counting_config(rho, cores, near_cap);
  const analysis::SortRun r =
      analysis::run_sort_counting(cfg, Algorithm::NMsort, n, 73);
  if (!r.verified) return 1;

  Table t("NMsort phase breakdown (n=" + std::to_string(n) +
          ", rho=" + Table::num(rho, 0) + ")");
  t.header({"phase", "far read", "far write", "near read", "near write",
            "compute ops", "model time (s)", "share"});
  for (const auto& ph : r.counting.phases) {
    t.row({ph.name, Table::count(ph.far_read_bytes()),
           Table::count(ph.far_write_bytes()),
           Table::count(ph.near_read_bytes()),
           Table::count(ph.near_write_bytes()),
           Table::count(static_cast<std::uint64_t>(ph.compute_ops_total())),
           Table::num(ph.seconds(), 6),
           Table::pct(ph.seconds() / r.modeled_seconds)});
  }
  std::cout << t;

  // §IV-D overhead argument: BucketPos metadata is Θ(M/B) per chunk.
  const auto& tot = r.counting.total;
  const std::uint64_t payload = 4 * n * 8;  // two read+write passes of data
  const std::uint64_t far_meta =
      tot.far_bytes() > payload ? tot.far_bytes() - payload : 0;
  std::cout << "metadata overhead: "
            << Table::pct(static_cast<double>(far_meta) /
                          static_cast<double>(payload))
            << " of the data traffic (paper argues <1% for 128-byte lines)\n";
  std::cout << "shape: phase1 dominates compute (the sort), phase2 is "
               "merge+stream; both stream the data exactly once each way\n";
  return 0;
}

}  // namespace
}  // namespace tlm

int main(int argc, char** argv) {
  return tlm::run(tlm::bench::Flags(argc, argv));
}
