// A2 — the §IV-D design ablation: BucketPos/BucketTot metadata vs the
// textbook eager bucket scatter. "Empirically, the number of elements
// destined for any given bucket might be small, so these appends can be
// inefficient... Without this innovation, we were unable to exploit the
// scratchpad effectively."
//
// The metric that separates them is the number of discrete DRAM transfer
// bursts (each paying access latency) and the block round-up waste — byte
// volume alone is similar.
#include <iostream>

#include "analysis/experiment.hpp"
#include "bench_util.hpp"
#include "common/table.hpp"

namespace tlm {
namespace {

using sort::Algorithm;

int run(const bench::Flags& flags) {
  const std::uint64_t n = flags.u64("--n", 1ULL << 20);
  const std::uint64_t near_cap = flags.u64("--near-mb", 1) * MiB;
  const std::size_t cores = static_cast<std::size_t>(flags.u64("--cores", 8));
  const std::uint64_t seed = flags.u64("--seed", 59);

  bench::banner("ablation_metadata",
                "§IV-D: bucket metadata (NMsort) vs eager per-bucket "
                "appends (the innovation NMsort needed)");

  Table t("Phase-1 strategy ablation");
  t.header({"rho", "variant", "far bursts", "far blocks", "far bytes",
            "model time (s)"});
  bool fewer_bursts = true, faster = true;
  for (double rho : {2.0, 8.0}) {
    const TwoLevelConfig cfg =
        analysis::scaled_counting_config(rho, cores, near_cap);
    const analysis::SortRun meta =
        analysis::run_sort_counting(cfg, Algorithm::NMsort, n, seed);
    const analysis::SortRun naive =
        analysis::run_sort_counting(cfg, Algorithm::NMsortNaive, n, seed);
    if (!meta.verified || !naive.verified) return 1;

    fewer_bursts &=
        meta.counting.total.far_bursts() * 4 < naive.counting.total.far_bursts();
    faster &= meta.modeled_seconds < naive.modeled_seconds;

    for (const auto* r : {&meta, &naive}) {
      t.row({Table::num(rho, 0),
             r == &meta ? "BucketPos metadata" : "eager scatter",
             Table::count(r->counting.total.far_bursts()),
             Table::count(r->counting.total.far_blocks()),
             Table::count(r->counting.total.far_bytes()),
             Table::num(r->modeled_seconds, 6)});
    }
  }
  std::cout << t;
  std::cout << "shape: metadata variant issues >4x fewer DRAM bursts: "
            << (fewer_bursts ? "yes" : "NO") << "\n";
  std::cout << "shape: metadata variant is faster end-to-end: "
            << (faster ? "yes" : "NO") << "\n";
  return (fewer_bursts && faster) ? 0 : 1;
}

}  // namespace
}  // namespace tlm

int main(int argc, char** argv) {
  return tlm::run(tlm::bench::Flags(argc, argv));
}
