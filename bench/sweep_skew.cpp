// S6 — skew sweep: NMsort across adversarial key distributions. The §IV-D
// Phase-2 merge used to split work by sampled value splitters, which on
// duplicate-heavy keys hands one thread the whole merge; the merge-path
// partitioner cuts on cross-run rank instead, so the balance (and therefore
// the modeled time) must be distribution-independent. For contrast, each
// row also shows what a value-based splitter would have done to the same
// runs ("value imbal": max part over ideal part, parts = cores).
#include <algorithm>
#include <iostream>
#include <span>
#include <vector>

#include "analysis/experiment.hpp"
#include "bench_util.hpp"
#include "common/rng.hpp"
#include "common/table.hpp"
#include "sort/sort.hpp"

namespace tlm {
namespace {

struct Dist {
  const char* name;
  void (*fill)(std::vector<std::uint64_t>&, Xoshiro256&);
};

const Dist kDists[] = {
    {"uniform",
     [](std::vector<std::uint64_t>& v, Xoshiro256& r) {
       for (auto& x : v) x = r.next();
     }},
    {"sorted",
     [](std::vector<std::uint64_t>& v, Xoshiro256&) {
       for (std::size_t i = 0; i < v.size(); ++i) v[i] = i;
     }},
    {"reverse",
     [](std::vector<std::uint64_t>& v, Xoshiro256&) {
       for (std::size_t i = 0; i < v.size(); ++i) v[i] = v.size() - i;
     }},
    {"all-equal",
     [](std::vector<std::uint64_t>& v, Xoshiro256&) {
       std::fill(v.begin(), v.end(), 7);
     }},
    {"few-distinct",
     [](std::vector<std::uint64_t>& v, Xoshiro256& r) {
       for (auto& x : v) x = r.below(4);
     }},
    {"organ-pipe",
     [](std::vector<std::uint64_t>& v, Xoshiro256&) {
       for (std::size_t i = 0; i < v.size(); ++i)
         v[i] = std::min(i, v.size() - i);
     }},
    {"zipf",
     [](std::vector<std::uint64_t>& v, Xoshiro256& r) {
       for (auto& x : v)
         x = static_cast<std::uint64_t>(v.size()) / (r.below(v.size()) + 1);
     }},
};

// What a value-based splitter would do to `parts` equal sorted runs of this
// key set: sample splitters, cut every run by value, and report the largest
// resulting part relative to ideal. 1.0 is perfect; `parts` means one
// thread inherited the entire merge.
double value_splitter_imbalance(Machine& m, const std::vector<std::uint64_t>& sorted,
                                std::size_t parts) {
  using sort::Run;
  const std::uint64_t n = sorted.size();
  if (n == 0 || parts < 2) return 1.0;
  std::vector<Run<std::uint64_t>> runs;
  for (std::size_t r = 0; r < parts; ++r) {
    const std::uint64_t b = n * r / parts, e = n * (r + 1) / parts;
    if (b < e) runs.push_back({sorted.data() + b, sorted.data() + e});
  }
  const auto splitters =
      sort::sample_splitters(m, 0, runs, parts, std::less<std::uint64_t>{});
  // Part j spans [splitter j-1, splitter j) across every run.
  std::vector<std::uint64_t> part(parts, 0);
  std::vector<std::uint64_t> prev(runs.size(), 0);
  for (std::size_t j = 0; j < parts; ++j) {
    for (std::size_t i = 0; i < runs.size(); ++i) {
      const std::uint64_t hi =
          j + 1 < parts
              ? static_cast<std::uint64_t>(
                    sort::split_runs_by_value(m, 0, runs, splitters[j],
                                              std::less<std::uint64_t>{})[i] -
                    runs[i].begin)
              : runs[i].size();
      part[j] += hi - prev[i];
      prev[i] = hi;
    }
  }
  const std::uint64_t worst = *std::max_element(part.begin(), part.end());
  return static_cast<double>(worst) /
         (static_cast<double>(n) / static_cast<double>(parts));
}

int run(const bench::Flags& flags) {
  const std::uint64_t n = flags.u64("--n", 1ULL << 20);
  const std::uint64_t near_cap = flags.u64("--near-mb", 2) * MiB;
  const std::size_t cores = static_cast<std::size_t>(flags.u64("--cores", 8));
  const std::uint64_t seed = flags.u64("--seed", 67);

  bench::banner("sweep_skew",
                "merge-path partitioning: NMsort balance and modeled time "
                "across key distributions");

  Table t("NMsort (overlap_dma) across key distributions, n=" +
          std::to_string(n) + ", p=" + std::to_string(cores));
  t.header({"distribution", "model (s)", "vs uniform", "phase2 imbal",
            "value imbal", "splits"});

  double uniform_s = 0;
  double worst_ratio = 1.0, worst_imbal = 0.0;
  bool sorted_ok = true;
  for (const Dist& d : kDists) {
    TwoLevelConfig cfg =
        analysis::scaled_counting_config(4.0, cores, near_cap);
    cfg.overlap_dma = true;
    Machine m(cfg);
    std::vector<std::uint64_t> keys(n), out(n);
    Xoshiro256 rng(seed);
    d.fill(keys, rng);
    sort::nm_sort_into(m, std::span<const std::uint64_t>(keys),
                       std::span<std::uint64_t>(out));
    m.end_phase();
    sorted_ok &= std::is_sorted(out.begin(), out.end());

    const MachineStats st = m.stats();
    double imbal = 0.0;
    std::uint64_t splits = 0;
    for (const PhaseStats& p : st.phases) {
      if (p.name != "nmsort.phase2") continue;
      imbal = std::max(imbal, p.partition_imbalance_max());
      splits += p.partition_splits();
    }
    const double secs = st.total.seconds();
    if (std::string_view(d.name) == "uniform") uniform_s = secs;
    const double ratio = uniform_s > 0 ? secs / uniform_s : 1.0;
    worst_ratio = std::max(worst_ratio, ratio);
    worst_imbal = std::max(worst_imbal, imbal);

    // The hypothetical value-splitter cut runs on a throwaway machine so
    // its probe charges stay out of the measured run.
    Machine probe(cfg);
    const double vimbal = value_splitter_imbalance(probe, out, cores);

    t.row({d.name, Table::num(secs, 6), Table::num(ratio, 3),
           Table::num(imbal, 3), Table::num(vimbal, 2),
           std::to_string(splits)});
  }
  std::cout << t;

  // Shape checks: every output sorted; merge-path balance exact on every
  // distribution (up to the ceil-rounding of an indivisible total, which
  // is at most p/total above 1); modeled time distribution-independent to
  // first order (identical traffic, only comparison-count noise differs).
  const bool balanced = worst_imbal <= 1.0 + 1e-3;
  const bool flat = worst_ratio <= 1.25;
  std::cout << "shape: all outputs sorted: " << (sorted_ok ? "yes" : "NO")
            << "\n";
  std::cout << "shape: merge-path balance exact on every distribution: "
            << (balanced ? "yes" : "NO") << "\n";
  std::cout << "shape: modeled time within 25% of uniform on every "
               "distribution: "
            << (flat ? "yes" : "NO") << "\n";
  return sorted_ok && balanced && flat ? 0 : 1;
}

}  // namespace
}  // namespace tlm

int main(int argc, char** argv) {
  return tlm::run(tlm::bench::Flags(argc, argv));
}
