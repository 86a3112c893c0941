// racecheck.overhead — analyzer cost on a Table-I-scale capture.
//
// Captures one NMsort run (DMA overlap on, so the trace carries real
// descriptors), then times analyze::racecheck() over the in-RAM stream a
// few times and reports wall-clock per million trace ops. Two gates: the
// capture must analyze clean (a finding on the production sort is a bug in
// either the sort or the analyzer — both block), and the report must
// serialize. The deterministic analyzer counters (ops, accesses, DMA
// descriptors, fences, epochs, pairs checked) are diffed at
// --max-changed=0 against bench/baselines/racecheck_quick.json by the
// baseline_gate ctest; the timing itself is a gauge, reported but never
// gated — host time is the perf ledger's (perfledger/).
#include <algorithm>
#include <chrono>
#include <iostream>

#include "analysis/experiment.hpp"
#include "analyze/racecheck.hpp"
#include "bench_util.hpp"
#include "common/table.hpp"

namespace tlm {
namespace {

using analysis::Algorithm;

int run(const bench::Flags& flags) {
  const bench::WallClock wall;
  const std::size_t cores = static_cast<std::size_t>(flags.u64("--cores", 4));
  const std::uint64_t n = flags.u64("--n", 200'000);
  const std::uint64_t near_cap = flags.u64("--near-kb", 256) * KiB;
  const std::uint64_t seed = flags.u64("--seed", 20150525);
  const double rho = flags.f64("--rho", 4.0);
  const int repeat = static_cast<int>(flags.u64("--repeat", 3));

  bench::banner("racecheck_overhead",
                "happens-before analyzer wall-clock per million trace ops");
  std::cout << "cores=" << cores << " n=" << n << " near=" << near_cap / KiB
            << "KiB rho=" << rho << " repeat=" << repeat << "\n";

  TwoLevelConfig cfg = analysis::scaled_counting_config(rho, cores, near_cap);
  cfg.overlap_dma = true;  // descriptors in the trace, so the DMA detectors run

  const analysis::CaptureRun cap =
      analysis::capture_sort_trace(cfg, Algorithm::NMsort, n, seed);

  analyze::RacecheckReport rep;
  double best_seconds = 0;
  for (int i = 0; i < std::max(repeat, 1); ++i) {
    const auto t0 = std::chrono::steady_clock::now();
    rep = analyze::racecheck(cap.trace);
    const double s =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    best_seconds = (i == 0) ? s : std::min(best_seconds, s);
  }

  const double mops = static_cast<double>(rep.stats.ops) / 1e6;
  const double sec_per_mop = best_seconds / std::max(mops, 1e-9);

  Table t("racecheck over one NMsort capture (best of " +
          std::to_string(repeat) + ")");
  t.header({"ops", "accesses", "dmas", "epochs", "pairs", "ms", "s/Mop"});
  t.row({Table::count(rep.stats.ops), Table::count(rep.stats.accesses),
         Table::count(rep.stats.dmas), Table::count(rep.stats.epochs),
         Table::count(rep.stats.pairs_checked),
         Table::num(best_seconds * 1e3, 2), Table::num(sec_per_mop, 4)});
  std::cout << t;
  std::cout << "gate: capture analyzes clean: "
            << (rep.clean() ? "yes" : "NO") << "\n";
  if (!rep.clean()) analyze::print(rep, std::cout);

  obs::RunReport report("racecheck_overhead");
  report.params["cores"] = static_cast<std::uint64_t>(cores);
  report.params["n"] = n;
  report.params["near_capacity"] = near_cap;
  report.params["seed"] = seed;

  obs::RunRecord& rec = report.add_run("nmsort.racecheck_overhead");
  rec.set_config(cfg);
  rec.set_counting(cap.counting.counting, cfg.block_bytes);
  rec.wall_seconds = best_seconds;
  obs::MetricsRegistry reg;
  reg.counter("racecheck.ops").add(rep.stats.ops);
  reg.counter("racecheck.accesses").add(rep.stats.accesses);
  reg.counter("racecheck.dmas").add(rep.stats.dmas);
  reg.counter("racecheck.fences").add(rep.stats.fences);
  reg.counter("racecheck.epochs").add(rep.stats.epochs);
  reg.counter("racecheck.pairs_checked").add(rep.stats.pairs_checked);
  reg.counter("racecheck.findings").add(rep.findings.size());
  rec.add_metrics(reg);
  rec.gauges["verified"] = cap.counting.verified ? 1.0 : 0.0;
  rec.gauges["racecheck.seconds_per_mop"] = sec_per_mop;
  bench::write_report_if_requested(flags, report, wall);

  return (rep.clean() && cap.counting.verified) ? 0 : 1;
}

}  // namespace
}  // namespace tlm

int main(int argc, char** argv) {
  return tlm::run(tlm::bench::Flags(argc, argv));
}
