// Capture-once / replay-many: record an algorithm's memory-op trace to
// per-thread memory-mapped logs, then replay it on several architectural
// variants — the standard SST co-design workflow (the hardware does not need
// the application to re-run for every design point).
//
//   $ ./examples/trace_capture_replay [n] [trace-dir]
#include <cstdlib>
#include <filesystem>
#include <iostream>

#include "analysis/experiment.hpp"
#include "common/table.hpp"
#include "sim/system.hpp"
#include "trace/replay.hpp"

int main(int argc, char** argv) {
  using namespace tlm;
  const std::uint64_t n =
      argc > 1 ? std::strtoull(argv[1], nullptr, 0) : 200'000;
  const std::string dir =
      argc > 2 ? argv[2] : "/tmp/nmsort_rho4_8core.tlmtrace";
  constexpr std::size_t kCores = 8;
  constexpr double kCaptureRho = 4.0;

  // --- capture phase: run NMsort once, record its behaviour --------------
  const TwoLevelConfig cfg =
      analysis::scaled_counting_config(kCaptureRho, kCores, 1 * MiB);
  const analysis::MappedCaptureRun cap = analysis::capture_sort_trace_mapped(
      cfg, sort::Algorithm::NMsort, n, /*seed=*/2015, dir);
  if (!cap.counting.verified) {
    std::cerr << "sort output failed verification\n";
    return 1;
  }
  std::cout << "captured " << cap.log.ops << " trace ops to " << dir << " ("
            << cap.log.file_bytes << " bytes on disk)\n\n";

  // --- replay phase: sweep hardware design points over the same trace ----
  const trace::ShardedReplay loaded(dir);
  Table t("one trace, many machines (design-point sweep)");
  t.header({"design point", "sim time (ms)", "DRAM acc", "scratch acc",
            "p95 latency (ns)"});
  struct Point {
    const char* name;
    double rho;
    std::uint32_t outstanding;
  };
  for (const Point& p :
       {Point{"scratchpad 2x", 2.0, 16}, Point{"scratchpad 4x", 4.0, 16},
        Point{"scratchpad 8x", 8.0, 16},
        Point{"8x + deeper MLP (64 outstanding)", 8.0, 64}}) {
    sim::SystemConfig sys = sim::SystemConfig::scaled(p.rho, kCores);
    sys.core.max_outstanding = p.outstanding;
    sim::System system(sys, loaded);
    const sim::SimReport r = system.run();
    t.row({p.name, Table::num(r.seconds * 1e3, 3),
           Table::count(r.far.accesses()), Table::count(r.near.accesses()),
           Table::num(r.latency_hist.p95() * 1e9, 0)});
  }
  std::cout << t;
  std::cout << "note: the trace was captured at rho="
            << Table::num(kCaptureRho, 0)
            << "; replaying it at other rho values varies the hardware "
               "while holding the software's transfer schedule fixed.\n";
  std::filesystem::remove_all(dir);
  return 0;
}
