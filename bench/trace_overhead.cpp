// trace.capture_overhead — the capture hot-path gate for the out-of-core
// trace layer (EXPERIMENTS.md row T1).
//
// Runs the same NMsort three times: with no trace sink (the cost floor),
// with the in-RAM TraceBuffer, and with the MappedLog mmap sink. Both sinks
// hold v3 records (trace/capture.hpp). Reports the encoded bytes per coalesced
// op and the capture slowdown of each sink against the no-sink run, and
// hard-fails when the v3 encoding exceeds the bytes/op budget — the property
// that makes Table-I-scale captures fit on disk. Each thread's mapped log,
// read back through ShardedReplay, must also hold exactly the TraceBuffer's
// bytes, or the "mapped capture is the in-RAM capture" contract broke.
//
// The baseline_gate ctest runs this with --json and diffs the deterministic
// counters (ops, encoded/spill bytes, chunk growths) at --max-changed=0
// against a checked-in baseline; the wall-clock slowdowns go in the
// report's `host` section, too noisy to gate on shared runners.
#include <algorithm>
#include <iostream>
#include <span>

#include "analysis/experiment.hpp"
#include "bench_util.hpp"
#include "common/table.hpp"

namespace tlm {
namespace {

using sort::Algorithm;

constexpr double kBytesPerOpBudget = 8.0;

int run(const bench::Flags& flags) {
  const bench::WallClock wall;
  const std::size_t cores = static_cast<std::size_t>(flags.u64("--cores", 4));
  const std::uint64_t n = flags.u64("--n", 200'000);
  const std::uint64_t near_cap = flags.u64("--near-kb", 512) * KiB;
  const std::uint64_t seed = flags.u64("--seed", 20150525);
  const double rho = flags.f64("--rho", 4.0);
  const std::string dir =
      flags.str("--trace-dir", "/tmp/tlm_trace_overhead");

  bench::banner("trace_overhead",
                "capture hot path: bytes/op + slowdown vs no sink");
  std::cout << "cores=" << cores << " n=" << n << " near=" << near_cap / KiB
            << "KiB rho=" << rho << "\n";

  const TwoLevelConfig cfg =
      analysis::scaled_counting_config(rho, cores, near_cap);

  obs::RunReport report("trace_overhead");
  report.params["cores"] = static_cast<std::uint64_t>(cores);
  report.params["n"] = n;
  report.params["near_capacity"] = near_cap;
  report.params["seed"] = seed;

  // 1) Cost floor: the identical run with no instrumentation stream.
  const analysis::SortRun base =
      analysis::run_sort_counting(cfg, Algorithm::NMsort, n, seed);

  // 2) In-RAM capture (the pre-v3 path).
  const analysis::CaptureRun ram =
      analysis::capture_sort_trace(cfg, Algorithm::NMsort, n, seed);

  // 3) Out-of-core capture through the mmap'd log.
  const analysis::MappedCaptureRun mapped = analysis::capture_sort_trace_mapped(
      cfg, Algorithm::NMsort, n, seed, dir);

  const bool all_verified =
      base.verified && ram.counting.verified && mapped.counting.verified;

  const trace::TraceSummary rs = ram.trace.summary();
  const trace::MappedLogStats& ml = mapped.log;
  const double bytes_per_op = ml.bytes_per_op();
  const double slowdown_ram =
      ram.counting.host_seconds / std::max(base.host_seconds, 1e-12);
  const double slowdown_mapped =
      mapped.counting.host_seconds / std::max(base.host_seconds, 1e-12);

  Table t("capture overhead (NMsort, identical run under three sinks)");
  t.header({"sink", "coalesced ops", "bytes", "bytes/op", "slowdown"});
  t.row({"none", "-", "-", "-", Table::num(1.0, 2)});
  const std::uint64_t ram_bytes = ram.trace.bytes();
  t.row({"TraceBuffer", Table::count(rs.total_ops()), Table::count(ram_bytes),
         Table::num(static_cast<double>(ram_bytes) /
                        static_cast<double>(std::max<std::uint64_t>(
                            rs.total_ops(), 1)),
                    2),
         Table::num(slowdown_ram, 2)});
  t.row({"MappedLog", Table::count(ml.ops), Table::count(ml.encoded_bytes),
         Table::num(bytes_per_op, 2), Table::num(slowdown_mapped, 2)});
  std::cout << t;

  // The mapped sink must write exactly the in-RAM sink's records, or its
  // logs would not replay to the in-RAM simulation.
  const trace::ShardedReplay replay(dir);
  bool streams_agree = replay.threads() == ram.trace.threads();
  for (std::size_t th = 0; streams_agree && th < replay.threads(); ++th) {
    const std::span<const std::uint8_t> a = ram.trace.log(th);
    const std::span<const std::uint8_t> b = replay.log(th);
    streams_agree = std::equal(a.begin(), a.end(), b.begin(), b.end());
  }
  std::cout << "gate: mapped/ram v3 logs byte-identical: "
            << (streams_agree ? "yes" : "NO") << "\n";
  std::cout << "gate: encoded bytes/op " << Table::num(bytes_per_op, 3)
            << " <= " << kBytesPerOpBudget << ": "
            << (bytes_per_op <= kBytesPerOpBudget ? "yes" : "NO") << " ("
            << Table::num(sizeof(trace::TraceOp) / bytes_per_op, 1)
            << "x smaller than a decoded TraceOp)\n";
  std::cout << "note: spilled " << ml.file_bytes / 1024 << " KiB across "
            << ml.chunks << " chunks\n";

  obs::RunRecord& rec = report.add_run("nmsort.capture_overhead");
  rec.set_config(cfg);
  rec.set_counting(mapped.counting.counting, cfg.block_bytes);
  rec.host["wall_seconds"] = mapped.counting.host_seconds;
  obs::export_stats(ml, rec);
  rec.gauges["verified"] = all_verified ? 1.0 : 0.0;
  rec.host["trace.capture_slowdown_ram"] = slowdown_ram;
  rec.host["trace.capture_slowdown_mapped"] = slowdown_mapped;
  bench::write_report_if_requested(flags, report, wall);

  return (all_verified && streams_agree &&
          bytes_per_op <= kBytesPerOpBudget)
             ? 0
             : 1;
}

}  // namespace
}  // namespace tlm

int main(int argc, char** argv) {
  return tlm::run(tlm::bench::Flags(argc, argv));
}
