// F4/F5/F7 — Figs. 4, 5 & 7: the simulated node. Prints the Fig. 4
// parameter sheet of sim::SystemConfig::paper (the node table1_sst_sort
// --full runs) and checks it against Fig. 4's own numbers, audits the
// component inventory of the built system against the architectural diagram
// (cores : L1s : L2 groups : NoC endpoints : memory channels), and
// smoke-replays a one-op-per-core trace to prove the topology is fully
// connected. Each audit prints two `shape:` verdicts; any NO exits 1.
#include <iostream>
#include <string>

#include "bench_util.hpp"
#include "common/table.hpp"
#include "sim/system.hpp"

namespace tlm {
namespace {

int audit(double rho, std::size_t cores, bool replay) {
  sim::SystemConfig cfg = sim::SystemConfig::paper(rho, cores);

  Table p("Fig. 4 parameters (rho=" + Table::num(rho, 0) +
          ", cores=" + std::to_string(cores) + ")");
  p.header({"component", "parameter", "value"});
  p.row({"core", "clock", Table::num(cfg.core.freq_hz / 1e9, 2) + " GHz"});
  p.row({"L1", "size/ways/latency",
         std::to_string(cfg.l1.size_bytes / 1024) + " KB / " +
             std::to_string(cfg.l1.ways) + "-way / " +
             Table::num(to_seconds(cfg.l1.latency) * 1e9, 0) + " ns"});
  p.row({"L2 (per quad-core group)", "size/ways/latency",
         std::to_string(cfg.l2.size_bytes / 1024) + " KB / " +
             std::to_string(cfg.l2.ways) + "-way / " +
             Table::num(to_seconds(cfg.l2.latency) * 1e9, 0) + " ns"});
  p.row({"NoC", "hop latency / group port",
         Table::num(to_seconds(cfg.noc.hop_latency) * 1e9, 0) + " ns / " +
             Table::num(cfg.group_port_bw / 1e9, 0) + " GB/s"});
  p.row({"far memory", "channels x bw",
         std::to_string(cfg.far.channels) + " x " +
             Table::num(cfg.far.channel_bw / 1e9, 1) + " GB/s (" +
             Table::num(cfg.far.total_bw() / 1e9, 0) + " GB/s STREAM)"});
  p.row({"near memory", "channels / bw / latency",
         std::to_string(cfg.near.channels) + " / " +
             Table::num(cfg.near.total_bw / 1e9, 0) + " GB/s / " +
             Table::num(to_seconds(cfg.near.access_latency) * 1e9, 0) +
             " ns constant"});
  std::cout << p;
  const std::string at = "rho=" + Table::num(rho, 0) +
                         " cores=" + std::to_string(cores) + ": ";
  // Fig. 4's literals: 16 KB L1, 512 KB L2 per group, 72 GB/s group port,
  // 4 x 15 GB/s DDR channels, and a 50 ns scratchpad at rho x 60 GB/s.
  const bool sheet_ok =
      cfg.l1.size_bytes == 16 * 1024 && cfg.l2.size_bytes == 512 * 1024 &&
      cfg.group_port_bw == 72e9 && cfg.far.channels == 4 &&
      cfg.far.channel_bw == 15e9 && cfg.near.total_bw == rho * 60e9 &&
      cfg.near.access_latency == 50 * kNanosecond;
  std::cout << "shape: " << at
            << "parameter sheet is Fig. 4's (16 KB L1, 512 KB L2, 72 GB/s "
               "port, 4 x 15 GB/s far, rho x 60 GB/s near at 50 ns): "
            << (sheet_ok ? "yes" : "NO") << "\n";

  trace::TraceBuffer tr(cores);
  for (std::size_t t = 0; t < cores; ++t) {
    tr.on_read(t, trace::kFarBase + t * 4096, 256);
    tr.on_write(t, trace::kNearBase + t * 4096, 256);
    tr.on_barrier(t, 0);
  }
  sim::System sys(cfg, tr);
  const auto inv = sys.inventory();

  Table a("Fig. 5/7 component inventory audit");
  a.header({"component", "built", "expected", "ok"});
  auto check = [&](const char* name, std::size_t got, std::size_t want) {
    a.row({name, std::to_string(got), std::to_string(want),
           got == want ? "yes" : "NO"});
    return got == want;
  };
  bool ok = true;
  ok &= check("trace cores (Ariel)", inv.cores, cores);
  ok &= check("private L1 caches", inv.l1s, cores);
  ok &= check("shared L2 caches", inv.l2s, cores / 4);
  ok &= check("NoC endpoints (groups + 2 DCs + DMA)", inv.noc_endpoints,
              cores / 4 + 3);
  ok &= check("far DRAM channels", inv.far_channels, 4);
  ok &= check("near scratchpad channels", inv.near_channels,
              static_cast<std::size_t>(4 * rho));
  std::cout << a;
  std::cout << "shape: " << at << "component inventory matches Figs. 5/7: "
            << (ok ? "yes" : "NO") << "\n";

  if (replay) {
    const sim::SimReport r = sys.run();
    std::cout << "smoke replay: " << r.events << " events, "
              << Table::num(r.seconds * 1e6, 2) << " us simulated, far "
              << r.far.accesses() << " accesses, near " << r.near.accesses()
              << " accesses, all cores finished\n";
  }
  return ok && sheet_ok ? 0 : 1;
}

int run(const bench::Flags& flags) {
  bench::banner("fig5_topology_audit",
                "Figs. 4, 5, 7: simulation system parameters and "
                "architectural setup");
  int rc = 0;
  // The paper's three scratchpad variants (8/16/32 channels) on a
  // simulable 16-core slice, plus the full 256-core inventory (no replay).
  for (double rho : {2.0, 4.0, 8.0}) rc |= audit(rho, 16, true);
  rc |= audit(8.0, 256, flags.has("--full"));
  return rc;
}

}  // namespace
}  // namespace tlm

int main(int argc, char** argv) {
  return tlm::run(tlm::bench::Flags(argc, argv));
}
