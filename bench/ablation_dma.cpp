// A3 — §VI-B/§VII future work: DMA engines that overlap far/near transfers
// with computation. The paper's prototype "simply waits for the transfer to
// complete... it is likely that the simulation results we present later
// could be nontrivially improved." This bench quantifies that headroom with
// the counting backend's overlap time model.
#include <iostream>

#include "analysis/experiment.hpp"
#include "bench_util.hpp"
#include "common/table.hpp"
#include "sim/dma.hpp"
#include "sim/system.hpp"

namespace tlm {
namespace {

using sort::Algorithm;

// Cycle-level demonstration: a DMA engine stages a chunk into the
// scratchpad while the cores compute — measured on the actual node model,
// sequential vs overlapped.
void sim_dma_demo(double rho) {
  sim::SystemConfig cfg = sim::SystemConfig::scaled(rho, 8);
  auto run = [&](bool overlap) {
    sim::Simulator sim;
    sim::Crossbar xbar(sim, cfg.noc);
    sim::FarMemory far(sim, cfg.far);
    sim::NearMemory near(sim, cfg.near);
    const std::size_t dep = xbar.add_endpoint("dma", cfg.group_port_bw);
    const std::size_t fep =
        xbar.add_endpoint("far", 2.4 * cfg.far.total_bw());
    const std::size_t nep =
        xbar.add_endpoint("near", 1.2 * cfg.near.total_bw);
    xbar.add_route(trace::kFarBase, trace::kNearBase, fep, &far);
    xbar.add_route(trace::kNearBase, ~0ULL, nep, &near);
    sim::DmaConfig dc;
    dc.max_outstanding = 64;
    sim::DmaEngine dma(sim, dc, xbar.port(dep));

    const std::uint64_t chunk = 1 << 20;  // stage 1 MiB
    const SimTime compute = from_seconds(
        static_cast<double>(chunk) / cfg.far.total_bw());  // ~equal work
    SimTime finish = 0;
    if (overlap) {
      bool dma_done = false, compute_done = false;
      dma.copy(trace::kFarBase, trace::kNearBase, chunk, [&] {
        dma_done = true;
        if (compute_done) finish = sim.now();
      });
      sim.schedule(compute, [&] {
        compute_done = true;
        if (dma_done) finish = sim.now();
      });
    } else {
      dma.copy(trace::kFarBase, trace::kNearBase, chunk, [&] {
        sim.schedule(compute, [&] { finish = sim.now(); });
      });
    }
    sim.run();
    return to_seconds(finish);
  };
  const double seq = run(false);
  const double par = run(true);
  std::cout << "cycle-sim DMA demo (rho=" << Table::num(rho, 0)
            << "): sequential " << Table::num(seq * 1e6, 1)
            << " us, overlapped " << Table::num(par * 1e6, 1) << " us -> "
            << Table::pct(1.0 - par / seq) << " saved\n";
}

// Modeled seconds of one named phase (0 when the run never entered it).
const PhaseStats* find_phase(const MachineStats& st, const std::string& name) {
  for (const PhaseStats& p : st.phases)
    if (p.name == name) return &p;
  return nullptr;
}

int run(const bench::Flags& flags) {
  const std::uint64_t n = flags.u64("--n", 1ULL << 20);
  const std::uint64_t near_cap = flags.u64("--near-mb", 2) * MiB;
  const std::size_t cores = static_cast<std::size_t>(flags.u64("--cores", 8));
  const std::uint64_t seed = flags.u64("--seed", 61);

  bench::banner("ablation_dma",
                "§VI-B/§VII: overlap of transfers and compute via DMA "
                "(future-work headroom)");

  Table t("NMsort with synchronous staging vs pipelined DMA gathers");
  t.header({"rho", "sync model (s)", "overlap model (s)", "improvement",
            "phase2 sync (s)", "phase2 dma (s)", "dma MiB", "imbalance"});
  bool always_helps = true;
  bool phase2_strictly_faster = true;
  for (double rho : {2.0, 4.0, 8.0}) {
    TwoLevelConfig cfg = analysis::scaled_counting_config(rho, cores,
                                                          near_cap);
    cfg.overlap_dma = false;
    const analysis::SortRun sync =
        analysis::run_sort_counting(cfg, Algorithm::NMsort, n, seed);
    cfg.overlap_dma = true;
    const analysis::SortRun dma =
        analysis::run_sort_counting(cfg, Algorithm::NMsort, n, seed);
    if (!sync.verified || !dma.verified) return 1;

    // The whole-run model may never regress; Phase 2 specifically — the
    // phase the double-buffered staging pipeline targets — must get
    // strictly faster, and the overlap run must actually post DMA traffic.
    const PhaseStats* p2s = find_phase(sync.counting, "nmsort.phase2");
    const PhaseStats* p2d = find_phase(dma.counting, "nmsort.phase2");
    always_helps &= dma.modeled_seconds <= sync.modeled_seconds * 1.0001;
    phase2_strictly_faster &= p2s && p2d && p2d->seconds() < p2s->seconds() &&
                              p2d->dma_bytes() > 0;
    t.row({Table::num(rho, 0), Table::num(sync.modeled_seconds, 6),
           Table::num(dma.modeled_seconds, 6),
           Table::pct(1.0 - dma.modeled_seconds / sync.modeled_seconds),
           Table::num(p2s ? p2s->seconds() : 0.0, 6),
           Table::num(p2d ? p2d->seconds() : 0.0, 6),
           Table::num(p2d ? static_cast<double>(p2d->dma_bytes()) / MiB : 0.0,
                      1),
           Table::num(p2d ? p2d->partition_imbalance_max() : 0.0, 3)});
  }
  std::cout << t;
  sim_dma_demo(4.0);
  std::cout << "shape: overlap never hurts end to end: "
            << (always_helps ? "yes" : "NO") << "\n";
  std::cout << "shape: pipelined staging strictly lowers Phase 2 time: "
            << (phase2_strictly_faster ? "yes" : "NO") << "\n";
  return always_helps && phase2_strictly_faster ? 0 : 1;
}

}  // namespace
}  // namespace tlm

int main(int argc, char** argv) {
  return tlm::run(tlm::bench::Flags(argc, argv));
}
