// Quickstart: sort 64-bit keys on a user-controlled two-level memory node.
//
//   $ ./examples/quickstart [n]
//
// Walks through the core API in ~60 lines: configure the node, create a
// Machine (far heap + scratchpad arena + cores + traffic accounting), run
// NMsort and the single-level baseline, and read the phase-level accounts.
#include <algorithm>
#include <cstdlib>
#include <iostream>
#include <span>
#include <vector>

#include "common/rng.hpp"
#include "common/table.hpp"
#include "scratchpad/machine.hpp"
#include "sort/sort.hpp"

int main(int argc, char** argv) {
  using namespace tlm;
  const std::size_t n = argc > 1 ? std::strtoull(argv[1], nullptr, 0)
                                 : 1'000'000;

  // 1. Describe the node: scratchpad capacity M, line size B, bandwidth
  //    expansion rho, far bandwidth, cores.
  TwoLevelConfig cfg;
  cfg.near_capacity = 4 * MiB;   // M
  cfg.block_bytes = 64;          // B
  cfg.rho = 4.0;                 // scratchpad = 4x DRAM bandwidth
  cfg.far_bw = 8.0 * GB;         // far-memory STREAM bandwidth
  cfg.cache_bytes = 128 * KiB;   // Z (drives run sizing / merge fan-in)
  cfg.threads = 4;               // p cores

  // 2. A Machine owns the two memory spaces and the worker pool.
  Machine machine(cfg);

  // 3. Far-resident input (any heap memory works; adopt_far registers it).
  std::vector<std::uint64_t> keys = random_keys(n, /*seed=*/2015);
  std::vector<std::uint64_t> sorted(n);

  // 4. Sort through the scratchpad (NMsort, §IV-D of the paper).
  sort::nm_sort_into(machine,
                     std::span<const std::uint64_t>(keys),
                     std::span<std::uint64_t>(sorted));
  machine.end_phase();

  if (!std::is_sorted(sorted.begin(), sorted.end())) {
    std::cerr << "output is not sorted!\n";
    return 1;
  }

  // 5. Read the accounts: traffic and modeled time, per phase.
  const MachineStats st = machine.stats();
  Table t("NMsort on " + std::to_string(n) + " keys (rho=4)");
  t.header({"phase", "far MB", "near MB", "modeled ms"});
  for (const auto& ph : st.phases)
    t.row({ph.name, Table::num(ph.far_bytes() / 1e6, 1),
           Table::num(ph.near_bytes() / 1e6, 1),
           Table::num(ph.seconds() * 1e3, 3)});
  t.row({"total", Table::num(st.total.far_bytes() / 1e6, 1),
         Table::num(st.total.near_bytes() / 1e6, 1),
         Table::num(st.total.seconds() * 1e3, 3)});
  std::cout << t;

  // 6. Compare with the single-level baseline on an identical machine.
  Machine base(cfg);
  std::vector<std::uint64_t> copy = keys;
  sort::gnu_like_sort(base, std::span<std::uint64_t>(copy));
  base.end_phase();
  std::cout << "baseline (far memory only): "
            << Table::num(base.stats().total.seconds() * 1e3, 3)
            << " ms modeled -> NMsort speedup "
            << Table::num(base.stats().total.seconds() / st.total.seconds(), 2)
            << "x\n";
  return 0;
}
