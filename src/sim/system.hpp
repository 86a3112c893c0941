// SystemBuilder: assembles the Fig. 5/7 node — trace cores with private L1s,
// a shared L2 per quad-core group, the crossbar NoC, and the two directory-
// fronted memories (DDR-timed far, constant-latency multi-channel near) —
// runs a captured trace on it, and reports the Table I metrics.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "sim/cache.hpp"
#include "sim/core.hpp"
#include "sim/dma.hpp"
#include "sim/memory.hpp"
#include "sim/noc.hpp"
#include "sim/simulator.hpp"
#include "trace/capture.hpp"

namespace tlm::sim {

struct SystemConfig {
  std::size_t cores = 8;
  std::size_t cores_per_group = 4;  // Fig. 4: quad-core groups
  CoreConfig core;
  CacheConfig l1;               // per-core private data cache
  CacheConfig l2;               // shared per group
  NocConfig noc;
  double group_port_bw = 72e9;  // Fig. 4: 72 GB/s per group to the NoC
  FarMemConfig far;
  NearMemConfig near;
  DmaConfig dma;  // the background copy engine of Figs. 5 and 7

  void validate() const;

  // The Fig. 4 node verbatim: 256 cores at 1.7 GHz, 16 KiB L1, 512 KiB L2
  // per quad-core group, 72 GB/s group ports, 4-channel DDR-1066 (~60 GB/s
  // STREAM), scratchpad at ρ× that bandwidth with 50 ns constant latency.
  static SystemConfig paper(double rho, std::size_t cores = 256);

  // Same node shrunk to `cores`, preserving the compute-to-bandwidth ratio
  // x : y (the §V-A boundedness predicate is scale-free), so who wins and by
  // what factor is preserved at laptop-simulable sizes. It also shrinks the
  // L2 to 128 KiB and scales the group ports (DESIGN.md "Calibration").
  static SystemConfig scaled(double rho, std::size_t cores = 8);
};

// The simulator's counters, declared once: X(section, key, source) is the
// counter `section.key` and `source`, its value read from a SimReport `r`
// (a count, or seconds and operations as a double). The first table's rows
// are also the run-report leaves sim.<section>.<key>; the second table's
// (fault stalls, bus occupancy, mean latency) appear only in counters().
#define TLM_SIM_STATS(X)                       \
  X(far, reads, r.far.reads)                   \
  X(far, writes, r.far.writes)                 \
  X(far, bytes, r.far.bytes)                   \
  X(far, row_hits, r.far.row_hits)             \
  X(far, row_misses, r.far.row_misses)         \
  X(near, reads, r.near.reads)                 \
  X(near, writes, r.near.writes)               \
  X(near, bytes, r.near.bytes)                 \
  X(l1, accesses, r.l1.accesses())             \
  X(l1, hits, r.l1.hits())                     \
  X(l1, fills, r.l1.fills)                     \
  X(l1, writebacks, r.l1.writebacks)           \
  X(l2, accesses, r.l2.accesses())             \
  X(l2, hits, r.l2.hits())                     \
  X(l2, fills, r.l2.fills)                     \
  X(l2, writebacks, r.l2.writebacks)           \
  X(noc, messages, r.noc.messages)             \
  X(noc, bytes, r.noc.bytes)                   \
  X(cores, loads, r.core_loads)                \
  X(cores, stores, r.core_stores)              \
  X(cores, compute_ops, r.compute_ops)         \
  X(cores, barrier_epochs, r.barrier_epochs)   \
  X(dma, descriptors, r.dma.descriptors)       \
  X(dma, lines, r.dma.lines)                   \
  X(dma, bytes, r.dma.bytes)

#define TLM_SIM_DETAIL_STATS(X)                \
  X(far, stalls, r.far.stalls)                 \
  X(far, busy_s, to_seconds(r.far.busy))       \
  X(near, busy_s, to_seconds(r.near.busy))     \
  X(dma, stalls, r.dma.stalls)                 \
  X(dma, retries, r.dma.retries)               \
  X(latency, mean_s, r.access_latency.mean())

struct SimReport {
  // Simulated wall-clock (Table I "Sim Time"): the later of the last event
  // and the last request's arrival at a memory controller.
  double seconds = 0;
  // DES events executed, counting each arrival at a memory controller as
  // one (Simulator::arrival).
  std::uint64_t events = 0;
  MemStats far;              // Table I "DRAM Accesses" = far.accesses()
  MemStats near;             // Table I "Scratchpad Accesses"
  CacheStats l1, l2;         // aggregated over all instances
  NocStats noc;
  DmaStats dma;              // descriptors the cores posted to the engine
  std::uint64_t core_loads = 0, core_stores = 0;
  double compute_ops = 0;
  std::uint64_t barrier_epochs = 0;
  RunningStats access_latency;  // per-request round trip across all cores
  LogHistogram latency_hist;    // pooled distribution (p50/p95/p99)

  // Flat named view: "seconds", "events", then every row of both counter
  // tables ("far.reads", "l1.hits", "latency.mean_s", ...).
  std::vector<std::pair<std::string, double>> counters() const;
};

class System {
 public:
  // `trace` must carry exactly cfg.cores thread logs and outlive the
  // System: a TraceBuffer or a ShardedReplay (trace/replay.hpp), which the
  // cores, decoding their logs as they run, cannot tell apart.
  System(SystemConfig cfg, const trace::TraceSource& trace);

  // Runs the whole trace to completion and reports. `max_events` guards
  // against runaway simulations in tests.
  SimReport run(std::uint64_t max_events = ~0ULL);

  const SystemConfig& config() const { return cfg_; }

  // SST-style per-component statistics dump: one line per component with
  // its counters (call after run()).
  void print_stats(std::ostream& os) const;

  // Component inventory for the Fig. 5 topology audit bench.
  struct Inventory {
    std::size_t cores = 0, l1s = 0, l2s = 0, noc_endpoints = 0;
    std::size_t far_channels = 0, near_channels = 0;
  };
  Inventory inventory() const;

 private:
  SystemConfig cfg_;

  Simulator sim_;
  std::unique_ptr<Crossbar> noc_;
  std::unique_ptr<FarMemory> far_;
  std::unique_ptr<NearMemory> near_;
  std::unique_ptr<DmaEngine> dma_;
  std::vector<std::unique_ptr<Cache>> l2s_;
  std::vector<std::unique_ptr<Cache>> l1s_;
  std::unique_ptr<BarrierController> barrier_;
  std::vector<std::unique_ptr<TraceCore>> cores_;
};

}  // namespace tlm::sim
