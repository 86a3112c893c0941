// RunReport — the machine-readable record every experiment emits.
//
// One report file per bench invocation; one RunRecord per configuration the
// bench ran (Table I emits four: GNU sort and NMsort at 2x/4x/8x). Each
// record carries the machine configuration, the counting backend's
// MachineStats (totals + per-phase), the cycle simulator's counters (cache
// hits, NoC traffic, memory accesses, DMA bursts) when the run was
// simulated, wall-clock, and any custom MetricsRegistry snapshot.
//
// The schema ("tlm.run_report", version 1, documented in README §Benchmark
// reports) is the contract between the benches, the checked-in CI
// baselines, and the report_diff regression gate: fields are only ever
// added, and consumers ignore keys they do not know.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "scratchpad/config.hpp"
#include "scratchpad/counters.hpp"
#include "sim/dma.hpp"
#include "sim/system.hpp"
#include "trace/mapped_log.hpp"
#include "trace/replay.hpp"

namespace tlm::obs {

// The simulator's counters as report leaves, one row per counter:
// X(kind, section, key, field, source) is the JSON leaf
// `sim.<section>.<key>`, the SimCounters member `field`, and `source`, its
// value read from a sim::SimReport `r`.
#define TLM_SIM_COUNTERS(X)                                       \
  X(u64, far, reads, far_reads, r.far.reads)                      \
  X(u64, far, writes, far_writes, r.far.writes)                   \
  X(u64, far, bytes, far_bytes, r.far.bytes)                      \
  X(u64, far, row_hits, far_row_hits, r.far.row_hits)             \
  X(u64, far, row_misses, far_row_misses, r.far.row_misses)       \
  X(u64, near, reads, near_reads, r.near.reads)                   \
  X(u64, near, writes, near_writes, r.near.writes)                \
  X(u64, near, bytes, near_bytes, r.near.bytes)                   \
  X(u64, l1, accesses, l1_accesses, r.l1.accesses())              \
  X(u64, l1, hits, l1_hits, r.l1.hits())                          \
  X(u64, l1, fills, l1_fills, r.l1.fills)                         \
  X(u64, l1, writebacks, l1_writebacks, r.l1.writebacks)          \
  X(u64, l2, accesses, l2_accesses, r.l2.accesses())              \
  X(u64, l2, hits, l2_hits, r.l2.hits())                          \
  X(u64, l2, fills, l2_fills, r.l2.fills)                         \
  X(u64, l2, writebacks, l2_writebacks, r.l2.writebacks)          \
  X(u64, noc, messages, noc_messages, r.noc.messages)             \
  X(u64, noc, bytes, noc_bytes, r.noc.bytes)                      \
  X(u64, cores, loads, core_loads, r.core_loads)                  \
  X(u64, cores, stores, core_stores, r.core_stores)               \
  X(f64, cores, compute_ops, compute_ops, r.compute_ops)          \
  X(u64, cores, barrier_epochs, barrier_epochs, r.barrier_epochs) \
  X(u64, dma, descriptors, dma_descriptors, r.dma.descriptors)    \
  X(u64, dma, lines, dma_lines, r.dma.lines)                      \
  X(u64, dma, bytes, dma_bytes, r.dma.bytes)

// Flat, serializable view of sim::SimReport (plus optional DMA-engine
// counters, which live outside System).
struct SimCounters {
  double seconds = 0;
  std::uint64_t events = 0;
#define TLM_X(kind, section, key, field, source) counters::kind field = 0;
  TLM_SIM_COUNTERS(TLM_X)
#undef TLM_X

  static SimCounters from(const sim::SimReport& r);
};

struct RunRecord {
  std::string name;  // e.g. "NMsort (8X)" or "nmsort.rho4"

  bool has_config = false;
  TwoLevelConfig config{};

  bool has_counting = false;
  MachineStats counting{};
  std::uint64_t line_bytes = 64;  // granularity of the derived access counts

  bool has_sim = false;
  SimCounters sim{};

  double wall_seconds = 0;  // host wall-clock of this record's run

  std::map<std::string, std::uint64_t> counters;  // MetricsRegistry snapshot
  std::map<std::string, double> gauges;

  void set_config(const TwoLevelConfig& cfg);
  void set_counting(const MachineStats& st, std::uint64_t line);
  void set_sim(const sim::SimReport& r);
  void set_dma(const sim::DmaStats& d);
  void add_metrics(const MetricsRegistry& reg);
};

struct RunReport {
  static constexpr std::uint64_t kSchemaVersion = 1;
  static constexpr const char* kSchemaName = "tlm.run_report";

  std::string benchmark;          // bench binary name
  Json params = Json::object();   // CLI knobs the run was invoked with
  double wall_seconds = 0;        // whole-invocation wall-clock
  std::vector<RunRecord> runs;

  RunReport() = default;
  explicit RunReport(std::string benchmark_name)
      : benchmark(std::move(benchmark_name)) {}

  RunRecord& add_run(std::string name);

  Json to_json() const;
  static RunReport from_json(const Json& j);  // throws on schema violations

  void write(const std::string& path) const;
  static RunReport load(const std::string& path);
};

// Schema check without full deserialization: returns human-readable
// problems, empty when `j` is a valid v1 run report. This is the
// `report_diff --validate` and CI-smoke entry point.
std::vector<std::string> validate_report(const Json& j);

// One counting-section phase object back into a PhaseStats (a missing leaf
// loads as zero). The only writer of PhaseStats counters outside Machine;
// throws on a report from before the read/write split.
PhaseStats phase_from_json(const Json& j);

// Export counting/sim statistics into a registry as flat named counters and
// gauges ("machine.far_bytes", "sim.l1_hits", ...) so ad-hoc instrumentation
// and the built-in accounting land in one namespace.
void export_stats(const MachineStats& st, std::uint64_t line_bytes,
                  MetricsRegistry& reg);
// Staged-streaming counters ("stager.batches", "stager.prefetch_bytes", ...)
// from Machine::stager_stats() or an individual Stager::stats().
void export_stats(const StagerStats& st, MetricsRegistry& reg);
// Fault-injection counters ("faults.near_alloc_injected", "retries.dma",
// ...) from Machine::fault_stats(). Always emits the full key set so fault
// counters are first-class report citizens; report_diff treats their
// absence in older baselines as zero.
void export_stats(const FaultStats& st, MetricsRegistry& reg);
void export_stats(const sim::SimReport& r, MetricsRegistry& reg);
// Out-of-core trace capture ("trace.spill_bytes", "trace.capture_bytes_per_op",
// ...) from MappedLog::stats() and sharded replay ("trace.replay_shards",
// "trace.replay_fences", ...) from ShardedReplay::stats().
void export_stats(const trace::MappedLogStats& st, MetricsRegistry& reg);
void export_stats(const trace::ReplayStats& st, MetricsRegistry& reg);

}  // namespace tlm::obs
