// RunReport — the machine-readable record every experiment emits.
//
// One report file per bench invocation; one RunRecord per configuration the
// bench ran (Table I emits four: GNU sort and NMsort at 2x/4x/8x). Each
// record carries the machine configuration, the counting backend's
// MachineStats (totals + per-phase), the cycle simulator's SimReport when
// the run was simulated, and any named counters and gauges (the
// export_stats overloads below). Every counter leaf is expanded from the
// table that declares the counter: TLM_PHASE_STATS
// (scratchpad/counters.hpp) for the counting sections, TLM_SIM_STATS
// (sim/system.hpp) for `sim`.
//
// A report runs on two clocks. Everything a run measures on the host —
// wall-clock, each phase's host seconds, gauges derived from host timings —
// goes in a `host` section (the report's and each record's); every other
// leaf is deterministic at a fixed seed. report_diff skips `host` and
// compares the rest exactly.
//
// The schema ("tlm.run_report", version 2, documented in README §Benchmark
// reports) is the contract between the benches, the checked-in CI
// baselines, and the report_diff gate; the version moves when a field
// moves. Consumers work on the JSON document (validate_report, obs::diff);
// the only reader back into a C++ type is phase_from_json.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "obs/json.hpp"
#include "scratchpad/config.hpp"
#include "scratchpad/counters.hpp"
#include "sim/system.hpp"
#include "trace/mapped_log.hpp"
#include "trace/replay.hpp"

namespace tlm::obs {

struct RunRecord {
  std::string name;  // e.g. "NMsort (8X)" or "nmsort.rho4"

  bool has_config = false;
  TwoLevelConfig config{};

  bool has_counting = false;
  MachineStats counting{};
  std::uint64_t line_bytes = 64;  // granularity of the derived access counts

  bool has_sim = false;
  sim::SimReport sim;

  std::map<std::string, std::uint64_t> counters;  // report `metrics` section
  std::map<std::string, double> gauges;
  // Host-measured values ("wall_seconds", "phase_seconds.<phase>", host-timed
  // gauges): the record's `host` section, never compared by report_diff.
  std::map<std::string, double> host;

  void set_config(const TwoLevelConfig& cfg);
  // Also writes each phase's host seconds to `host`.
  void set_counting(const MachineStats& st, std::uint64_t line);
  void set_sim(const sim::SimReport& r);
};

// One counter-table row into `rec`: a count adds to a counter, a double
// sets a gauge.
inline void export_leaf(RunRecord& rec, std::string_view key,
                        std::uint64_t v) {
  rec.counters[std::string(key)] += v;
}
inline void export_leaf(RunRecord& rec, std::string_view key, double v) {
  rec.gauges.insert_or_assign(std::string(key), v);
}

struct RunReport {
  static constexpr std::uint64_t kSchemaVersion = 2;
  static constexpr const char* kSchemaName = "tlm.run_report";

  std::string benchmark;          // bench binary name
  Json params = Json::object();   // CLI knobs the run was invoked with
  std::map<std::string, double> host;  // the invocation's "wall_seconds"
  std::vector<RunRecord> runs;

  RunReport() = default;
  explicit RunReport(std::string benchmark_name)
      : benchmark(std::move(benchmark_name)) {}

  RunRecord& add_run(std::string name);

  Json to_json() const;
  void write(const std::string& path) const;
};

// Schema check without full deserialization: returns human-readable
// problems, empty when `j` is a valid v2 run report. This is the
// `report_diff --validate` and CI-smoke entry point.
std::vector<std::string> validate_report(const Json& j);

// One counting-section phase object back into a PhaseStats (a missing leaf
// loads as zero). The only writer of PhaseStats counters outside Machine;
// throws on a report from before the read/write split.
PhaseStats phase_from_json(const Json& j);

// Export component statistics into a record as flat named counters and
// gauges, so ad-hoc instrumentation and the built-in accounting land in one
// namespace. Staged-streaming counters ("stager.batches", "stager.prefetch_bytes", ...)
// from Machine::stager_stats() or an individual Stager::stats().
void export_stats(const StagerStats& st, RunRecord& rec);
// Fault-injection counters ("faults.near_alloc_injected", "retries.dma",
// ...) from Machine::fault_stats(). Always emits the full key set, so a
// clean run pins every fault counter at zero.
void export_stats(const FaultStats& st, RunRecord& rec);
// Out-of-core trace capture ("trace.spill_bytes", "trace.capture_bytes_per_op",
// ...) from MappedLog::stats() and its replay ("trace.replay_ops",
// "trace.replay_fences", "trace.replay_recovered_threads") from
// ShardedReplay::stats().
void export_stats(const trace::MappedLogStats& st, RunRecord& rec);
void export_stats(const trace::ReplayStats& st, RunRecord& rec);

}  // namespace tlm::obs
