// tlm-racecheck — offline happens-before analysis of captured trace logs.
//
// TSan watches the host threads, but the hazards that matter to the
// co-design are *model-level*: a staged batch is only safe to read because a
// Barrier or DMA completion fence orders it, and those orderings live in the
// trace, not in host memory operations (the host-side dma_copy memmoves
// eagerly, so a schedule that would corrupt data on real hardware still
// "works" natively). This analyzer replays the ordering model over any
// TraceSource (TraceBuffer or a MappedLog capture loaded through
// ShardedReplay), one forward pass over each thread's log, and proves — in the FastTrack vector-clock sense, collapsed
// to epochs because every sync edge here is a global rendezvous — that no
// two conflicting accesses are unordered.
//
// The happens-before model (DESIGN.md §12):
//  * Program order: core-driven ops in one thread's stream are totally
//    ordered.
//  * Barrier fences: Barrier id crossings are global rendezvous points (the
//    markers of each Machine::run_spmd fork and join). Everything any thread did before its k-th
//    crossing happens-before everything any thread does after its own k-th
//    crossing. Crossing counts partition each stream into *epochs*; the
//    fence-merge validator (trace/replay.hpp) guarantees all threads cross
//    the identical id schedule, which this analyzer re-checks.
//  * DmaCopy post/fence pairs: a descriptor's engine accesses (read of src,
//    write of dst) happen-after the post point in the issuing thread and
//    happen-before that thread's next Barrier crossing — in between they are
//    concurrent with every other access in the epoch, including the issuing
//    thread's own later ops. Descriptors posted by one thread are processed
//    in post order (the engine drains its queue FIFO); descriptors from
//    different threads are unordered.
//
// Detectors, each reported as a distinct FindingKind:
//  * UnorderedOverlap — two core accesses to overlapping ranges, at least
//    one a write, in the same epoch on different threads.
//  * UnfencedDmaRead — a core read overlapping an in-flight DmaCopy
//    destination (posted in the same epoch, no fence between post and read).
//  * StagingReuse — a staging range re-targeted by a DmaCopy while the
//    previous batch's accesses are un-fenced: the dst overlaps an unordered
//    core write, an in-flight descriptor's src is overwritten, or two
//    descriptors from different threads collide. (A core read issued by the
//    posting thread *before* the post is ordered — program order into the
//    post edge — so same-thread consume-then-repost is legal.)
//  * PostPhaseCharge — a non-orchestrator thread charges ops after its final
//    Barrier crossing: work landing after the join that closes the phase,
//    i.e. traffic end_phase() has already folded or will mis-attribute.
#pragma once

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "obs/json.hpp"
#include "trace/capture.hpp"

namespace tlm::analyze {

enum class FindingKind : std::uint8_t {
  UnorderedOverlap = 0,
  UnfencedDmaRead = 1,
  StagingReuse = 2,
  PostPhaseCharge = 3,
};
const char* to_string(FindingKind k);

// One side of a conflicting pair: which stream op performed the access and
// the byte range it touched. For engine == true the access was performed by
// the DMA engine on behalf of the DmaCopy record at `op_index`.
struct AccessRef {
  std::size_t thread = 0;
  std::size_t op_index = 0;  // record index in the thread's log
  trace::OpKind op = trace::OpKind::Read;
  bool engine = false;
  bool write = false;
  std::uint64_t addr = 0;
  std::uint64_t bytes = 0;
};

struct Finding {
  FindingKind kind = FindingKind::UnorderedOverlap;
  std::uint64_t epoch = 0;  // fence interval the hazard lives in
  AccessRef first, second;  // second is unused for PostPhaseCharge
  std::uint64_t overlap_addr = 0, overlap_bytes = 0;
  // Further unordered pairs folded into this finding (same kind, same
  // thread pair, same epoch) — keeps reports readable when one bad buffer
  // produces hundreds of overlapping pairs.
  std::uint64_t merged = 0;
  std::string detail;
};

struct RacecheckStats {
  std::uint64_t threads = 0;
  std::uint64_t ops = 0;       // trace records scanned
  std::uint64_t accesses = 0;  // address-ranged accesses extracted
  std::uint64_t dmas = 0;      // DmaCopy descriptors
  std::uint64_t fences = 0;    // globally common fence count
  std::uint64_t epochs = 0;    // fence intervals analyzed
  std::uint64_t pairs_checked = 0;
  std::uint64_t suppressed = 0;  // findings dropped past max_findings
};

struct RacecheckOptions {
  // Thread id allowed to run un-fenced sequential tails (the orchestrator:
  // it calls end_phase() itself, so its trailing ops are by construction
  // before the phase close).
  std::size_t orchestrator_thread = 0;
  bool check_post_phase = true;
  std::size_t max_findings = 100;
};

struct RacecheckReport {
  std::vector<Finding> findings;
  RacecheckStats stats;
  bool clean() const { return findings.empty() && stats.suppressed == 0; }
};

// Analyzes `src`. Throws std::invalid_argument when the per-thread Barrier
// id schedules diverge (such a trace cannot replay, let alone be ordered).
RacecheckReport racecheck(const trace::TraceSource& src,
                          const RacecheckOptions& opt = {});

// The machine-readable `tlm.racecheck` v1 report (obs/json.hpp model):
// {"schema":"tlm.racecheck","version":1,"stats":{...},"findings":[...]}.
obs::Json to_json(const RacecheckReport& report);

// Human-readable findings digest for logs and the CLI.
void print(const RacecheckReport& report, std::ostream& os);

}  // namespace tlm::analyze
