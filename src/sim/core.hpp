// TraceCore — the Ariel virtual core: replays one thread's recorded op
// stream, issuing line-granular memory requests into its private L1 with a
// bounded number outstanding, charging compute segments in core cycles, and
// rendezvousing with its siblings at barrier markers.
#pragma once

#include <cstdint>
#include <vector>

#include "common/histogram.hpp"
#include "common/stats.hpp"
#include "sim/simulator.hpp"
#include "trace/capture.hpp"

namespace tlm::sim {

struct CoreConfig {
  double freq_hz = 1.7e9;          // Fig. 4: cores run at 1.7 GHz
  double cycles_per_op = 1.0;      // modeled CPI on compute segments
  std::uint32_t max_outstanding = 16;
  std::uint32_t line_bytes = 64;
};

class BarrierController {
 public:
  explicit BarrierController(std::size_t parties) : parties_(parties) {}

  // Core `arrive`s at barrier `id`; `resume` fires when everyone is here.
  void arrive(Simulator& sim, std::uint64_t id, Handler resume);

  std::uint64_t epoch() const { return epoch_; }

 private:
  std::size_t parties_;
  std::uint64_t epoch_ = 0;
  std::vector<Handler> waiting_;
};

struct CoreStats {
  std::uint64_t loads = 0, stores = 0;
  std::uint64_t dmas = 0;  // DMA descriptors this core posted
  double compute_ops = 0;
  std::uint64_t barriers = 0;
  SimTime finish_time = 0;
  bool finished = false;
  RunningStats access_latency;   // per-request round trip, in seconds
  LogHistogram latency_hist;     // the distribution behind the mean
};

class DmaEngine;

class TraceCore final : public Requester {
 public:
  // `dma` may be null for systems without an engine; replaying a trace that
  // contains DmaCopy descriptors then fails loudly. A DmaCopy op posts the
  // descriptor and advances immediately — the next Barrier op is the
  // completion fence (it waits for the core's posted copies to drain, the
  // same contract Machine::dma_copy documents).
  TraceCore(Simulator& sim, CoreConfig cfg, std::size_t id,
            trace::wire::Cursor stream, MemPort* l1,
            BarrierController* barrier, DmaEngine* dma = nullptr);

  // Schedules the first step; call once before Simulator::run().
  void start();

  void on_response(const MemReq& req) override;

  const CoreStats& stats() const { return stats_; }
  bool finished() const { return stats_.finished; }

 private:
  void step();         // process the current op
  void issue_lines();  // drive the current read/write burst
  void advance();      // decode the next op and step, or finish
  void arrive_when_drained();  // join the pending barrier once idle

  Simulator& sim_;
  CoreConfig cfg_;
  std::size_t id_;
  trace::wire::Cursor stream_;
  MemPort* l1_;
  BarrierController* barrier_;
  DmaEngine* dma_;

  trace::TraceOp op_{};          // the op being executed
  std::uint64_t cursor_ = 0;     // next line address within the current burst
  std::uint64_t burst_end_ = 0;  // one past the last byte of the burst
  std::uint32_t outstanding_ = 0;
  std::uint32_t dma_pending_ = 0;  // posted copies not yet completed
  bool burst_active_ = false;
  bool waiting_barrier_ = false;
  CoreStats stats_;
};

}  // namespace tlm::sim
