// DMA engine — the §VI-B/§VII future-work component: moves blocks between
// far and near memory in the background so cores can overlap computation
// with staging ("DMA Engines" in Figs. 5 and 7).
//
// The engine accepts copy descriptors, streams the source as line reads,
// and forwards each arriving line as a posted write to the destination,
// keeping a bounded number of lines in flight. Completion fires when every
// write has been injected and the read stream has drained.
#pragma once

#include <cstdint>
#include <deque>

#include "common/faults.hpp"
#include "sim/simulator.hpp"

namespace tlm::sim {

struct DmaConfig {
  std::uint32_t line_bytes = 64;
  std::uint32_t max_outstanding = 32;  // in-flight line reads
  SimTime engine_latency = 10 * kNanosecond;  // descriptor processing
  // Optional fault injector (not owned). The engine consults
  // fault_site::kSimDmaStall per descriptor (a fired stall delays
  // processing by the schedule's stall_seconds) and
  // fault_site::kSimDmaFail per line response (a fired failure re-issues
  // the read — a transient transfer error, retried transparently).
  FaultInjector* faults = nullptr;
};

struct DmaStats {
  std::uint64_t descriptors = 0;
  std::uint64_t lines = 0;
  std::uint64_t bytes = 0;
  std::uint64_t stalls = 0;   // injected descriptor stalls honored
  std::uint64_t retries = 0;  // injected line failures re-issued
};

class DmaEngine final : public Requester {
 public:
  // `port` is the engine's connection into the memory system (typically a
  // NoC endpoint that can route both far and near addresses).
  DmaEngine(Simulator& sim, DmaConfig cfg, MemPort* port);

  // Queues a copy of `bytes` from src_addr to dst_addr (both line-aligned
  // virtual addresses). `on_done` fires at completion time.
  void copy(std::uint64_t src_addr, std::uint64_t dst_addr,
            std::uint64_t bytes, Handler on_done = {});

  void on_response(const MemReq& req) override;

  bool idle() const { return queue_.empty() && outstanding_ == 0; }
  const DmaStats& stats() const { return stats_; }

 private:
  struct Descriptor {
    std::uint64_t src = 0;
    std::uint64_t dst = 0;
    std::uint64_t bytes = 0;
    std::uint64_t issued = 0;     // bytes whose read has been issued
    std::uint64_t completed = 0;  // bytes whose write has been injected
    Handler on_done;
  };

  void pump();

  Simulator& sim_;
  DmaConfig cfg_;
  MemPort* port_;
  std::deque<Descriptor> queue_;
  std::uint32_t outstanding_ = 0;
  DmaStats stats_;
};

}  // namespace tlm::sim
