// Memory controllers: DDR-timed far memory (the DRAMSim2 role) and the
// constant-latency multi-channel scratchpad of Fig. 4. Each controller
// fronts its memory with a directory-controller stage (fixed latency), the
// "DC" boxes of Fig. 7. Both are crossbar route targets (MemController):
// they book a request's channel, bank and bus state when the crossbar hands
// it over, from its arrival time, and respond from the channel's lane.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/faults.hpp"
#include "common/math.hpp"
#include "sim/simulator.hpp"
#include "sim/wire_time.hpp"

namespace tlm::sim {

struct MemStats {
  std::uint64_t reads = 0;
  std::uint64_t writes = 0;
  std::uint64_t bytes = 0;
  std::uint64_t row_hits = 0;   // far memory only
  std::uint64_t row_misses = 0;
  std::uint64_t stalls = 0;  // injected access stalls honored
  SimTime busy = 0;  // cumulative data-bus occupancy summed over channels
  std::uint64_t accesses() const { return reads + writes; }
};

// ---------------------------------------------------------------------------
// Far (capacity) memory: channel-interleaved DDR with a row-buffer model.
// Fig. 4: 1066 MHz DDR, 4 channels, ~60 GB/s STREAM.
// ---------------------------------------------------------------------------
struct FarMemConfig {
  std::string name = "far";
  std::uint32_t channels = 4;
  double channel_bw = 15e9;             // bytes/s sustained per channel
  SimTime dc_latency = 10 * kNanosecond;  // directory controller stage
  SimTime row_hit = 15 * kNanosecond;
  SimTime row_miss = 45 * kNanosecond;
  std::uint32_t banks = 8;
  std::uint64_t row_bytes = 2048;
  std::uint32_t line_bytes = 64;
  // Optional fault injector (not owned). Each access consults
  // fault_site::kSimFarStall; a fired stall adds the schedule's
  // stall_seconds to the request's ready time (a slow / contended DIMM).
  FaultInjector* faults = nullptr;

  double total_bw() const { return channel_bw * channels; }
};

class FarMemory final : public MemController {
 public:
  FarMemory(Simulator& sim, FarMemConfig cfg);

  void request(const MemReq& req) override { arrive(req, sim_.now()); }
  void arrive(const MemReq& req, SimTime when) override;

  const MemStats& stats() const { return stats_; }
  const FarMemConfig& config() const { return cfg_; }

 private:
  struct Bank {
    std::uint64_t open_row = ~0ULL;
    SimTime busy_until = 0;
  };
  // Responses leave at the bus horizon, which never decreases: they form
  // the channel's lane.
  struct Channel {
    SimTime bus_until = 0;
    std::vector<Bank> banks;
    Lane lane{};
  };

  Simulator& sim_;
  FarMemConfig cfg_;
  Divisor line_, channel_, row_, bank_;
  WireTime burst_;  // at one channel's bandwidth
  std::vector<Channel> channels_;
  MemStats stats_;
};

// ---------------------------------------------------------------------------
// Near (scratchpad) memory: n channels, constant access latency (50 ns),
// aggregate bandwidth = ρ × far STREAM. Fig. 4's 8/16/32-channel part.
// ---------------------------------------------------------------------------
struct NearMemConfig {
  std::string name = "near";
  std::uint32_t channels = 8;
  double total_bw = 120e9;                // bytes/s aggregate (ρ × far)
  SimTime access_latency = 50 * kNanosecond;
  SimTime dc_latency = 10 * kNanosecond;
  std::uint32_t line_bytes = 64;

  double channel_bw() const { return total_bw / channels; }
};

class NearMemory final : public MemController {
 public:
  NearMemory(Simulator& sim, NearMemConfig cfg);

  void request(const MemReq& req) override { arrive(req, sim_.now()); }
  void arrive(const MemReq& req, SimTime when) override;

  const MemStats& stats() const { return stats_; }
  const NearMemConfig& config() const { return cfg_; }

 private:
  struct Channel {
    SimTime until = 0;  // bus horizon
    Lane lane{};        // responses, at the horizon
  };

  Simulator& sim_;
  NearMemConfig cfg_;
  Divisor line_, channel_;
  WireTime burst_;  // at one channel's bandwidth
  std::vector<Channel> channels_;
  MemStats stats_;
};

}  // namespace tlm::sim
