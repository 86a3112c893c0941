#include "sim/memory.hpp"

#include <algorithm>

#include "common/assert.hpp"

namespace tlm::sim {

namespace {

// Channel-interleave hash: plain `line % channels` convoys when concurrent
// streams sit at offsets that are multiples of the channel count (every
// core then walks the channels in phase). Folding higher address bits in —
// the XOR bank/channel hashing real memory controllers use — decorrelates
// the streams.
std::uint64_t channel_of(std::uint64_t line_id, const Divisor& channels) {
  // Mix the block id multiplicatively so streams at any power-of-two offset
  // land on different channel phases, while consecutive lines still
  // round-robin over all channels (the phase is constant within a block).
  const std::uint64_t block = channels.div(line_id);
  const std::uint64_t phase = (block * 0x9e3779b97f4a7c15ULL) >> 32;
  return channels.mod(line_id ^ phase);
}

}  // namespace

FarMemory::FarMemory(Simulator& sim, FarMemConfig cfg)
    : sim_(sim),
      cfg_(std::move(cfg)),
      line_(cfg_.line_bytes),
      channel_(cfg_.channels),
      row_(cfg_.row_bytes),
      bank_(cfg_.banks),
      burst_(cfg_.channel_bw) {
  TLM_REQUIRE(cfg_.channels >= 1 && cfg_.banks >= 1 && cfg_.channel_bw > 0,
              "bad far-memory geometry");
  channels_.resize(cfg_.channels);
  for (auto& ch : channels_) {
    ch.banks.resize(cfg_.banks);
    ch.lane = sim_.add_lane();
  }
}

void FarMemory::arrive(const MemReq& req, SimTime when) {
  (req.is_write ? stats_.writes : stats_.reads) += 1;
  stats_.bytes += req.bytes;

  // Hashed line-interleaved channel map, bank/row split above that.
  Channel& ch = channels_[channel_of(line_.div(req.addr), channel_)];
  const std::uint64_t row_id = row_.div(req.addr);
  Bank& bank = ch.banks[bank_.mod(row_id)];

  SimTime arrive = when + cfg_.dc_latency;
  if (cfg_.faults) {
    const double stall = cfg_.faults->consult_stall(fault_site::kSimFarStall);
    if (stall > 0) {
      ++stats_.stalls;
      arrive += from_seconds(stall);
    }
  }
  const bool hit = bank.open_row == row_id;
  (hit ? stats_.row_hits : stats_.row_misses) += 1;

  // Column reads against an open row pipeline at burst rate — the CAS
  // latency (row_hit) delays the data but does not occupy the bank.
  // A row miss pays precharge+activate and holds the bank for it.
  SimTime ready;
  if (hit) {
    ready = arrive + cfg_.row_hit;
  } else {
    ready = std::max(arrive, bank.busy_until) + cfg_.row_miss;
  }
  const SimTime burst = burst_(req.bytes);
  const SimTime bus_start = std::max(ready, ch.bus_until);
  ch.bus_until = bus_start + burst;
  stats_.busy += burst;
  if (!hit) bank.busy_until = ch.bus_until;
  bank.open_row = row_id;

  if (!req.posted && req.origin) {
    const MemReq resp = req;
    sim_.schedule_at(ch.lane, ch.bus_until,
                     [resp] { resp.origin->on_response(resp); });
  }
}

NearMemory::NearMemory(Simulator& sim, NearMemConfig cfg)
    : sim_(sim),
      cfg_(std::move(cfg)),
      line_(cfg_.line_bytes),
      channel_(cfg_.channels),
      burst_(cfg_.channel_bw()) {
  TLM_REQUIRE(cfg_.channels >= 1 && cfg_.total_bw > 0,
              "bad near-memory geometry");
  channels_.resize(cfg_.channels);
  for (auto& ch : channels_) ch.lane = sim_.add_lane();
}

void NearMemory::arrive(const MemReq& req, SimTime when) {
  (req.is_write ? stats_.writes : stats_.reads) += 1;
  stats_.bytes += req.bytes;

  Channel& ch = channels_[channel_of(line_.div(req.addr), channel_)];

  const SimTime arrive = when + cfg_.dc_latency + cfg_.access_latency;
  const SimTime burst = burst_(req.bytes);
  const SimTime start = std::max(arrive, ch.until);
  ch.until = start + burst;
  stats_.busy += burst;

  if (!req.posted && req.origin) {
    const MemReq resp = req;
    sim_.schedule_at(ch.lane, ch.until,
                     [resp] { resp.origin->on_response(resp); });
  }
}

}  // namespace tlm::sim
