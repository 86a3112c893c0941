// Set-associative write-back cache with LRU replacement and MSHR merging —
// the L1 and shared-L2 components of the Fig. 5/7 memory subsystem.
//
// Demand stores that cover a full line install without a fill (streaming
// write-combining), which both matches the full-line bursts our trace cores
// issue and keeps the simulator's DRAM read counts consistent with the
// analytic counting backend. Victim writebacks are posted downstream.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "sim/flat_storage.hpp"
#include "sim/simulator.hpp"

namespace tlm::sim {

// The line size and the set count, size_bytes / (line_bytes * ways), must
// be powers of two.
struct CacheConfig {
  std::string name = "cache";
  std::uint64_t size_bytes = 16 * 1024;
  std::uint32_t ways = 2;
  std::uint32_t line_bytes = 64;
  SimTime latency = 2 * kNanosecond;
};

struct CacheStats {
  std::uint64_t reads = 0, writes = 0;
  std::uint64_t read_hits = 0, write_hits = 0;
  std::uint64_t fills = 0, writebacks = 0;
  std::uint64_t accesses() const { return reads + writes; }
  std::uint64_t hits() const { return read_hits + write_hits; }
  double hit_rate() const {
    const auto a = accesses();
    return a ? static_cast<double>(hits()) / static_cast<double>(a) : 0.0;
  }
};

class Cache final : public MemPort, public Requester {
 public:
  Cache(Simulator& sim, CacheConfig cfg, MemPort* downstream);

  // Upstream interface: cores or upper caches send line-aligned requests.
  void request(const MemReq& req) override;
  // Fill returning from downstream.
  void on_response(const MemReq& req) override;

  const CacheStats& stats() const { return stats_; }
  const CacheConfig& config() const { return cfg_; }

 private:
  // An invalid way holds a tag no address has (a tag is an address shifted
  // right past its offset and set bits) and the stamp 0; a valid way's
  // last-use stamp is >= 1.
  static constexpr std::uint64_t kNoTag = ~0ULL;
  struct Way {
    std::uint64_t tag = kNoTag;
    std::uint64_t lru = 0;
    bool dirty = false;
  };

  void lookup(const MemReq& req);
  Way* find(std::uint64_t addr);
  // Installs `addr`, evicting (and writing back) a victim if needed.
  Way& install(std::uint64_t addr);
  // Line size and set count are powers of two, so the address splits into
  // tag | set | offset with shifts and masks.
  std::uint64_t set_index(std::uint64_t addr) const {
    return (addr >> line_shift_) & (sets_ - 1);
  }
  std::uint64_t tag_of(std::uint64_t addr) const {
    return addr >> (line_shift_ + set_shift_);
  }
  std::uint64_t line_addr(std::uint64_t addr) const {
    return addr >> line_shift_ << line_shift_;
  }
  Way* set_of(std::uint64_t addr) {
    return &ways_[set_index(addr) * cfg_.ways];
  }

  // Outstanding fills (MSHRs): line address -> the FIFO of requests waiting
  // on that fill, linked by index through a pool of waiters.
  static constexpr std::uint32_t kNil = ~0u;
  struct WaitList {
    std::uint32_t head = kNil, tail = kNil;
  };
  struct Waiter {
    MemReq req;
    std::uint32_t next = kNil;
  };

  Simulator& sim_;
  Lane lane_;  // lookups, each at now + latency
  CacheConfig cfg_;
  MemPort* downstream_;
  std::uint64_t sets_;
  unsigned line_shift_ = 0, set_shift_ = 0;
  std::vector<Way> ways_;  // [set * ways + way]
  std::uint64_t lru_clock_ = 0;
  FlatMap<WaitList> mshr_;
  IndexPool<Waiter> waiters_;
  CacheStats stats_;
};

}  // namespace tlm::sim
