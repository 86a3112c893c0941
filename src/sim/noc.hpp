// On-chip network — the Merlin role in Fig. 5.
//
// A crossbar connecting core-group endpoints (shared L2s) to directory/
// memory endpoints. Every message pays the router hop latency and
// serializes its wire footprint (command header, plus data for writes and
// read responses) on both its source and destination ports, which is what
// flit-level arbitration amounts to at this granularity: ports are the
// contended resource.
//
// A request is handed to its route's memory controller at injection, with
// the time it arrives (the destination port's rx horizon); no event runs at
// the arrival. That is exact because a memory port's arrivals are FIFO and
// nothing reads a controller's state between a request's injection and its
// arrival.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "sim/flat_storage.hpp"
#include "sim/simulator.hpp"
#include "sim/wire_time.hpp"

namespace tlm::sim {

struct NocConfig {
  SimTime hop_latency = 20 * kNanosecond;  // Fig. 7: NoC 20 ns
  std::uint32_t header_bytes = 16;         // command/flit header footprint
};

struct NocStats {
  std::uint64_t messages = 0;
  std::uint64_t bytes = 0;
};

struct EndpointStats {
  std::string name;
  SimTime busy = 0;  // cumulative wire-serialization time booked on the port
};

class Crossbar final : public Requester {
 public:
  Crossbar(Simulator& sim, NocConfig cfg) : sim_(sim), cfg_(cfg) {}

  // Registers an endpoint with a port bandwidth (bytes/s); returns its id.
  std::size_t add_endpoint(std::string name, double port_bw);

  // Address-range route: requests with base <= addr < limit go to `target`
  // attached at endpoint `ep`.
  void add_route(std::uint64_t base, std::uint64_t limit, std::size_t ep,
                 MemController* target);

  // Injection port for endpoint `ep`; hand this to the L2 as downstream.
  MemPort* port(std::size_t ep);

  void on_response(const MemReq& req) override;

  const NocStats& stats() const { return stats_; }
  std::vector<EndpointStats> endpoint_stats() const;

 private:
  // Ports are full duplex (as Merlin's links are): traffic leaving the
  // endpoint (TX) and traffic arriving at it (RX) serialize independently.
  // Modeling them with one horizon couples request and response streams and
  // fabricates ~µs queueing that no real router exhibits.
  // Every delivery into an endpoint lands at its rx horizon, which never
  // decreases, so the delivery events (read responses) form the endpoint's
  // lane.
  struct Endpoint {
    Endpoint(std::string n, double bw) : name(std::move(n)), wire(bw) {}
    std::string name;
    WireTime wire;            // at the port's bandwidth, each direction
    SimTime tx_until = 0;     // outbound serialization horizon
    SimTime rx_until = 0;     // inbound serialization horizon
    SimTime busy_accum = 0;   // total wire time booked (both directions)
    Lane lane{};              // delivery events into this port
    std::unique_ptr<MemPort> inject;
  };
  struct Route {
    std::uint64_t base, limit;
    std::size_t ep;
    MemController* target;
  };
  struct Txn {
    MemReq original;
    std::size_t src_ep = 0, dst_ep = 0;
    bool live = false;
  };

  class InjectPort final : public MemPort {
   public:
    InjectPort(Crossbar* x, std::size_t ep) : x_(x), ep_(ep) {}
    void request(const MemReq& req) override { x_->inject(ep_, req); }

   private:
    Crossbar* x_;
    std::size_t ep_;
  };

  void inject(std::size_t src_ep, const MemReq& req);
  // Books `bytes` on both ports and returns the delivery time.
  SimTime transfer(std::size_t src, std::size_t dst, std::uint64_t bytes);

  Simulator& sim_;
  NocConfig cfg_;
  std::vector<Endpoint> endpoints_;
  std::vector<Route> routes_;
  IndexPool<Txn> txns_;  // in-flight reads, by the tag forwarded for them
  NocStats stats_;
};

}  // namespace tlm::sim
