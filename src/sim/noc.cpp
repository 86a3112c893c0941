#include "sim/noc.hpp"

#include <algorithm>

namespace tlm::sim {

std::size_t Crossbar::add_endpoint(std::string name, double port_bw) {
  TLM_REQUIRE(port_bw > 0, "endpoint bandwidth must be positive");
  Endpoint ep(std::move(name), port_bw);
  ep.lane = sim_.add_lane();
  ep.inject = std::make_unique<InjectPort>(this, endpoints_.size());
  endpoints_.push_back(std::move(ep));
  return endpoints_.size() - 1;
}

void Crossbar::add_route(std::uint64_t base, std::uint64_t limit,
                         std::size_t ep, MemController* target) {
  TLM_REQUIRE(base < limit && target != nullptr && ep < endpoints_.size(),
              "bad route");
  routes_.push_back(Route{base, limit, ep, target});
}

MemPort* Crossbar::port(std::size_t ep) {
  TLM_REQUIRE(ep < endpoints_.size(), "unknown endpoint");
  return endpoints_[ep].inject.get();
}

SimTime Crossbar::transfer(std::size_t src, std::size_t dst,
                           std::uint64_t bytes) {
  auto serialize = [&](Endpoint& ep, SimTime& horizon, SimTime earliest) {
    const SimTime wire = ep.wire(bytes);
    const SimTime start = std::max(earliest, horizon);
    horizon = start + wire;
    ep.busy_accum += wire;
    return horizon;
  };
  Endpoint& s = endpoints_[src];
  Endpoint& d = endpoints_[dst];
  const SimTime out = serialize(s, s.tx_until, sim_.now());
  const SimTime in = serialize(d, d.rx_until, out + cfg_.hop_latency);
  ++stats_.messages;
  stats_.bytes += bytes;
  return in;
}

std::vector<EndpointStats> Crossbar::endpoint_stats() const {
  std::vector<EndpointStats> out;
  out.reserve(endpoints_.size());
  for (const auto& ep : endpoints_)
    out.push_back(EndpointStats{ep.name, ep.busy_accum});
  return out;
}

void Crossbar::inject(std::size_t src_ep, const MemReq& req) {
  const Route* route = nullptr;
  for (const auto& r : routes_)
    if (req.addr >= r.base && req.addr < r.limit) {
      route = &r;
      break;
    }
  TLM_REQUIRE(route != nullptr, "address has no NoC route");
  // Caches absorb demand stores; their writebacks and the DMA engine's
  // writes are posted, so every write that reaches the crossbar is posted.
  TLM_REQUIRE(req.posted || !req.is_write,
              "a write reaching the crossbar must be posted");

  // Writes carry their data across the wire; read requests are commands.
  const std::uint64_t wire_bytes =
      cfg_.header_bytes + (req.is_write ? req.bytes : 0);
  const SimTime deliver = transfer(src_ep, route->ep, wire_bytes);

  MemReq fwd = req;
  if (!req.posted) {
    // Read: responses return through the crossbar, so interpose.
    fwd.tag = txns_.acquire(Txn{req, src_ep, route->ep, true});
    fwd.origin = this;
  }
  sim_.arrival(deliver);
  route->target->arrive(fwd, deliver);
}

void Crossbar::on_response(const MemReq& req) {
  const auto id = static_cast<std::uint32_t>(req.tag);
  TLM_CHECK(req.tag < txns_.capacity() && txns_[id].live,
            "NoC response for unknown transaction");
  const Txn txn = txns_[id];
  txns_[id].live = false;
  txns_.release(id);
  // Read data flows back dst -> src.
  const SimTime deliver =
      transfer(txn.dst_ep, txn.src_ep, cfg_.header_bytes + txn.original.bytes);
  const MemReq original = txn.original;
  sim_.schedule_at(endpoints_[txn.src_ep].lane, deliver, [original] {
    if (original.origin) original.origin->on_response(original);
  });
}

}  // namespace tlm::sim
