#include "sim/system.hpp"

#include <algorithm>

#include "common/assert.hpp"
#include "common/math.hpp"

namespace tlm::sim {

void SystemConfig::validate() const {
  TLM_REQUIRE(cores >= 1, "need at least one core");
  TLM_REQUIRE(cores_per_group >= 1 && cores % cores_per_group == 0,
              "cores must divide evenly into groups");
  TLM_REQUIRE(l1.line_bytes == l2.line_bytes &&
                  l1.line_bytes == far.line_bytes &&
                  l1.line_bytes == near.line_bytes,
              "all components must agree on the line size");
  TLM_REQUIRE(group_port_bw > 0, "group port bandwidth must be positive");
}

SystemConfig SystemConfig::paper(double rho, std::size_t cores) {
  TLM_REQUIRE(rho >= 1.0, "rho is a bandwidth expansion");
  SystemConfig c;
  c.cores = cores;
  c.cores_per_group = 4;
  c.core.freq_hz = 1.7e9;
  // ~8 machine cycles per modeled comparison (compare + moves + branch
  // misses), mirroring the paper's effective §V-A processing rate.
  c.core.cycles_per_op = 8.0;
  c.core.max_outstanding = 16;

  c.l1.name = "l1";
  c.l1.size_bytes = 16 * 1024;  // Fig. 4/7: 16 KB, 2-way, 2 ns
  c.l1.ways = 2;
  c.l1.latency = 2 * kNanosecond;

  c.l2.name = "l2";
  c.l2.size_bytes = 512 * 1024;  // Fig. 7: 512 KB, 16-way, 10 ns
  c.l2.ways = 16;
  c.l2.latency = 10 * kNanosecond;

  c.noc.hop_latency = 20 * kNanosecond;  // Fig. 7
  c.group_port_bw = 72e9;                // Fig. 4

  c.far.channels = 4;       // DDR-1066, 4 channels, ~60 GB/s STREAM
  c.far.channel_bw = 15e9;  // sustained
  c.near.channels = static_cast<std::uint32_t>(
      std::max(1.0, 4.0 * rho));  // Fig. 4: 8/16/32 channels at 2x/4x/8x
  c.near.total_bw = rho * c.far.total_bw();
  c.near.access_latency = 50 * kNanosecond;
  return c;
}

SystemConfig SystemConfig::scaled(double rho, std::size_t cores) {
  SystemConfig c = paper(rho, cores);
  const double shrink = static_cast<double>(cores) / 256.0;
  // Shrink memory bandwidth with the core count so x : y (and therefore the
  // §V-A memory-boundedness of sorting) matches the 256-core node, and
  // shrink the shared L2 so the N : Z ratio (the baseline's merge-pass
  // count) stays in the paper's regime at simulable problem sizes.
  c.far.channel_bw *= shrink;
  c.near.total_bw = rho * c.far.total_bw();
  c.group_port_bw *= std::max(shrink * 4.0, 0.05);  // per-group link
  c.l2.size_bytes = 128 * 1024;
  return c;
}

System::System(SystemConfig cfg, const trace::TraceSource& source)
    : cfg_(std::move(cfg)) {
  cfg_.validate();
  TLM_REQUIRE(source.threads() == cfg_.cores,
              "trace thread count must equal the core count");

  noc_ = std::make_unique<Crossbar>(sim_, cfg_.noc);
  far_ = std::make_unique<FarMemory>(sim_, cfg_.far);
  near_ = std::make_unique<NearMemory>(sim_, cfg_.near);

  const std::size_t groups = cfg_.cores / cfg_.cores_per_group;
  std::vector<std::size_t> group_eps(groups);
  for (std::size_t g = 0; g < groups; ++g)
    group_eps[g] =
        noc_->add_endpoint("group" + std::to_string(g), cfg_.group_port_bw);
  // Memory-side NoC links run faster than the memories they front (Fig. 4
  // quotes 36 GB/s per far channel of link for 15 GB/s of DRAM).
  const std::size_t far_ep =
      noc_->add_endpoint("far_dc", 2.4 * cfg_.far.total_bw());
  const std::size_t near_ep =
      noc_->add_endpoint("near_dc", 1.2 * cfg_.near.total_bw);
  noc_->add_route(trace::kFarBase, trace::kNearBase, far_ep, far_.get());
  noc_->add_route(trace::kNearBase, ~0ULL, near_ep, near_.get());

  // The background copy engine (Figs. 5/7 "DMA Engines") sits on its own
  // NoC endpoint, provisioned like a group port, and can route both far and
  // near addresses. Cores hand it the DmaCopy descriptors in their traces.
  DmaConfig dma_cfg = cfg_.dma;
  dma_cfg.line_bytes = cfg_.l1.line_bytes;
  const std::size_t dma_ep = noc_->add_endpoint("dma", cfg_.group_port_bw);
  dma_ = std::make_unique<DmaEngine>(sim_, dma_cfg, noc_->port(dma_ep));

  l2s_.reserve(groups);
  for (std::size_t g = 0; g < groups; ++g) {
    CacheConfig l2 = cfg_.l2;
    l2.name = "l2." + std::to_string(g);
    l2s_.push_back(std::make_unique<Cache>(sim_, l2, noc_->port(group_eps[g])));
  }

  barrier_ = std::make_unique<BarrierController>(cfg_.cores);
  l1s_.reserve(cfg_.cores);
  cores_.reserve(cfg_.cores);
  for (std::size_t i = 0; i < cfg_.cores; ++i) {
    CacheConfig l1 = cfg_.l1;
    l1.name = "l1." + std::to_string(i);
    l1s_.push_back(std::make_unique<Cache>(
        sim_, l1, l2s_[i / cfg_.cores_per_group].get()));
    cores_.push_back(std::make_unique<TraceCore>(
        sim_, cfg_.core, i, source.cursor(i), l1s_[i].get(), barrier_.get(),
        dma_.get()));
  }
}

SimReport System::run(std::uint64_t max_events) {
  for (auto& c : cores_) c->start();
  const std::uint64_t events = sim_.run(max_events);

  for (const auto& c : cores_)
    TLM_CHECK(c->finished(),
              "a core never finished its trace (barrier mismatch or event "
              "budget exhausted)");

  SimReport r;
  r.seconds = to_seconds(sim_.end_time());
  r.events = events;
  r.far = far_->stats();
  r.near = near_->stats();
  r.noc = noc_->stats();
  for (const auto& c : l1s_) {
    const CacheStats& s = c->stats();
    r.l1.reads += s.reads;
    r.l1.writes += s.writes;
    r.l1.read_hits += s.read_hits;
    r.l1.write_hits += s.write_hits;
    r.l1.fills += s.fills;
    r.l1.writebacks += s.writebacks;
  }
  for (const auto& c : l2s_) {
    const CacheStats& s = c->stats();
    r.l2.reads += s.reads;
    r.l2.writes += s.writes;
    r.l2.read_hits += s.read_hits;
    r.l2.write_hits += s.write_hits;
    r.l2.fills += s.fills;
    r.l2.writebacks += s.writebacks;
  }
  for (const auto& c : cores_) {
    r.core_loads += c->stats().loads;
    r.core_stores += c->stats().stores;
    r.compute_ops += c->stats().compute_ops;
    r.access_latency.merge(c->stats().access_latency);
    r.latency_hist.merge(c->stats().latency_hist);
  }
  r.barrier_epochs = barrier_->epoch();
  r.dma = dma_->stats();
  return r;
}

std::vector<std::pair<std::string, double>> SimReport::counters() const {
  const SimReport& r = *this;
  return {
      {"seconds", seconds},
      {"events", static_cast<double>(events)},
#define TLM_X(section, key, source) \
  {#section "." #key, static_cast<double>(source)},
      TLM_SIM_STATS(TLM_X) TLM_SIM_DETAIL_STATS(TLM_X)
#undef TLM_X
  };
}

void System::print_stats(std::ostream& os) const {
  os << "# component statistics (SST-style dump)\n";
  os << "sim.time_s " << to_seconds(sim_.end_time()) << "\n";
  for (std::size_t i = 0; i < cores_.size(); ++i) {
    const CoreStats& s = cores_[i]->stats();
    os << "core." << i << " loads=" << s.loads << " stores=" << s.stores
       << " compute_ops=" << s.compute_ops << " barriers=" << s.barriers
       << " finish_s=" << to_seconds(s.finish_time)
       << " lat_mean_ns=" << s.access_latency.mean() * 1e9 << "\n";
  }
  for (std::size_t i = 0; i < l1s_.size(); ++i) {
    const CacheStats& s = l1s_[i]->stats();
    os << l1s_[i]->config().name << " accesses=" << s.accesses()
       << " hit_rate=" << s.hit_rate() << " fills=" << s.fills
       << " writebacks=" << s.writebacks << "\n";
  }
  for (std::size_t i = 0; i < l2s_.size(); ++i) {
    const CacheStats& s = l2s_[i]->stats();
    os << l2s_[i]->config().name << " accesses=" << s.accesses()
       << " hit_rate=" << s.hit_rate() << " fills=" << s.fills
       << " writebacks=" << s.writebacks << "\n";
  }
  for (const auto& ep : noc_->endpoint_stats())
    os << "noc." << ep.name << " busy_s=" << to_seconds(ep.busy) << "\n";
  os << "noc messages=" << noc_->stats().messages
     << " bytes=" << noc_->stats().bytes << "\n";
  const MemStats& f = far_->stats();
  os << "mem.far reads=" << f.reads << " writes=" << f.writes
     << " row_hits=" << f.row_hits << " row_misses=" << f.row_misses
     << " bus_busy_s=" << to_seconds(f.busy) << "\n";
  const MemStats& nr = near_->stats();
  os << "mem.near reads=" << nr.reads << " writes=" << nr.writes
     << " bus_busy_s=" << to_seconds(nr.busy) << "\n";
  const DmaStats& d = dma_->stats();
  os << "dma descriptors=" << d.descriptors << " lines=" << d.lines
     << " bytes=" << d.bytes << "\n";
}

System::Inventory System::inventory() const {
  Inventory inv;
  inv.cores = cores_.size();
  inv.l1s = l1s_.size();
  inv.l2s = l2s_.size();
  // Group ports + far/near directory controllers + the DMA engine's port.
  inv.noc_endpoints = cores_.size() / cfg_.cores_per_group + 3;
  inv.far_channels = cfg_.far.channels;
  inv.near_channels = cfg_.near.channels;
  return inv;
}

}  // namespace tlm::sim
