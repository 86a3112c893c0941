#include "sim/dma.hpp"

#include "common/assert.hpp"
#include "common/math.hpp"

namespace tlm::sim {

DmaEngine::DmaEngine(Simulator& sim, DmaConfig cfg, MemPort* port)
    : sim_(sim), cfg_(cfg), port_(port) {
  TLM_REQUIRE(port_ != nullptr, "DMA engine needs a memory port");
  TLM_REQUIRE(cfg_.max_outstanding >= 1, "need at least one in-flight line");
}

void DmaEngine::copy(std::uint64_t src_addr, std::uint64_t dst_addr,
                     std::uint64_t bytes, Handler on_done) {
  TLM_REQUIRE(bytes > 0, "empty DMA copy");
  TLM_REQUIRE(src_addr % cfg_.line_bytes == 0 &&
                  dst_addr % cfg_.line_bytes == 0,
              "DMA operands must be line-aligned");
  ++stats_.descriptors;
  stats_.bytes += bytes;
  Descriptor d;
  d.src = src_addr;
  d.dst = dst_addr;
  d.bytes = round_up(bytes, cfg_.line_bytes);
  d.on_done = std::move(on_done);
  queue_.push_back(std::move(d));
  SimTime latency = cfg_.engine_latency;
  if (cfg_.faults) {
    // An injected engine stall delays descriptor processing — the same
    // schedule the analytic machine charges as DMA stall time, so trace
    // replay exercises it in simulated time too.
    const double stall = cfg_.faults->consult_stall(fault_site::kSimDmaStall);
    if (stall > 0) {
      ++stats_.stalls;
      latency += from_seconds(stall);
    }
  }
  sim_.schedule(latency, [this] { pump(); });
}

void DmaEngine::pump() {
  while (!queue_.empty() && outstanding_ < cfg_.max_outstanding) {
    Descriptor& d = queue_.front();
    if (d.issued >= d.bytes) return;  // reads done; waiting on responses
    MemReq req;
    req.addr = d.src + d.issued;
    req.bytes = cfg_.line_bytes;
    req.is_write = false;
    req.tag = d.issued;  // offset identifies the line within the head desc
    req.origin = this;
    d.issued += cfg_.line_bytes;
    ++outstanding_;
    ++stats_.lines;
    port_->request(req);
  }
}

void DmaEngine::on_response(const MemReq& req) {
  TLM_CHECK(outstanding_ > 0 && !queue_.empty(),
            "DMA response with no descriptor in flight");
  --outstanding_;
  Descriptor& d = queue_.front();

  if (cfg_.faults && cfg_.faults->should_fail(fault_site::kSimDmaFail)) {
    // Transient line-transfer failure: drop the payload and re-issue the
    // read. The line keeps its tag, so completion ordering is unaffected.
    ++stats_.retries;
    MemReq rr = req;
    ++outstanding_;
    port_->request(rr);
    return;
  }

  // Forward the line as a posted write to the destination.
  MemReq wr;
  wr.addr = d.dst + req.tag;
  wr.bytes = cfg_.line_bytes;
  wr.is_write = true;
  wr.posted = true;
  port_->request(wr);

  d.completed += cfg_.line_bytes;
  if (d.completed >= d.bytes) {
    Handler done = std::move(d.on_done);
    queue_.pop_front();
    if (done) sim_.schedule(0, std::move(done));
  }
  pump();
}

}  // namespace tlm::sim
