#include "sim/core.hpp"

#include "common/assert.hpp"
#include "common/math.hpp"
#include "sim/dma.hpp"

namespace tlm::sim {

void BarrierController::arrive(Simulator& sim, std::uint64_t id,
                               Handler resume) {
  TLM_REQUIRE(id == epoch_, "core arrived at a stale barrier epoch");
  waiting_.push_back(std::move(resume));
  if (waiting_.size() == parties_) {
    ++epoch_;
    for (Handler& fn : waiting_) sim.schedule(0, std::move(fn));
    waiting_.clear();
  }
}

TraceCore::TraceCore(Simulator& sim, CoreConfig cfg, std::size_t id,
                     trace::wire::Cursor stream, MemPort* l1,
                     BarrierController* barrier, DmaEngine* dma)
    : sim_(sim),
      cfg_(cfg),
      id_(id),
      stream_(stream),
      l1_(l1),
      barrier_(barrier),
      dma_(dma) {
  TLM_REQUIRE(l1_ != nullptr && barrier_ != nullptr,
              "core is missing a connection");
  TLM_REQUIRE(cfg_.max_outstanding >= 1, "need at least one outstanding slot");
}

void TraceCore::start() {
  sim_.schedule(0, [this] { advance(); });
}

void TraceCore::advance() {
  if (stream_.next(&op_)) {
    step();
    return;
  }
  if (!stats_.finished) {
    stats_.finished = true;
    stats_.finish_time = sim_.now();
  }
}

void TraceCore::step() {
  switch (op_.kind) {
    case trace::OpKind::Compute: {
      stats_.compute_ops += op_.ops;
      const double cycles = op_.ops * cfg_.cycles_per_op;
      const auto delay =
          static_cast<SimTime>(cycles / cfg_.freq_hz * 1e12 + 0.5);
      sim_.schedule(delay, [this] { advance(); });
      return;
    }
    case trace::OpKind::Read:
    case trace::OpKind::Write: {
      burst_active_ = true;
      cursor_ = round_down(op_.addr, cfg_.line_bytes);
      burst_end_ = op_.addr + op_.bytes;
      issue_lines();
      return;
    }
    case trace::OpKind::DmaCopy: {
      TLM_REQUIRE(dma_ != nullptr,
                  "trace contains DMA descriptors but this core has no "
                  "engine attached");
      // Post the descriptor and keep going: the engine streams the lines in
      // the background and the core's next barrier is the completion fence.
      // Elements are not naturally line-aligned, so widen to line bounds
      // (the same rounding a Read/Write burst applies via round_down).
      const std::uint64_t src = round_down(op_.src, cfg_.line_bytes);
      const std::uint64_t dst = round_down(op_.addr, cfg_.line_bytes);
      const std::uint64_t src_end = op_.src + op_.bytes;
      const std::uint64_t bytes =
          ceil_div(src_end - src, static_cast<std::uint64_t>(cfg_.line_bytes)) *
          cfg_.line_bytes;
      ++stats_.dmas;
      ++dma_pending_;
      dma_->copy(src, dst, bytes, [this] {
        TLM_CHECK(dma_pending_ > 0, "DMA completion with nothing pending");
        --dma_pending_;
        arrive_when_drained();
      });
      advance();
      return;
    }
    case trace::OpKind::Barrier:
      waiting_barrier_ = true;
      arrive_when_drained();
      return;
  }
  TLM_CHECK(false, "unreachable trace op kind");
}

void TraceCore::issue_lines() {
  const bool is_write = op_.kind == trace::OpKind::Write;
  while (cursor_ < burst_end_ && outstanding_ < cfg_.max_outstanding) {
    MemReq req;
    req.addr = cursor_;
    req.bytes = cfg_.line_bytes;
    req.is_write = is_write;
    req.tag = (static_cast<std::uint64_t>(id_) << 48) ^ cursor_;
    req.origin = this;
    req.issued = sim_.now();
    (is_write ? stats_.stores : stats_.loads) += 1;
    ++outstanding_;
    l1_->request(req);
    cursor_ += cfg_.line_bytes;
  }
  if (cursor_ >= burst_end_ && burst_active_) {
    // Burst fully issued: move on (non-blocking accesses may still be in
    // flight; barriers are the ordering points).
    burst_active_ = false;
    advance();
  }
}

void TraceCore::on_response(const MemReq& req) {
  TLM_CHECK(outstanding_ > 0, "response with nothing outstanding");
  --outstanding_;
  const double lat = to_seconds(sim_.now() - req.issued);
  stats_.access_latency.add(lat);
  stats_.latency_hist.add(lat);
  if (burst_active_) {
    issue_lines();
    return;
  }
  arrive_when_drained();
}

void TraceCore::arrive_when_drained() {
  // In-flight accesses and posted copies drain before the rendezvous.
  if (!waiting_barrier_ || outstanding_ > 0 || dma_pending_ > 0) return;
  waiting_barrier_ = false;
  ++stats_.barriers;
  barrier_->arrive(sim_, op_.addr, [this] { advance(); });
}

}  // namespace tlm::sim
