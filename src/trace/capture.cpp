#include "trace/capture.hpp"

#include <sstream>

#include "common/assert.hpp"

namespace tlm::trace {

void TraceSummary::note(const TraceOp& op, bool coalesced) {
  switch (op.kind) {
    case OpKind::Read:
      reads += coalesced ? 0 : 1;
      read_bytes += op.bytes;
      break;
    case OpKind::Write:
      writes += coalesced ? 0 : 1;
      write_bytes += op.bytes;
      break;
    case OpKind::Compute:
      computes += coalesced ? 0 : 1;
      compute_ops += op.ops;
      break;
    case OpKind::Barrier:
      ++barriers;
      break;
    case OpKind::DmaCopy:
      dmas += coalesced ? 0 : 1;
      dma_bytes += op.bytes;
      break;
  }
}

bool try_coalesce(TraceOp& tail, const TraceOp& op) {
  if (op.kind != tail.kind) return false;
  if (op.kind == OpKind::Compute) {
    tail.ops += op.ops;
    return true;
  }
  if ((op.kind == OpKind::Read || op.kind == OpKind::Write) &&
      tail.addr + tail.bytes == op.addr) {
    tail.bytes += op.bytes;
    return true;
  }
  if (op.kind == OpKind::DmaCopy && tail.addr + tail.bytes == op.addr &&
      tail.src + tail.bytes == op.src) {
    tail.bytes += op.bytes;
    return true;
  }
  return false;
}

TraceSummary& TraceSummary::operator+=(const TraceSummary& o) {
  reads += o.reads;
  writes += o.writes;
  computes += o.computes;
  barriers += o.barriers;
  dmas += o.dmas;
  read_bytes += o.read_bytes;
  write_bytes += o.write_bytes;
  dma_bytes += o.dma_bytes;
  compute_ops += o.compute_ops;
  return *this;
}

TraceBuffer::TraceBuffer(std::size_t threads)
    : streams_(threads), summaries_(threads) {
  TLM_REQUIRE(threads >= 1, "trace needs at least one thread stream");
}

void TraceBuffer::record(std::size_t thread, const TraceOp& op) {
  TLM_REQUIRE(thread < streams_.size(), "thread id outside trace");
  auto& s = streams_[thread];
  // Coalescing typically shrinks traces by an order of magnitude; the
  // summary is kept in lockstep so it never needs a re-scan.
  const bool coalesced = !s.empty() && try_coalesce(s.back(), op);
  if (!coalesced) s.push_back(op);
  summaries_[thread].s.note(op, coalesced);
}

TraceSummary TraceBuffer::summary() const {
  TraceSummary out;
  for (const StreamSummary& t : summaries_) out += t.s;
  return out;
}

void TraceBuffer::clear() {
  for (auto& s : streams_) s.clear();
  for (auto& t : summaries_) t.s = TraceSummary{};
}

std::string TraceBuffer::describe() const {
  std::ostringstream os;
  const TraceSummary t = summary();
  os << "trace: " << streams_.size() << " threads, " << t.reads << " reads ("
     << t.read_bytes << " B), " << t.writes << " writes (" << t.write_bytes
     << " B), " << t.computes << " compute segments (" << t.compute_ops
     << " ops), " << t.barriers << " barrier crossings, " << t.dmas
     << " DMA descriptors (" << t.dma_bytes << " B)";
  return os.str();
}

}  // namespace tlm::trace
