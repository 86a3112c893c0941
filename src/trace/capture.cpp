#include "trace/capture.hpp"

#include <bit>
#include <sstream>
#include <utility>

#include "common/assert.hpp"

namespace tlm::trace {

namespace {

std::uint64_t zigzag(std::uint64_t delta) {
  return (delta << 1) ^ (0 - (delta >> 63));
}

std::uint64_t unzigzag(std::uint64_t z) { return (z >> 1) ^ (0 - (z & 1)); }

// Doubles are stored byte-swapped: sort compute amounts are overwhelmingly
// small integers whose IEEE-754 mantissa tail is zero, so the swapped bit
// pattern is tiny and varints short.
std::uint64_t swap64(std::uint64_t v) { return __builtin_bswap64(v); }

// LEB128 unsigned varints: 1 byte below 128, 10 at most.
std::uint8_t* put_uvarint(std::uint8_t* out, std::uint64_t v) {
  while (v >= 0x80) {
    *out++ = static_cast<std::uint8_t>(v) | 0x80;
    v >>= 7;
  }
  *out++ = static_cast<std::uint8_t>(v);
  return out;
}

// Returns false when [*p, end) truncates mid-varint; on success advances *p.
// Throws std::invalid_argument on an encoding longer than a u64 allows.
bool get_uvarint(const std::uint8_t** p, const std::uint8_t* end,
                 std::uint64_t* v) {
  std::uint64_t out = 0;
  int shift = 0;
  for (const std::uint8_t* q = *p; q != end; ++q, shift += 7) {
    // The 10th byte carries only bit 63; any higher bit, or a continuation
    // past it, cannot be a u64.
    TLM_REQUIRE(shift < 63 || *q <= 1, "over-long varint in trace stream");
    out |= static_cast<std::uint64_t>(*q & 0x7f) << shift;
    if (!(*q & 0x80)) {
      *p = q + 1;
      *v = out;
      return true;
    }
  }
  return false;  // ran off `end` mid-varint: truncated
}

}  // namespace

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

namespace wire {

// Read, Write and DmaCopy records carry the dst delta, a DmaCopy then the
// src delta, and all three the burst length.
std::size_t encode_op(std::uint8_t* out, Codec& c, const TraceOp& op) {
  TLM_REQUIRE(op.kind <= OpKind::DmaCopy, "unknown op kind in trace");
  std::uint8_t* q = out;
  *q++ = static_cast<std::uint8_t>(op.kind);
  if (op.kind == OpKind::Compute) {
    q = put_uvarint(q, swap64(std::bit_cast<std::uint64_t>(op.ops)));
  } else if (op.kind == OpKind::Barrier) {
    q = put_uvarint(q, op.addr);
  } else {
    q = put_uvarint(q, zigzag(op.addr - c.prev_end));
    if (op.kind == OpKind::DmaCopy) {
      q = put_uvarint(q, zigzag(op.src - c.prev_src_end));
      c.prev_src_end = op.src + op.bytes;
    }
    q = put_uvarint(q, op.bytes);
    c.prev_end = op.addr + op.bytes;
  }
  return static_cast<std::size_t>(q - out);
}

bool decode_op(const std::uint8_t** p, const std::uint8_t* end, Codec& c,
               TraceOp* op) {
  const std::uint8_t* q = *p;
  if (q == end) return false;
  const std::uint8_t tag = *q++;
  TLM_REQUIRE(tag <= static_cast<std::uint8_t>(OpKind::DmaCopy),
              "corrupt op tag in trace stream");
  TraceOp o{};
  o.kind = static_cast<OpKind>(tag);
  std::uint64_t a = 0, d = 0;
  if (o.kind == OpKind::Compute) {
    if (!get_uvarint(&q, end, &a)) return false;
    o.ops = std::bit_cast<double>(swap64(a));
  } else if (o.kind == OpKind::Barrier) {
    if (!get_uvarint(&q, end, &o.addr)) return false;
  } else {
    const bool dma = o.kind == OpKind::DmaCopy;
    if (!get_uvarint(&q, end, &a) || (dma && !get_uvarint(&q, end, &d)) ||
        !get_uvarint(&q, end, &o.bytes))
      return false;
    o.addr = c.prev_end + unzigzag(a);
    c.prev_end = o.addr + o.bytes;
    if (dma) {
      o.src = c.prev_src_end + unzigzag(d);
      c.prev_src_end = o.src + o.bytes;
    }
  }
  *p = q;
  *op = o;
  return true;
}

bool Cursor::next(TraceOp* op) {
  if (p_ == end_) return false;
  TLM_REQUIRE(decode_op(&p_, end_, codec_, op), "truncated trace record");
  return true;
}

std::span<const std::uint8_t> Writer::append(const TraceOp& op) {
  const bool coalesced = records_ > 0 && try_coalesce(tail_, op);
  summary_.note(op, coalesced);
  if (coalesced) {
    codec_ = before_tail_;
  } else {
    tail_off_ += tail_len_;
    before_tail_ = codec_;
    tail_ = op;
    ++records_;
  }
  tail_len_ = encode_op(rec_.data(), codec_, tail_);
  return {rec_.data(), static_cast<std::size_t>(tail_len_)};
}

void Writer::resume(std::span<const std::uint8_t> log) {
  *this = Writer{};
  const std::uint8_t* p = log.data();
  const std::uint8_t* const end = p + log.size();
  while (p != end) {
    const Codec before = codec_;
    const std::uint8_t* const at = p;
    TLM_REQUIRE(decode_op(&p, end, codec_, &tail_), "truncated trace record");
    before_tail_ = before;
    tail_off_ = static_cast<std::uint64_t>(at - log.data());
    ++records_;
    summary_.note(tail_, false);
  }
  tail_len_ = log.size() - tail_off_;
}

}  // namespace wire

std::vector<TraceOp> TraceSource::stream(std::size_t thread) const {
  std::vector<TraceOp> ops;
  wire::Cursor c = cursor(thread);
  for (TraceOp op; c.next(&op);) ops.push_back(op);
  return ops;
}

TraceBuffer::TraceBuffer(std::size_t threads) : logs_(threads) {
  TLM_REQUIRE(threads >= 1, "trace needs at least one thread stream");
}

void TraceBuffer::record(std::size_t thread, const TraceOp& op) {
  TLM_REQUIRE(thread < logs_.size(), "thread id outside trace");
  Log& l = logs_[thread];
  const std::span<const std::uint8_t> rec = l.writer.append(op);
  l.bytes.resize(l.writer.tail_offset());
  l.bytes.insert(l.bytes.end(), rec.begin(), rec.end());
}

void TraceBuffer::adopt(std::size_t thread, std::vector<std::uint8_t> bytes,
                        std::uint64_t records) {
  TLM_REQUIRE(thread < logs_.size(), "thread id outside trace");
  wire::Writer w;
  w.resume(bytes);
  TLM_REQUIRE(w.records() == records,
              "trace record count does not match its payload");
  logs_[thread] = Log{w, std::move(bytes)};
}

TraceSummary TraceBuffer::summary() const {
  TraceSummary out;
  for (const Log& l : logs_) out += l.writer.summary();
  return out;
}

std::uint64_t TraceBuffer::bytes() const {
  std::uint64_t out = 0;
  for (const Log& l : logs_) out += l.bytes.size();
  return out;
}

void TraceBuffer::clear() {
  for (Log& l : logs_) {
    l.writer = wire::Writer{};
    l.bytes.clear();
  }
}

std::string TraceBuffer::describe() const {
  std::ostringstream os;
  const TraceSummary t = summary();
  os << "trace: " << logs_.size() << " threads, " << t.reads << " reads ("
     << t.read_bytes << " B), " << t.writes << " writes (" << t.write_bytes
     << " B), " << t.computes << " compute segments (" << t.compute_ops
     << " ops), " << t.barriers << " barrier crossings, " << t.dmas
     << " DMA descriptors (" << t.dma_bytes << " B)";
  return os.str();
}

}  // namespace tlm::trace
