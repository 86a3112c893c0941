#include "trace/serialize.hpp"

#include <bit>
#include <cstring>
#include <fstream>
#include <istream>
#include <ostream>

#include "common/assert.hpp"

namespace tlm::trace {

namespace {

constexpr char kMagic[8] = {'T', 'L', 'M', 'T', 'R', 'A', 'C', 'E'};

struct Header {
  char magic[8];
  std::uint32_t version;
  std::uint32_t threads;
};

template <typename T>
void write_pod(std::ostream& os, const T& v) {
  os.write(reinterpret_cast<const char*>(&v), sizeof(T));
}

template <typename T>
void read_pod(std::istream& is, T& v) {
  is.read(reinterpret_cast<char*>(&v), sizeof(T));
  TLM_REQUIRE(is.good(), "truncated trace stream");
}

std::uint64_t zigzag(std::uint64_t delta) {
  return (delta << 1) ^ (0 - (delta >> 63));
}

std::uint64_t unzigzag(std::uint64_t z) { return (z >> 1) ^ (0 - (z & 1)); }

// Doubles are stored byte-swapped: sort compute amounts are overwhelmingly
// small integers whose IEEE-754 mantissa tail is zero, so the swapped bit
// pattern is tiny and varints short.
std::uint64_t swap64(std::uint64_t v) {
#if defined(__GNUC__) || defined(__clang__)
  return __builtin_bswap64(v);
#else
  std::uint64_t r = 0;
  for (int i = 0; i < 8; ++i) r = (r << 8) | ((v >> (8 * i)) & 0xff);
  return r;
#endif
}

}  // namespace

namespace wire {

void put_uvarint(std::vector<std::uint8_t>& out, std::uint64_t v) {
  while (v >= 0x80) {
    out.push_back(static_cast<std::uint8_t>(v) | 0x80);
    v >>= 7;
  }
  out.push_back(static_cast<std::uint8_t>(v));
}

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

void encode_op(std::vector<std::uint8_t>& out, Codec& c, const TraceOp& op) {
  out.push_back(static_cast<std::uint8_t>(op.kind));
  switch (op.kind) {
    case OpKind::Read:
    case OpKind::Write:
      put_uvarint(out, zigzag(op.addr - c.prev_end));
      put_uvarint(out, op.bytes);
      c.prev_end = op.addr + op.bytes;
      break;
    case OpKind::Compute:
      put_uvarint(out, swap64(std::bit_cast<std::uint64_t>(op.ops)));
      break;
    case OpKind::Barrier:
      put_uvarint(out, op.addr);
      break;
    case OpKind::DmaCopy:
      put_uvarint(out, zigzag(op.addr - c.prev_end));
      put_uvarint(out, zigzag(op.src - c.prev_src_end));
      put_uvarint(out, op.bytes);
      c.prev_end = op.addr + op.bytes;
      c.prev_src_end = op.src + op.bytes;
      break;
    default:
      TLM_REQUIRE(false, "unknown op kind in trace");
  }
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
  std::uint64_t a = 0, b = 0, d = 0;
  switch (o.kind) {
    case OpKind::Read:
    case OpKind::Write:
      if (!get_uvarint(&q, end, &a) || !get_uvarint(&q, end, &b))
        return false;
      o.addr = c.prev_end + unzigzag(a);
      o.bytes = b;
      c.prev_end = o.addr + o.bytes;
      break;
    case OpKind::Compute:
      if (!get_uvarint(&q, end, &a)) return false;
      o.ops = std::bit_cast<double>(swap64(a));
      break;
    case OpKind::Barrier:
      if (!get_uvarint(&q, end, &a)) return false;
      o.addr = a;
      break;
    case OpKind::DmaCopy:
      if (!get_uvarint(&q, end, &a) || !get_uvarint(&q, end, &d) ||
          !get_uvarint(&q, end, &b))
        return false;
      o.addr = c.prev_end + unzigzag(a);
      o.src = c.prev_src_end + unzigzag(d);
      o.bytes = b;
      c.prev_end = o.addr + o.bytes;
      c.prev_src_end = o.src + o.bytes;
      break;
  }
  *p = q;
  *op = o;
  return true;
}

}  // namespace wire

void save_trace(const TraceBuffer& tb, std::ostream& os) {
  Header h{};
  std::memcpy(h.magic, kMagic, sizeof(kMagic));
  h.version = kTraceVersionVarint;
  h.threads = static_cast<std::uint32_t>(tb.threads());
  write_pod(os, h);
  for (std::size_t t = 0; t < tb.threads(); ++t) {
    const auto& s = tb.stream(t);
    write_pod(os, static_cast<std::uint64_t>(s.size()));
    std::vector<std::uint8_t> payload;
    payload.reserve(8 * s.size());
    wire::Codec codec;
    for (const TraceOp& op : s) wire::encode_op(payload, codec, op);
    write_pod(os, static_cast<std::uint64_t>(payload.size()));
    if (!payload.empty())
      os.write(reinterpret_cast<const char*>(payload.data()),
               static_cast<std::streamsize>(payload.size()));
  }
  TLM_REQUIRE(os.good(), "trace write failed");
}

TraceBuffer load_trace(std::istream& is) {
  Header h{};
  read_pod(is, h);
  TLM_REQUIRE(std::memcmp(h.magic, kMagic, sizeof(kMagic)) == 0,
              "not a trace file (bad magic)");
  TLM_REQUIRE(h.version == kTraceVersionVarint, "unsupported trace version");
  TLM_REQUIRE(h.threads >= 1 && h.threads <= 1 << 20,
              "implausible thread count in trace header");

  // Loaded ops go through the sink hook, which re-establishes the capture
  // invariants (coalescing, thread bounds).
  TraceBuffer tb(h.threads);
  for (std::uint32_t t = 0; t < h.threads; ++t) {
    std::uint64_t count = 0;
    read_pod(is, count);
    TLM_REQUIRE(count <= (1ULL << 40), "implausible op count in trace");
    std::uint64_t payload_bytes = 0;
    read_pod(is, payload_bytes);
    TLM_REQUIRE(payload_bytes <= (1ULL << 43),
                "implausible payload size in trace");
    std::vector<std::uint8_t> payload(payload_bytes);
    if (payload_bytes) {
      is.read(reinterpret_cast<char*>(payload.data()),
              static_cast<std::streamsize>(payload_bytes));
      TLM_REQUIRE(is.good(), "truncated trace stream");
    }
    const std::uint8_t* p = payload.data();
    const std::uint8_t* end = p + payload.size();
    wire::Codec codec;
    for (std::uint64_t i = 0; i < count; ++i) {
      TraceOp op{};
      TLM_REQUIRE(wire::decode_op(&p, end, codec, &op),
                  "truncated trace stream");
      tb.record(t, op);
    }
    TLM_REQUIRE(p == end, "trailing bytes after trace op payload");
  }
  return tb;
}

void save_trace_file(const TraceBuffer& tb, const std::string& path) {
  std::ofstream os(path, std::ios::binary);
  TLM_REQUIRE(os.is_open(), "cannot open trace file for writing: " + path);
  save_trace(tb, os);
}

TraceBuffer load_trace_file(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  TLM_REQUIRE(is.is_open(), "cannot open trace file: " + path);
  return load_trace(is);
}

}  // namespace tlm::trace
