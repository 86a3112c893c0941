// Binary trace files: capture once, replay many — the workflow SST users
// have with Ariel tracing. Ops use the compact v3 varint/delta wire format
// (typically 3–6 B/op): vaddrs are zigzag-delta-coded against the end of
// the previous burst (coalesced runs therefore encode a 1-byte zero delta),
// burst lengths and barrier ids are LEB128 varints, and compute amounts are
// byte-swapped doubles (mantissa-light values varint short). The same wire
// codec backs the out-of-core MappedLog sink (trace/mapped_log.hpp).
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "trace/capture.hpp"

namespace tlm::trace {

inline constexpr std::uint32_t kTraceVersionVarint = 3;

// Writes `tb` to `os` / reads a buffer back. Throws std::invalid_argument
// on malformed input (bad magic, version, or truncated stream).
void save_trace(const TraceBuffer& tb, std::ostream& os);
TraceBuffer load_trace(std::istream& is);

// File convenience wrappers; throw on I/O failure.
void save_trace_file(const TraceBuffer& tb, const std::string& path);
TraceBuffer load_trace_file(const std::string& path);

// The v3 wire codec, exposed so MappedLog/ShardedReplay append and decode
// the identical byte stream the file serializer produces.
namespace wire {

// LEB128 unsigned varint (1 byte for < 128, 10 bytes worst case).
void put_uvarint(std::vector<std::uint8_t>& out, std::uint64_t v);
// Returns false when [*p, end) truncates mid-varint; on success advances *p.
// Throws std::invalid_argument on an encoding longer than a u64 allows.
bool get_uvarint(const std::uint8_t** p, const std::uint8_t* end,
                 std::uint64_t* v);

// Per-stream delta state. Deltas are computed with wrapping u64 arithmetic,
// so any address pair — including a max-u64 jump that sign-wraps the zigzag
// intermediate — round-trips exactly.
struct Codec {
  std::uint64_t prev_end = 0;      // end of the last Read/Write/DmaCopy dst
  std::uint64_t prev_src_end = 0;  // end of the last DmaCopy src
};

// Appends the v3 encoding of `op` to `out`. Records are at most
// kMaxRecordBytes long.
inline constexpr std::size_t kMaxRecordBytes = 1 + 3 * 10;
void encode_op(std::vector<std::uint8_t>& out, Codec& c, const TraceOp& op);

// Decodes one record from [*p, end). Returns false (without advancing *p)
// when the range holds only a truncated record — the recovery signal for
// crash-cut logs. Throws on a corrupt op tag.
bool decode_op(const std::uint8_t** p, const std::uint8_t* end, Codec& c,
               TraceOp* op);

}  // namespace wire

}  // namespace tlm::trace
