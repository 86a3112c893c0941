// Binary trace streams: a TraceBuffer written to and read back from an
// iostream. A stream holds each thread's v3 records (trace/capture.hpp)
// exactly as the TraceBuffer keeps them, so saving copies bytes and loading
// checks them with one scan; neither re-encodes. Captures meant to outlive
// the process go to a MappedLog directory instead (trace/mapped_log.hpp),
// read back by ShardedReplay (trace/replay.hpp).
#pragma once

#include <iosfwd>

#include "trace/capture.hpp"

namespace tlm::trace {

// Writes `tb` to `os` / reads a buffer back. Throws std::invalid_argument
// on malformed input (bad magic, version, or truncated stream).
void save_trace(const TraceBuffer& tb, std::ostream& os);
TraceBuffer load_trace(std::istream& is);

}  // namespace tlm::trace
