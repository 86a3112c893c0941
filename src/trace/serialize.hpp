// Binary trace files: capture once, replay many — the workflow SST users
// have with Ariel tracing. A file holds each thread's v3 records
// (trace/capture.hpp) exactly as the TraceBuffer keeps them, so saving copies
// bytes and loading checks them with one scan; neither re-encodes.
#pragma once

#include <iosfwd>
#include <string>

#include "trace/capture.hpp"

namespace tlm::trace {

// Writes `tb` to `os` / reads a buffer back. Throws std::invalid_argument
// on malformed input (bad magic, version, or truncated stream).
void save_trace(const TraceBuffer& tb, std::ostream& os);
TraceBuffer load_trace(std::istream& is);

// File convenience wrappers; throw on I/O failure.
void save_trace_file(const TraceBuffer& tb, const std::string& path);
TraceBuffer load_trace_file(const std::string& path);

}  // namespace tlm::trace
