#include "trace/serialize.hpp"

#include <cstring>
#include <istream>
#include <ostream>
#include <span>
#include <utility>
#include <vector>

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

}  // namespace

void save_trace(const TraceBuffer& tb, std::ostream& os) {
  Header h{};
  std::memcpy(h.magic, kMagic, sizeof(kMagic));
  h.version = kTraceVersionVarint;
  h.threads = static_cast<std::uint32_t>(tb.threads());
  write_pod(os, h);
  for (std::size_t t = 0; t < tb.threads(); ++t) {
    const std::span<const std::uint8_t> log = tb.log(t);
    write_pod(os, tb.records(t));
    write_pod(os, static_cast<std::uint64_t>(log.size()));
    if (!log.empty())
      os.write(reinterpret_cast<const char*>(log.data()),
               static_cast<std::streamsize>(log.size()));
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
    tb.adopt(t, std::move(payload), count);
  }
  return tb;
}

}  // namespace tlm::trace
