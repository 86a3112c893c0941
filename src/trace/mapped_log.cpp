#include "trace/mapped_log.hpp"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <fstream>
#include <span>

#include "common/assert.hpp"

namespace tlm::trace {

namespace {

std::string errno_text() { return std::strerror(errno); }

}  // namespace

std::string mapped_log_manifest_path(const std::string& dir) {
  return dir + "/manifest.tlm";
}

std::string mapped_log_file_path(const std::string& dir, std::size_t thread) {
  return dir + "/thread-" + std::to_string(thread) + ".tlmlog";
}

// All mutable capture state for one thread lives here, alignas-separated so
// concurrent appenders never share a cache line.
struct alignas(64) MappedLog::PerThread {
  wire::Writer writer;
  int fd = -1;
  std::uint8_t* base = nullptr;  // whole-file mapping
  std::size_t mapped_bytes = 0;  // current file / mapping length
  std::uint64_t raw_ops = 0;     // sink calls
  std::uint64_t chunks = 0;
};

MappedLog::MappedLog(std::string dir, std::size_t threads,
                     std::size_t chunk_bytes)
    : dir_(std::move(dir)), chunk_bytes_(chunk_bytes) {
  TLM_REQUIRE(threads >= 1, "mapped log needs at least one thread stream");
  TLM_REQUIRE(chunk_bytes_ >= wire::kMaxRecordBytes,
              "chunk must hold at least one record");
  if (::mkdir(dir_.c_str(), 0755) != 0)
    TLM_REQUIRE(errno == EEXIST,
                "cannot create trace-log dir " + dir_ + ": " + errno_text());

  per_thread_.reserve(threads);
  for (std::size_t t = 0; t < threads; ++t) {
    auto pt = std::make_unique<PerThread>();
    const std::string path = mapped_log_file_path(dir_, t);
    pt->fd = ::open(path.c_str(), O_RDWR | O_CREAT | O_TRUNC, 0644);
    TLM_REQUIRE(pt->fd >= 0,
                "cannot open trace log " + path + ": " + errno_text());
    pt->mapped_bytes = sizeof(MappedLogFileHeader) + chunk_bytes_;
    TLM_REQUIRE(
        ::ftruncate(pt->fd, static_cast<off_t>(pt->mapped_bytes)) == 0,
        "cannot size trace log " + path + ": " + errno_text());
    void* m = ::mmap(nullptr, pt->mapped_bytes, PROT_READ | PROT_WRITE,
                     MAP_SHARED, pt->fd, 0);
    TLM_REQUIRE(m != MAP_FAILED,
                "cannot map trace log " + path + ": " + errno_text());
    pt->base = static_cast<std::uint8_t*>(m);
    pt->chunks = 1;

    MappedLogFileHeader h{};
    std::memcpy(h.magic, kMappedLogMagic, sizeof(h.magic));
    h.version = kTraceVersionVarint;
    h.thread = static_cast<std::uint32_t>(t);
    // Stays kUnfinalized until close(): a crash mid-capture leaves a header
    // that tells the loader "decode what you can, trust nothing".
    h.committed_bytes = kUnfinalized;
    h.ops = kUnfinalized;
    std::memcpy(pt->base, &h, sizeof(h));
    per_thread_.push_back(std::move(pt));
  }

  std::ofstream manifest(mapped_log_manifest_path(dir_));
  TLM_REQUIRE(manifest.is_open(),
              "cannot write mapped-log manifest in " + dir_);
  manifest << "tlm.mapped_log " << kTraceVersionVarint << "\n"
           << "threads " << threads << "\n"
           << "chunk_bytes " << chunk_bytes_ << "\n";
}

MappedLog::~MappedLog() {
  try {
    close();
  } catch (...) {  // NOLINT(bugprone-empty-catch): destructor must not throw
  }
}

void MappedLog::record(std::size_t thread, const TraceOp& op) {
  TLM_REQUIRE(thread < per_thread_.size(), "thread id outside trace");
  TLM_CHECK(!closed_.load(std::memory_order_acquire),
            "append to a closed MappedLog");
  PerThread& pt = *per_thread_[thread];
  ++pt.raw_ops;
  const std::uint64_t old_end = pt.writer.size();
  const std::span<const std::uint8_t> rec = pt.writer.append(op);
  const std::size_t at = sizeof(MappedLogFileHeader) + pt.writer.tail_offset();
  if (at + rec.size() > pt.mapped_bytes) {
    // Chunked growth: extend the file and remap the whole of it. The record
    // then lands contiguously, straddling the old chunk's end.
    const std::size_t grown = pt.mapped_bytes + chunk_bytes_;
    TLM_CHECK(::munmap(pt.base, pt.mapped_bytes) == 0,
              "munmap failed while growing trace log");
    TLM_CHECK(::ftruncate(pt.fd, static_cast<off_t>(grown)) == 0,
              "cannot grow trace log (disk full?): " + errno_text());
    void* m = ::mmap(nullptr, grown, PROT_READ | PROT_WRITE, MAP_SHARED,
                     pt.fd, 0);
    TLM_CHECK(m != MAP_FAILED,
              "cannot remap grown trace log: " + errno_text());
    pt.base = static_cast<std::uint8_t*>(m);
    pt.mapped_bytes = grown;
    ++pt.chunks;
  }
  std::memcpy(pt.base + at, rec.data(), rec.size());
  // A merged tail can re-encode shorter. Zero the bytes it left behind, so a
  // crash-cut log ends the way unwritten chunk slack does.
  const std::uint64_t end = pt.writer.size();
  if (end < old_end)
    std::memset(pt.base + sizeof(MappedLogFileHeader) + end, 0,
                old_end - end);
}

void MappedLog::close() {
  MutexLock lock(lifecycle_mu_);
  if (finalized_) return;
  finalized_ = true;
  closed_.store(true, std::memory_order_release);
  for (auto& ptp : per_thread_) {
    PerThread& pt = *ptp;
    const std::size_t write_off =
        sizeof(MappedLogFileHeader) + pt.writer.size();
    auto* h = reinterpret_cast<MappedLogFileHeader*>(pt.base);
    h->committed_bytes = pt.writer.size();
    h->ops = pt.writer.records();
    TLM_CHECK(::msync(pt.base, write_off, MS_SYNC) == 0,
              "msync failed finalizing trace log: " + errno_text());
    TLM_CHECK(::munmap(pt.base, pt.mapped_bytes) == 0,
              "munmap failed closing trace log");
    pt.base = nullptr;
    // Trim the unwritten chunk slack so on-disk size equals committed size.
    TLM_CHECK(::ftruncate(pt.fd, static_cast<off_t>(write_off)) == 0,
              "cannot trim trace log: " + errno_text());
    ::close(pt.fd);
    pt.fd = -1;
    pt.mapped_bytes = write_off;
  }
}

TraceSummary MappedLog::summary() const {
  MutexLock lock(lifecycle_mu_);
  TraceSummary out;
  for (const auto& pt : per_thread_) out += pt->writer.summary();
  return out;
}

MappedLogStats MappedLog::stats() const {
  MutexLock lock(lifecycle_mu_);
  MappedLogStats st;
  for (const auto& pt : per_thread_) {
    st.ops += pt->writer.records();
    st.raw_ops += pt->raw_ops;
    st.encoded_bytes += pt->writer.size();
    st.file_bytes += pt->mapped_bytes;  // chunk slack included until close()
    st.chunks += pt->chunks;
  }
  return st;
}

}  // namespace tlm::trace
