#include "trace/replay.hpp"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <fstream>

#include "common/assert.hpp"
#include "common/thread_pool.hpp"
#include "trace/mapped_log.hpp"
#include "trace/serialize.hpp"

namespace tlm::trace {

namespace {

struct DecodedThread {
  std::uint64_t mapped_bytes = 0;
  bool recovered = false;
};

// Decodes one thread's log file into `out`. Pure function of the file —
// safe to run concurrently for distinct threads.
DecodedThread decode_thread_log(const std::string& dir, std::size_t thread,
                                std::vector<TraceOp>& out) {
  const std::string path = mapped_log_file_path(dir, thread);
  const int fd = ::open(path.c_str(), O_RDONLY);
  TLM_REQUIRE(fd >= 0,
              "cannot open trace log " + path + ": " + std::strerror(errno));
  struct stat st{};
  if (::fstat(fd, &st) != 0) {
    ::close(fd);
    TLM_REQUIRE(false, "cannot stat trace log " + path);
  }
  const auto file_bytes = static_cast<std::size_t>(st.st_size);
  if (file_bytes < sizeof(MappedLogFileHeader)) {
    ::close(fd);
    TLM_REQUIRE(false, "trace log too short for its header: " + path);
  }
  void* m = ::mmap(nullptr, file_bytes, PROT_READ, MAP_PRIVATE, fd, 0);
  ::close(fd);  // the mapping keeps the file alive
  TLM_REQUIRE(m != MAP_FAILED, "cannot map trace log " + path);

  DecodedThread meta;
  meta.mapped_bytes = file_bytes;
  try {
    MappedLogFileHeader h{};
    std::memcpy(&h, m, sizeof(h));
    TLM_REQUIRE(std::memcmp(h.magic, kMappedLogMagic, sizeof(h.magic)) == 0,
                "not a mapped trace log (bad magic): " + path);
    TLM_REQUIRE(h.version == kTraceVersionVarint,
                "unsupported mapped-log version in " + path);
    TLM_REQUIRE(h.thread == thread,
                "mapped log carries the wrong thread id: " + path);

    const auto* p =
        static_cast<const std::uint8_t*>(m) + sizeof(MappedLogFileHeader);
    const std::uint8_t* end;
    const bool finalized = h.committed_bytes != kUnfinalized;
    if (finalized) {
      // The file is known to hold a header, so this cannot wrap.
      TLM_REQUIRE(
          h.committed_bytes <= file_bytes - sizeof(MappedLogFileHeader),
          "mapped log shorter than its committed length: " + path);
      end = p + h.committed_bytes;
    } else {
      // Crash-cut capture: the writer never finalized the header. Recover
      // the longest prefix of complete records and drop the torn tail.
      end = static_cast<const std::uint8_t*>(m) + file_bytes;
      meta.recovered = true;
    }

    wire::Codec codec;
    TraceOp op{};
    while (p != end && wire::decode_op(&p, end, codec, &op))
      out.push_back(op);
    if (finalized) {
      TLM_REQUIRE(p == end && out.size() == h.ops,
                  "mapped log decode mismatch vs finalized header: " + path);
    }
  } catch (...) {
    ::munmap(m, file_bytes);
    throw;
  }
  TLM_CHECK(::munmap(m, file_bytes) == 0, "munmap failed for " + path);
  return meta;
}

}  // namespace

ShardedReplay::ShardedReplay(const std::string& dir, ThreadPool& pool) {
  load(dir, pool);
}

ShardedReplay::ShardedReplay(const std::string& dir) {
  ThreadPool inline_pool(1);
  load(dir, inline_pool);
}

void ShardedReplay::load(const std::string& dir, ThreadPool& pool) {
  std::ifstream manifest(mapped_log_manifest_path(dir));
  TLM_REQUIRE(manifest.is_open(), "no mapped-log manifest under " + dir);
  std::string tag;
  std::uint32_t version = 0;
  std::size_t threads = 0;
  manifest >> tag >> version;
  TLM_REQUIRE(tag == "tlm.mapped_log" && version == kTraceVersionVarint,
              "unsupported mapped-log manifest in " + dir);
  manifest >> tag >> threads;
  TLM_REQUIRE(tag == "threads" && threads >= 1 && threads <= (1u << 20),
              "implausible thread count in mapped-log manifest");

  streams_.assign(threads, {});
  std::vector<DecodedThread> meta(threads);
  stats_.threads = threads;

  // Shard = one worker's contiguous group of trace threads. A shard stops at
  // its first bad log and throws; run_spmd waits for every shard and
  // rethrows the lowest-numbered shard's exception. Shards hold ascending
  // thread ranges, so that is the lowest bad thread's error, on any pool.
  pool.parallel_for(0, threads,
                    [&](std::size_t, std::size_t begin, std::size_t end) {
                      for (std::size_t t = begin; t < end; ++t)
                        meta[t] = decode_thread_log(dir, t, streams_[t]);
                    });
  // parallel_for runs only the non-empty chunks: one per worker, at most
  // one per thread.
  stats_.shards = std::min<std::uint64_t>(threads, pool.size());

  // Merge the shards at their fence points: every thread must carry the
  // same ordered Barrier-id schedule, or the sim's rendezvous (and the
  // DmaCopy completion fences that ride on it) could never line up.
  bool any_recovered = false;
  std::vector<std::vector<std::uint64_t>> schedules(threads);
  std::size_t common = ~std::size_t{0};
  for (std::size_t t = 0; t < threads; ++t) {
    for (const TraceOp& op : streams_[t])
      if (op.kind == OpKind::Barrier) schedules[t].push_back(op.addr);
    common = std::min(common, schedules[t].size());
    any_recovered |= meta[t].recovered;
  }
  for (std::size_t t = 0; t < threads; ++t)
    for (std::size_t f = 0; f < common; ++f)
      TLM_CHECK(schedules[t][f] == schedules[0][f],
                "replay fence merge: thread " + std::to_string(t) +
                    " diverges from the barrier schedule at fence " +
                    std::to_string(f));
  if (any_recovered) {
    // A crash may cut the threads at different depths; replaying a ragged
    // capture would deadlock at the first missing rendezvous. Truncate every
    // stream to the deepest globally-common fence — the longest consistent
    // prefix that actually simulates — and drop the partial epochs past it.
    for (std::size_t t = 0; t < threads; ++t) {
      std::size_t keep = 0, fences = 0;
      for (; keep < streams_[t].size() && fences < common; ++keep)
        if (streams_[t][keep].kind == OpKind::Barrier) ++fences;
      streams_[t].resize(keep);
    }
  } else {
    for (std::size_t t = 0; t < threads; ++t)
      TLM_CHECK(schedules[t].size() == common,
                "replay fence merge: thread " + std::to_string(t) +
                    " has extra barrier crossings past the schedule");
  }
  for (std::size_t t = 0; t < threads; ++t) {
    for (const TraceOp& op : streams_[t])
      if (op.kind == OpKind::DmaCopy) ++stats_.dmas;
    stats_.ops += streams_[t].size();
    stats_.mapped_bytes += meta[t].mapped_bytes;
    stats_.recovered_threads += meta[t].recovered ? 1 : 0;
  }
  stats_.fences = common;
}

}  // namespace tlm::trace
