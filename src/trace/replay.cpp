#include "trace/replay.hpp"

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <fstream>
#include <utility>

#include "common/assert.hpp"
#include "common/thread_pool.hpp"
#include "trace/mapped_log.hpp"

namespace tlm::trace {

namespace {

// A Barrier record: its id, and the log's length and record count just past
// it (where a crash-cut capture is cut back to).
struct Fence {
  std::uint64_t id = 0;
  std::size_t end = 0;
  std::uint64_t records = 0;
};

struct ThreadLog {
  std::vector<std::uint8_t> bytes;
  std::vector<Fence> fences;
  std::uint64_t records = 0;
  bool recovered = false;
};

// Reads one thread's log and validates it in one scan. Pure function of the
// file — safe to run concurrently for distinct threads.
ThreadLog read_thread_log(const std::string& dir, std::size_t thread) {
  const std::string path = mapped_log_file_path(dir, thread);
  std::ifstream in(path, std::ios::binary);
  TLM_REQUIRE(in.is_open(),
              "cannot open trace log " + path + ": " + std::strerror(errno));
  in.seekg(0, std::ios::end);
  const std::streamoff file_bytes = in.tellg();
  in.seekg(0);
  TLM_REQUIRE(file_bytes >= std::streamoff{sizeof(MappedLogFileHeader)},
              "trace log too short for its header: " + path);
  MappedLogFileHeader h{};
  in.read(reinterpret_cast<char*>(&h), sizeof(h));
  TLM_REQUIRE(std::memcmp(h.magic, kMappedLogMagic, sizeof(h.magic)) == 0,
              "not a mapped trace log (bad magic): " + path);
  TLM_REQUIRE(h.version == kTraceVersionVarint,
              "unsupported mapped-log version in " + path);
  TLM_REQUIRE(h.thread == thread,
              "mapped log carries the wrong thread id: " + path);

  // A crash-cut capture never finalized its header: keep the longest prefix
  // of complete records and drop the torn tail.
  ThreadLog log;
  log.recovered = h.committed_bytes == kUnfinalized;
  const auto payload = static_cast<std::uint64_t>(file_bytes) -
                       sizeof(MappedLogFileHeader);
  TLM_REQUIRE(log.recovered || h.committed_bytes <= payload,
              "mapped log shorter than its committed length: " + path);
  log.bytes.resize(log.recovered ? payload : h.committed_bytes);
  in.read(reinterpret_cast<char*>(log.bytes.data()),
          static_cast<std::streamsize>(log.bytes.size()));
  TLM_REQUIRE(in.good(), "cannot read trace log " + path);

  const std::uint8_t* const begin = log.bytes.data();
  const std::uint8_t* const end = begin + log.bytes.size();
  const std::uint8_t* p = begin;
  wire::Codec codec;
  for (TraceOp op; p != end && wire::decode_op(&p, end, codec, &op);) {
    ++log.records;
    if (op.kind == OpKind::Barrier)
      log.fences.push_back(
          {op.addr, static_cast<std::size_t>(p - begin), log.records});
  }
  TLM_REQUIRE(log.recovered || (p == end && log.records == h.ops),
              "mapped log decode mismatch vs finalized header: " + path);
  log.bytes.resize(static_cast<std::size_t>(p - begin));
  return log;
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

  // Each worker scans a contiguous group of trace threads and stops at its
  // first bad log; run_spmd waits for every worker and rethrows the
  // lowest-numbered worker's exception. Groups hold ascending thread
  // ranges, so that is the lowest bad thread's error, on any pool.
  std::vector<ThreadLog> logs(threads);
  pool.parallel_for(0, threads,
                    [&](std::size_t, std::size_t begin, std::size_t end) {
                      for (std::size_t t = begin; t < end; ++t)
                        logs[t] = read_thread_log(dir, t);
                    });

  // Merge at the fence points: every thread must carry the same ordered
  // Barrier-id schedule, or the sim's rendezvous (and the DmaCopy
  // completion fences that ride on it) could never line up.
  std::size_t common = ~std::size_t{0};
  bool any_recovered = false;
  for (const ThreadLog& l : logs) {
    common = std::min(common, l.fences.size());
    any_recovered |= l.recovered;
  }
  for (std::size_t t = 0; t < threads; ++t)
    for (std::size_t f = 0; f < common; ++f)
      TLM_CHECK(logs[t].fences[f].id == logs[0].fences[f].id,
                "replay fence merge: thread " + std::to_string(t) +
                    " diverges from the barrier schedule at fence " +
                    std::to_string(f));
  if (any_recovered) {
    // A crash may cut the threads at different depths; replaying a ragged
    // capture would deadlock at the first missing rendezvous. End every log
    // just past the deepest globally-common fence — the longest consistent
    // prefix that actually simulates — and drop the partial epochs past it.
    for (ThreadLog& l : logs) {
      const Fence cut = common ? l.fences[common - 1] : Fence{};
      l.bytes.resize(cut.end);
      l.records = cut.records;
    }
  } else {
    for (std::size_t t = 0; t < threads; ++t)
      TLM_CHECK(logs[t].fences.size() == common,
                "replay fence merge: thread " + std::to_string(t) +
                    " has extra barrier crossings past the schedule");
  }
  logs_.reserve(threads);
  for (ThreadLog& l : logs) {
    stats_.ops += l.records;
    stats_.recovered_threads += l.recovered ? 1 : 0;
    logs_.push_back(std::move(l.bytes));
  }
  stats_.fences = common;
}

}  // namespace tlm::trace
