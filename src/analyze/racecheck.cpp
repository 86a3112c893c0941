#include "analyze/racecheck.hpp"

#include <algorithm>
#include <cstdio>
#include <map>
#include <ostream>
#include <stdexcept>
#include <tuple>
#include <utility>

namespace tlm::analyze {

namespace {

using trace::OpKind;
using trace::TraceOp;

const char* op_name(OpKind k) {
  switch (k) {
    case OpKind::Read:
      return "Read";
    case OpKind::Write:
      return "Write";
    case OpKind::Compute:
      return "Compute";
    case OpKind::Barrier:
      return "Barrier";
    case OpKind::DmaCopy:
      return "DmaCopy";
  }
  return "?";
}

// Internal access record: AccessRef plus the ordering coordinates the
// happens-before test needs (epoch and whether that epoch was fenced).
struct Access {
  AccessRef ref;
  std::uint64_t epoch = 0;
  bool fenced = false;  // the issuing thread crossed the barrier ending epoch
  std::uint64_t end() const { return ref.addr + ref.bytes; }
};

// True when `a` and `b` are ordered by the model's happens-before relation.
// Both live in the same sweep group, so cross-thread accesses from distinct
// epochs only meet here in the pooled trailing group (where `fenced`
// decides whether the earlier epoch's fence edge exists).
bool ordered(const Access& a, const Access& b) {
  if (a.ref.thread == b.ref.thread) {
    if (a.ref.engine && b.ref.engine) return true;  // engine queue is FIFO
    if (!a.ref.engine && !b.ref.engine) return true;  // program order
    const Access& eng = a.ref.engine ? a : b;
    const Access& core = a.ref.engine ? b : a;
    // Core op before the post -> it happens-before the engine's transfer;
    // a fence between the epochs orders them too. A core op after the post
    // in the same epoch races the in-flight engine.
    return core.ref.op_index < eng.ref.op_index || core.epoch != eng.epoch;
  }
  if (a.epoch == b.epoch) return false;  // same rendezvous interval
  const Access& lo = a.epoch < b.epoch ? a : b;
  return lo.fenced;  // the earlier access is sealed by its epoch's fence
}

FindingKind classify(const Access& a, const Access& b) {
  if (!a.ref.engine && !b.ref.engine) return FindingKind::UnorderedOverlap;
  const bool a_engine_write = a.ref.engine && a.ref.write;
  const bool b_engine_write = b.ref.engine && b.ref.write;
  const bool a_core_read = !a.ref.engine && !a.ref.write;
  const bool b_core_read = !b.ref.engine && !b.ref.write;
  // An un-fenced core read against an in-flight destination is its own
  // class; every other engine-involved conflict (dst clobbered by a core
  // write, in-flight src overwritten, two descriptors from different
  // threads colliding) is staging reuse. Note the same-thread
  // consume-then-repost pattern never reaches here: a core read issued
  // before the post is ordered by program order plus the post edge.
  if ((a_engine_write && b_core_read) || (b_engine_write && a_core_read))
    return FindingKind::UnfencedDmaRead;
  return FindingKind::StagingReuse;
}

std::string hex(std::uint64_t v) {
  char buf[19];
  std::snprintf(buf, sizeof(buf), "0x%llx",
                static_cast<unsigned long long>(v));
  return buf;
}

std::string describe_access(const AccessRef& r) {
  std::string s = "thread " + std::to_string(r.thread) + " " +
                  (r.engine ? std::string("DMA engine ") +
                                  (r.write ? "write (dst)" : "read (src)")
                            : std::string(op_name(r.op))) +
                  " [" + hex(r.addr) + ", +" + std::to_string(r.bytes) +
                  ") at op " + std::to_string(r.op_index);
  s += trace::is_near_addr(r.addr) ? " (near)" : " (far)";
  return s;
}

}  // namespace

const char* to_string(FindingKind k) {
  switch (k) {
    case FindingKind::UnorderedOverlap:
      return "unordered-overlap";
    case FindingKind::UnfencedDmaRead:
      return "unfenced-dma-read";
    case FindingKind::StagingReuse:
      return "staging-reuse";
    case FindingKind::PostPhaseCharge:
      return "post-phase-charge";
  }
  return "?";
}

RacecheckReport racecheck(const trace::TraceSource& src,
                          const RacecheckOptions& opt) {
  RacecheckReport report;
  RacecheckStats& st = report.stats;
  const std::size_t threads = src.threads();
  st.threads = threads;

  // One forward pass over each thread's log collects its barrier schedule,
  // its accesses by epoch, and the ops after its final Barrier crossing.
  struct ThreadScan {
    std::vector<std::uint64_t> schedule;  // Barrier ids, in order
    std::vector<Access> accesses;
    std::uint64_t ops = 0;
    std::uint64_t trailing = 0;  // ops since the last Barrier
    std::size_t first_trailing = 0;
    TraceOp first_trailing_op{};
  };
  std::vector<ThreadScan> scans(threads);
  for (std::size_t t = 0; t < threads; ++t) {
    ThreadScan& ts = scans[t];
    trace::wire::Cursor cur = src.cursor(t);
    for (TraceOp op; cur.next(&op); ++ts.ops) {
      const std::size_t i = ts.ops;  // the record's index in the log
      if (op.kind == OpKind::Barrier) {
        ts.schedule.push_back(op.addr);
        ts.trailing = 0;
        continue;
      }
      if (ts.trailing++ == 0) {
        ts.first_trailing = i;
        ts.first_trailing_op = op;
      }
      if (op.kind == OpKind::Compute || op.bytes == 0) continue;
      auto push = [&](bool engine, bool write, std::uint64_t addr) {
        ts.accesses.push_back(
            Access{AccessRef{t, i, op.kind, engine, write, addr, op.bytes},
                   ts.schedule.size()});
      };
      if (op.kind == OpKind::Read) {
        push(false, false, op.addr);
      } else if (op.kind == OpKind::Write) {
        push(false, true, op.addr);
      } else {  // DmaCopy: the engine reads src and writes dst
        ++st.dmas;
        push(true, false, op.src);
        push(true, true, op.addr);
      }
    }
    st.ops += ts.ops;
    st.accesses += ts.accesses.size();
  }

  // Re-validate the fence schedule (the analyzer's sync edges are only as
  // good as the rendezvous alignment the replay merge relies on). Idle
  // threads never reached a rendezvous; they contribute no ordering
  // constraints and must not drag the common fence depth to zero.
  std::uint64_t common = ~std::uint64_t{0};
  const ThreadScan* ref = nullptr;
  for (const ThreadScan& ts : scans) {
    if (ts.ops == 0) continue;
    common = std::min<std::uint64_t>(common, ts.schedule.size());
    if (!ref) ref = &ts;
  }
  if (!ref) common = 0;
  for (std::size_t t = 0; t < threads; ++t) {
    const std::vector<std::uint64_t>& s = scans[t].schedule;
    for (std::uint64_t f = 0; f < std::min<std::uint64_t>(common, s.size());
         ++f) {
      if (s[f] != ref->schedule[f])
        throw std::invalid_argument(
            "racecheck: thread " + std::to_string(t) +
            " diverges from the global barrier schedule at fence " +
            std::to_string(f) + " (id " + std::to_string(s[f]) + " vs " +
            std::to_string(ref->schedule[f]) +
            ") — this trace cannot replay");
    }
  }
  st.fences = common;

  // Group the accesses by sweep epoch. Epochs past the globally common
  // fence depth pool into one trailing group: no further rendezvous orders
  // them across threads. An access is sealed when its thread crossed the
  // barrier ending its epoch.
  const std::uint64_t groups = common + 1;
  std::vector<std::vector<Access>> by_group(groups);
  for (const ThreadScan& ts : scans)
    for (Access a : ts.accesses) {
      a.fenced = a.epoch < ts.schedule.size();
      by_group[std::min(a.epoch, common)].push_back(a);
    }
  st.epochs = groups;

  // Findings are merged per (kind, thread pair, group) so one racy buffer
  // does not flood the report; `merged` counts the folded pairs.
  std::map<std::tuple<int, std::size_t, std::size_t, std::uint64_t>,
           std::size_t>
      dedupe;
  auto record = [&](const Access& a, const Access& b, std::uint64_t group) {
    const FindingKind kind = classify(a, b);
    const auto key = std::make_tuple(
        static_cast<int>(kind), std::min(a.ref.thread, b.ref.thread),
        std::max(a.ref.thread, b.ref.thread), group);
    if (auto it = dedupe.find(key); it != dedupe.end()) {
      ++report.findings[it->second].merged;
      return;
    }
    if (report.findings.size() >= opt.max_findings) {
      ++st.suppressed;
      return;
    }
    Finding f;
    f.kind = kind;
    f.epoch = group;
    // Deterministic side order: lower (thread, op_index) first.
    const bool a_first =
        std::make_pair(a.ref.thread, a.ref.op_index) <=
        std::make_pair(b.ref.thread, b.ref.op_index);
    f.first = a_first ? a.ref : b.ref;
    f.second = a_first ? b.ref : a.ref;
    f.overlap_addr = std::max(a.ref.addr, b.ref.addr);
    f.overlap_bytes =
        std::min(a.end(), b.end()) - f.overlap_addr;
    f.detail = describe_access(f.first) + " is unordered against " +
               describe_access(f.second);
    dedupe.emplace(key, report.findings.size());
    report.findings.push_back(std::move(f));
  };

  // Address-line sweep per group: accesses sorted by range start; a min-heap
  // on range end holds exactly the accesses overlapping the sweep point, so
  // each incoming access is compared only against genuine overlaps (and
  // read/read pairs are skipped outright).
  for (std::uint64_t g = 0; g < groups; ++g) {
    auto& accs = by_group[g];
    std::sort(accs.begin(), accs.end(), [](const Access& x, const Access& y) {
      return std::make_tuple(x.ref.addr, x.ref.thread, x.ref.op_index,
                             x.ref.engine) <
             std::make_tuple(y.ref.addr, y.ref.thread, y.ref.op_index,
                             y.ref.engine);
    });
    std::vector<const Access*> active;  // min-heap by end()
    auto by_end = [](const Access* x, const Access* y) {
      return x->end() > y->end();
    };
    for (const Access& a : accs) {
      while (!active.empty() && active.front()->end() <= a.ref.addr) {
        std::pop_heap(active.begin(), active.end(), by_end);
        active.pop_back();
      }
      for (const Access* b : active) {
        if (!a.ref.write && !b->ref.write) continue;
        ++st.pairs_checked;
        if (ordered(a, *b)) continue;
        record(a, *b, g);
      }
      active.push_back(&a);
      std::push_heap(active.begin(), active.end(), by_end);
    }
  }

  // Post-phase charges: any non-orchestrator thread still charging ops
  // after its final rendezvous ran past the join end_phase() folds on.
  if (opt.check_post_phase) {
    for (std::size_t t = 0; t < threads; ++t) {
      const ThreadScan& ts = scans[t];
      if (t == opt.orchestrator_thread || ts.trailing == 0) continue;
      if (report.findings.size() >= opt.max_findings) {
        ++st.suppressed;
        continue;
      }
      const TraceOp& op = ts.first_trailing_op;
      Finding f;
      f.kind = FindingKind::PostPhaseCharge;
      f.epoch = ts.schedule.size();
      f.first = AccessRef{t,       ts.first_trailing,
                          op.kind, op.kind == OpKind::DmaCopy,
                          op.kind == OpKind::Write ||
                              op.kind == OpKind::DmaCopy,
                          op.addr, op.bytes};
      f.merged = ts.trailing - 1;
      f.detail = "thread " + std::to_string(t) + " charges " +
                 std::to_string(ts.trailing) + " op(s) after its final " +
                 "Barrier crossing (first: " + op_name(op.kind) +
                 " at op " + std::to_string(ts.first_trailing) +
                 ") — work landing after the phase-closing join";
      report.findings.push_back(std::move(f));
    }
  }

  return report;
}

namespace {

obs::Json access_json(const AccessRef& r) {
  obs::Json j = obs::Json::object();
  j["thread"] = static_cast<std::uint64_t>(r.thread);
  j["op_index"] = static_cast<std::uint64_t>(r.op_index);
  j["op"] = op_name(r.op);
  j["engine"] = r.engine;
  j["write"] = r.write;
  j["addr"] = r.addr;
  j["bytes"] = r.bytes;
  j["space"] = trace::is_near_addr(r.addr) ? "near" : "far";
  return j;
}

}  // namespace

obs::Json to_json(const RacecheckReport& report) {
  obs::Json root = obs::Json::object();
  root["schema"] = "tlm.racecheck";
  root["version"] = std::uint64_t{1};
  root["clean"] = report.clean();

  obs::Json stats = obs::Json::object();
  const RacecheckStats& st = report.stats;
  stats["threads"] = st.threads;
  stats["ops"] = st.ops;
  stats["accesses"] = st.accesses;
  stats["dmas"] = st.dmas;
  stats["fences"] = st.fences;
  stats["epochs"] = st.epochs;
  stats["pairs_checked"] = st.pairs_checked;
  stats["suppressed"] = st.suppressed;
  root["stats"] = std::move(stats);

  obs::Json findings = obs::Json::array();
  for (const Finding& f : report.findings) {
    obs::Json j = obs::Json::object();
    j["kind"] = to_string(f.kind);
    j["epoch"] = f.epoch;
    j["first"] = access_json(f.first);
    if (f.kind != FindingKind::PostPhaseCharge)
      j["second"] = access_json(f.second);
    obs::Json ov = obs::Json::object();
    ov["addr"] = f.overlap_addr;
    ov["bytes"] = f.overlap_bytes;
    j["overlap"] = std::move(ov);
    j["merged"] = f.merged;
    j["detail"] = f.detail;
    findings.push_back(std::move(j));
  }
  root["findings"] = std::move(findings);
  return root;
}

void print(const RacecheckReport& report, std::ostream& os) {
  const RacecheckStats& st = report.stats;
  os << "racecheck: " << st.ops << " ops / " << st.accesses
     << " accesses across " << st.threads << " threads, " << st.fences
     << " fences, " << st.dmas << " DMA descriptors, " << st.pairs_checked
     << " overlap pairs checked\n";
  for (const Finding& f : report.findings) {
    os << "  [" << to_string(f.kind) << "] epoch " << f.epoch << ": "
       << f.detail;
    if (f.merged) os << " (+" << f.merged << " merged)";
    os << "\n";
  }
  if (st.suppressed)
    os << "  ... " << st.suppressed << " further finding(s) suppressed\n";
  os << (report.clean() ? "racecheck: clean\n"
                        : "racecheck: " +
                              std::to_string(report.findings.size() +
                                             st.suppressed) +
                              " finding(s)\n");
}

}  // namespace tlm::analyze
