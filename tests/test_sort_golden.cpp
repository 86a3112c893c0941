// Golden counting test for every sort: runs each sort::Algorithm
// through run_sort_counting and capture_sort_trace and compares what the
// Machine counted against tests/data/sort_golden.json, doubles by bit
// pattern (printed as hex floats).
//
// Each case runs in three variants: the plain scaled config, the same config
// with overlap_dma, and a seeded machine.near_alloc probability schedule
// (consulted only on the orchestrating thread, so the denials fall on the
// same allocations every run). A run pins every PhaseStats leaf of every
// phase and of the total (modeled seconds included), the FaultStats and
// StagerStats aggregates, and for the capture the record count of each
// core's trace stream plus a 64-bit hash over every field of every TraceOp.
//
// The geometries are chosen to reach each kernel path: GNU sort as a single
// run and with one and two merge passes (the second forms its runs in place
// through the ping-pong spare and ends in a two-run merge), NMsort with a
// single run, a single chunk and several chunks (metadata and eager-scatter
// Phase 1), the §III sorts at their base case and recursing at least two
// levels, and the write-efficient sort's small path (a single run and
// several), its distribution, and its oversized-singleton fill (an input
// half of whose keys are one value).
//
// On a mismatch the test writes the values it computed to
// sort_golden.actual.json in its working directory. A change that moves the
// counts on purpose regenerates the golden file by copying that file over
// tests/data/sort_golden.json.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstdio>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "analysis/experiment.hpp"
#include "common/faults.hpp"
#include "common/rng.hpp"
#include "common/sorted_check.hpp"
#include "obs/json.hpp"
#include "scratchpad/counters.hpp"
#include "scratchpad/machine.hpp"
#include "sort/catalogue.hpp"
#include "sort/sort.hpp"
#include "trace/capture.hpp"

namespace tlm::sort {
namespace {

using Entries = std::vector<std::pair<std::string, std::string>>;

constexpr std::size_t kCores = 4;
constexpr std::uint64_t kSeed = 20150525;
constexpr std::uint64_t kFaultSeed = 42;
// Few enough keys that run formation leaves a single run.
constexpr std::uint64_t kOneRun = 200;

struct Case {
  const char* name;
  Algorithm algorithm;
  TwoLevelConfig cfg;
  std::uint64_t n;
  // Keys in place of the harness's random ones (run_on_keys).
  std::vector<std::uint64_t> (*keys)(std::uint64_t n) = nullptr;
};

// Random keys with every other one replaced by a single value: that value's
// singleton bucket outgrows the gather buffer.
std::vector<std::uint64_t> half_equal_keys(std::uint64_t n) {
  std::vector<std::uint64_t> keys =
      random_keys(static_cast<std::size_t>(n), kSeed);
  for (std::size_t i = 0; i < keys.size(); i += 2)
    keys[i] = 0x5555'5555'5555'5555ULL;
  return keys;
}

// One scratchpad holding the whole input several times over.
TwoLevelConfig roomy() {
  return analysis::scaled_counting_config(4.0, kCores, 1 << 20);
}
// A scratchpad of a fraction of the input: NMsort runs five chunks and the
// write-efficient sort distributes into several groups.
TwoLevelConfig tight() {
  return analysis::scaled_counting_config(4.0, kCores, 256 << 10);
}
// Large blocks and a tiny scratchpad leave the §III sorts eight pivots per
// round against a 1920-element staging fit, so 40000 keys recurse twice.
TwoLevelConfig deep() {
  TwoLevelConfig c = analysis::scaled_counting_config(4.0, kCores, 32 << 10);
  c.block_bytes = 4096;
  return c;
}

std::vector<Case> cases() {
  return {
      {"gnu_one_run", Algorithm::GnuSort, roomy(), kOneRun},
      {"gnu_one_pass", Algorithm::GnuSort, roomy(), 1 << 14},
      {"gnu_two_pass", Algorithm::GnuSort, tight(), 50000},
      {"nmsort_one_run", Algorithm::NMsort, roomy(), kOneRun},
      {"nmsort_single_chunk", Algorithm::NMsort, roomy(), 1 << 14},
      {"nmsort_chunks", Algorithm::NMsort, tight(), 50000},
      {"nmsort_eager_scatter", Algorithm::NMsortNaive, tight(), 50000},
      {"sp_seq_fit", Algorithm::ScratchpadSeq, roomy(), 1 << 14},
      {"sp_seq_deep", Algorithm::ScratchpadSeq, deep(), 40000},
      {"sp_seq_quick_deep", Algorithm::ScratchpadSeqQuick, deep(), 40000},
      {"sp_par_fit", Algorithm::ScratchpadPar, roomy(), 1 << 14},
      {"sp_par_deep", Algorithm::ScratchpadPar, deep(), 40000},
      {"wesort_one_run", Algorithm::NMsortWriteEff, roomy(), kOneRun},
      {"wesort_small", Algorithm::NMsortWriteEff, roomy(), 1 << 14},
      {"wesort_distribute", Algorithm::NMsortWriteEff, tight(), 50000},
      {"wesort_equal_fill", Algorithm::NMsortWriteEff, tight(), 50000,
       half_equal_keys},
  };
}

enum class Variant { kDefault, kOverlapDma, kNearAllocFaults };
constexpr Variant kVariants[] = {Variant::kDefault, Variant::kOverlapDma,
                             Variant::kNearAllocFaults};

const char* variant_name(Variant s) {
  switch (s) {
    case Variant::kDefault:
      return "default";
    case Variant::kOverlapDma:
      return "overlap_dma";
    case Variant::kNearAllocFaults:
      return "near_alloc_faults";
  }
  return "?";
}

std::string exact(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%a", v);
  return buf;
}
std::string exact(std::uint64_t v) { return std::to_string(v); }

void add_phase(const std::string& prefix, const PhaseStats& p, Entries& out) {
#define TLM_X(kind, field, fold) \
  out.emplace_back(prefix + "." #field, exact(p.field()));
  TLM_PHASE_STATS(TLM_X)
#undef TLM_X
}

void add_run(const analysis::SortRun& r, Entries& out) {
  EXPECT_TRUE(r.verified);
  out.emplace_back("modeled_seconds", exact(r.modeled_seconds));
  add_phase("total", r.counting.total, out);
  for (std::size_t i = 0; i < r.counting.phases.size(); ++i) {
    const PhaseStats& p = r.counting.phases[i];
    add_phase("phase." + std::to_string(i) + "." + p.name, p, out);
  }
#define TLM_X(kind, field, metric) \
  out.emplace_back("faults." #field, exact(r.faults.field));
  TLM_FAULT_STATS(TLM_X)
#undef TLM_X
#define TLM_X(kind, field, metric) \
  out.emplace_back("stager." #field, exact(r.stager.field));
  TLM_STAGER_STATS(TLM_X)
#undef TLM_X
}

// FNV-1a over the 64-bit words of every field, in stream order.
struct Hash {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  void add(std::uint64_t w) {
    for (int i = 0; i < 8; ++i) {
      h ^= (w >> (8 * i)) & 0xff;
      h *= 0x100000001b3ULL;
    }
  }
};

void add_trace(const trace::TraceBuffer& tb, Entries& out) {
  Hash all;
  for (std::size_t t = 0; t < tb.threads(); ++t) {
    const std::vector<trace::TraceOp>& ops = tb.stream(t);
    out.emplace_back("trace." + std::to_string(t) + ".records",
                     exact(static_cast<std::uint64_t>(ops.size())));
    all.add(t);
    for (const trace::TraceOp& op : ops) {
      all.add(static_cast<std::uint64_t>(op.kind));
      all.add(op.addr);
      all.add(op.bytes);
      all.add(std::bit_cast<std::uint64_t>(op.ops));
      all.add(op.src);
    }
  }
  char buf[24];
  std::snprintf(buf, sizeof buf, "0x%016llx",
                static_cast<unsigned long long>(all.h));
  out.emplace_back("trace.hash", buf);
}

// Sort `a` on `input`, counted the way analysis::run_sort_counting counts
// its random keys.
analysis::SortRun run_on_keys(const TwoLevelConfig& cfg, Algorithm a,
                              const std::vector<std::uint64_t>& input,
                              trace::TraceSink* sink, FaultInjector* faults) {
  Machine m(cfg, sink);
  m.set_fault_injector(faults);
  std::vector<std::uint64_t> output(input.size());
  sort_into(m, a, input, output, kSeed);
  analysis::SortRun r;
  r.verified = is_sorted_permutation(input, output);
  m.end_phase();
  r.counting = m.stats();
  r.faults = m.fault_stats();
  r.stager = m.stager_stats();
  r.modeled_seconds = r.counting.total.seconds();
  return r;
}

analysis::SortRun count_case(const TwoLevelConfig& cfg, const Case& c,
                             FaultInjector* faults) {
  if (c.keys)
    return run_on_keys(cfg, c.algorithm, c.keys(c.n), nullptr, faults);
  return analysis::run_sort_counting(cfg, c.algorithm, c.n, kSeed, faults);
}

analysis::CaptureRun capture_case(const TwoLevelConfig& cfg, const Case& c,
                                  FaultInjector* faults) {
  if (!c.keys)
    return analysis::capture_sort_trace(cfg, c.algorithm, c.n, kSeed, faults);
  analysis::CaptureRun cap{analysis::SortRun{},
                           trace::TraceBuffer(cfg.threads)};
  cap.counting =
      run_on_keys(cfg, c.algorithm, c.keys(c.n), &cap.trace, faults);
  return cap;
}

// A fresh injector per run, so both runs draw the same denials.
FaultInjector* arm(std::optional<FaultInjector>& fi, Variant s) {
  fi.reset();
  if (s != Variant::kNearAllocFaults) return nullptr;
  fi.emplace(kFaultSeed);
  fi->arm(fault_site::kNearAlloc, FaultSchedule::prob(0.5));
  return &*fi;
}

// The counting run and the capture must count the same: the capture's
// counting view is pinned under the same keys and compared here first.
Entries run_case(const Case& c, Variant s) {
  TwoLevelConfig cfg = c.cfg;
  cfg.overlap_dma = s == Variant::kOverlapDma;
  std::optional<FaultInjector> fi;
  Entries counted;
  add_run(count_case(cfg, c, arm(fi, s)), counted);
  const analysis::CaptureRun cap = capture_case(cfg, c, arm(fi, s));
  Entries captured;
  add_run(cap.counting, captured);
  EXPECT_EQ(counted, captured) << c.name << "/" << variant_name(s);
  add_trace(cap.trace, counted);
  return counted;
}

obs::Json to_json(const std::vector<std::pair<std::string, Entries>>& runs) {
  obs::Json doc = obs::Json::object();
  doc["format"] = "tlm.sort_golden v1";
  obs::Json& out = doc["runs"];
  for (const auto& [name, entries] : runs) {
    obs::Json& r = out[name];
    for (const auto& [k, v] : entries) r[k] = v;
  }
  return doc;
}

const std::string* lookup(const Entries& e, const std::string& key) {
  for (const auto& [k, v] : e)
    if (k == key) return &v;
  return nullptr;
}

using Section = std::vector<trace::TraceOp>;

// Each core's ops between barriers: [t][e] holds what core t did after
// barrier e − 1 and before barrier e. Every core records every fork and
// join, so one e names the same SPMD section on every core.
std::vector<std::vector<Section>> sections(const trace::TraceBuffer& tb) {
  std::vector<std::vector<Section>> cores(tb.threads());
  for (std::size_t t = 0; t < tb.threads(); ++t) {
    std::vector<Section>& core = cores[t];
    core.emplace_back();
    for (const trace::TraceOp& op : tb.stream(t)) {
      if (op.kind == trace::OpKind::Barrier)
        core.emplace_back();
      else
        core.back().push_back(op);
    }
    core.pop_back();  // ops after the last barrier close no section
  }
  return cores;
}

bool busy(const Section& s) { return !s.empty(); }

// True when some SPMD section of `tb` is the write-efficient sort's
// oversized-singleton fill: every core's share is one write burst and one
// compute unit per 8-byte key it wrote.
bool has_fill_section(const trace::TraceBuffer& tb) {
  const std::vector<std::vector<Section>> cores = sections(tb);
  for (std::size_t e = 0; e < cores[0].size(); ++e) {
    const auto is_fill = [e](const std::vector<Section>& core) {
      const Section& s = core[e];
      return s.size() == 2 && s[0].kind == trace::OpKind::Write &&
             s[1].kind == trace::OpKind::Compute &&
             s[1].ops * sizeof(std::uint64_t) ==
                 static_cast<double>(s[0].bytes);
    };
    if (std::all_of(cores.begin(), cores.end(), is_fill)) return true;
  }
  return false;
}

// True when every core's first busy section forms its runs in place: each
// run is read, written back over the same range, and charged its sort.
bool forms_runs_in_place(const trace::TraceBuffer& tb) {
  for (const std::vector<Section>& core : sections(tb)) {
    const auto s = std::find_if(core.begin(), core.end(), busy);
    if (s == core.end() || s->size() % 3 != 0) return false;
    for (std::size_t i = 0; i < s->size(); i += 3) {
      const trace::TraceOp& r = (*s)[i];
      const trace::TraceOp& w = (*s)[i + 1];
      if (r.kind != trace::OpKind::Read || w.kind != trace::OpKind::Write ||
          (*s)[i + 2].kind != trace::OpKind::Compute || r.addr != w.addr ||
          r.bytes != w.bytes)
        return false;
    }
  }
  return true;
}

// True when every core's last busy section merges two runs: each output
// flush (a write, then its compute) charges lg 2 + 1 = 2 comparisons a key,
// where a merge of k > 2 runs charges lg k + 1.
bool ends_in_two_run_merge(const trace::TraceBuffer& tb) {
  for (const std::vector<Section>& core : sections(tb)) {
    const auto s = std::find_if(core.rbegin(), core.rend(), busy);
    if (s == core.rend()) return false;
    std::size_t flushes = 0;
    for (std::size_t i = 1; i < s->size(); ++i) {
      const trace::TraceOp& w = (*s)[i - 1];
      const trace::TraceOp& c = (*s)[i];
      if (w.kind != trace::OpKind::Write || c.kind != trace::OpKind::Compute)
        continue;
      if (c.ops != 2.0 * static_cast<double>(w.bytes / sizeof(std::uint64_t)))
        return false;
      ++flushes;
    }
    if (flushes == 0) return false;
  }
  return true;
}

bool has_phase(const Entries& e, const std::string& name) {
  for (const auto& [k, v] : e)
    if (k.rfind("phase.", 0) == 0 &&
        k.find("." + name + ".") != std::string::npos)
      return true;
  return false;
}

TEST(SortGolden, CountsMatchCheckedInGolden) {
  std::vector<std::pair<std::string, Entries>> runs;
  for (const Case& c : cases())
    for (const Variant s : kVariants)
      runs.emplace_back(std::string(c.name) + "/" + variant_name(s),
                        run_case(c, s));

  const obs::Json golden =
      obs::Json::load_file(TLM_TEST_DATA_DIR "/sort_golden.json");
  const obs::Json& want_runs = golden.at("runs");
  EXPECT_EQ(want_runs.obj().size(), runs.size());
  std::size_t mismatches = 0;
  for (const auto& [name, entries] : runs) {
    if (!want_runs.contains(name)) {
      ADD_FAILURE() << "golden has no run " << name;
      ++mismatches;
      continue;
    }
    const obs::Json& want = want_runs.at(name);
    EXPECT_EQ(want.obj().size(), entries.size()) << name;
    for (const auto& [k, v] : entries) {
      if (!want.contains(k)) {
        ADD_FAILURE() << name << ": golden has no entry " << k;
        ++mismatches;
      } else if (want.at(k).str() != v) {
        ADD_FAILURE() << name << "." << k << ": golden " << want.at(k).str()
                      << ", got " << v;
        ++mismatches;
      }
    }
  }
  if (mismatches > 0 || HasFailure()) {
    to_json(runs).write_file("sort_golden.actual.json");
    ADD_FAILURE() << "wrote the computed values to sort_golden.actual.json";
  }
}

// The golden pins each path only if its geometry actually takes it.
TEST(SortGolden, GeometriesReachTheirPaths) {
  auto phases_of = [](const Case& c, Variant s) {
    Entries e;
    TwoLevelConfig cfg = c.cfg;
    cfg.overlap_dma = s == Variant::kOverlapDma;
    add_run(count_case(cfg, c, nullptr), e);
    return e;
  };
  const std::vector<Case> cs = cases();
  auto find = [&](const std::string& name) {
    for (const Case& c : cs)
      if (name == c.name) return c;
    ADD_FAILURE() << "no case " << name;
    return cs.front();
  };
  const Case one = find("nmsort_one_run");
  EXPECT_EQ(detail::plan_runs<std::uint64_t>(Machine(one.cfg), one.n).nruns,
            1u);
  const Case few = find("nmsort_single_chunk");
  EXPECT_GT(detail::plan_runs<std::uint64_t>(Machine(few.cfg), few.n).nruns,
            1u);
  // GNU sort's two-pass geometry forms its runs in place, so formation
  // sorts each run through the ping-pong spare, and its last pass merges
  // two runs in the two-run loop.
  const Case gnu2 = find("gnu_two_pass");
  const trace::TraceBuffer gnu2_trace =
      capture_case(gnu2.cfg, gnu2, nullptr).trace;
  EXPECT_TRUE(forms_runs_in_place(gnu2_trace));
  EXPECT_TRUE(ends_in_two_run_merge(gnu2_trace));
  const Entries nm1 = phases_of(few, Variant::kDefault);
  EXPECT_TRUE(has_phase(nm1, "nmsort.phase1"));
  EXPECT_FALSE(has_phase(nm1, "nmsort.sample"));
  const Entries nmc = phases_of(find("nmsort_chunks"), Variant::kDefault);
  EXPECT_TRUE(has_phase(nmc, "nmsort.phase2"));
  const Entries naive =
      phases_of(find("nmsort_eager_scatter"), Variant::kDefault);
  EXPECT_TRUE(has_phase(naive, "nmsort.naive_scatter"));
  EXPECT_TRUE(has_phase(
      phases_of(find("wesort_small"), Variant::kDefault), "wesort.small"));
  EXPECT_TRUE(has_phase(phases_of(find("wesort_distribute"), Variant::kDefault),
                        "wesort.distribute"));
  // Only the half-equal input fills an oversized singleton bucket.
  const Case fill = find("wesort_equal_fill");
  EXPECT_TRUE(has_fill_section(capture_case(fill.cfg, fill, nullptr).trace));
  const Case dist = find("wesort_distribute");
  EXPECT_FALSE(has_fill_section(capture_case(dist.cfg, dist, nullptr).trace));
  // The pipelined Phase 2 prefetches through the Stager.
  const Entries nmo = phases_of(find("nmsort_chunks"), Variant::kOverlapDma);
  ASSERT_NE(lookup(nmo, "stager.prefetch_batches"), nullptr);
  EXPECT_NE(*lookup(nmo, "stager.prefetch_batches"), "0");

  // The §III recursion reaches depth two on the deep geometry (the same
  // keys and seed the Algorithm dispatch uses).
  const Case sp = find("sp_seq_deep");
  Machine m(sp.cfg);
  std::vector<std::uint64_t> keys =
      random_keys(static_cast<std::size_t>(sp.n), kSeed);
  ScratchpadSortOptions opt;
  opt.seed = kSeed ^ 0x517cc1b727220a95ULL;
  const ScratchpadSortReport rep =
      scratchpad_sort(m, std::span<std::uint64_t>(keys), opt);
  EXPECT_GE(rep.max_depth, 2u);
}

}  // namespace
}  // namespace tlm::sort
