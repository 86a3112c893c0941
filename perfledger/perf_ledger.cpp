// perf_ledger — host-time ledger for the twolevel stack, timed from outside.
//
// A workload is one wave of jobs on a JobServer over one Machine. Each
// iteration answers the wave the two ways a user of this repository asks:
//
//   model  the counting model's answer: the wave on an untraced Machine
//          (server admission and combining -> job phases -> kernels with
//          Machine charging and Stager staging);
//   sim    the cycle-level answer: the wave captured into a TraceBuffer,
//          round-tripped through the v3 file codec, captured again through
//          a MappedLog and decoded by ShardedReplay, then replayed on the
//          discrete-event simulator (DES).
//
// Workloads (all inputs derive from --seed):
//
//   sort    Table I: GNU sort and NMsort (8X) over the same keys on the
//           scaled 4-core node — DES replay dominates the sim answer;
//   kmeans  staged k-means with the points at 4x the scratchpad — the
//           kernel and its Stager pipeline dominate the model answer;
//   server  a server_mixed wave: four tenants plus a 4 KiB-quota thrasher,
//           mixed sort and k-means jobs behind a small admission cap — the
//           combiner and admission back-off sit on the model answer's path.
//
// With --trace 0 only the two answers are timed (end-to-end metrics). With
// --trace 1 the benchmark also times each layer from its own side of the
// call: every job phase is wrapped in a timer (phase_ms), so the server's
// own share is the wave time minus the phases (server_ms), and each capture,
// codec, decode and DES call is bracketed separately.
//
// Every iteration is checked: each job settles kDone with the output of the
// reference made at set-up (std::sort; kmeans_far on a fresh Machine, which
// kmeans_staged must match bit for bit), the v3 round trip and the
// ShardedReplay decode yield the TraceBuffer's streams exactly, and the
// modeled time, simulated time and DES counters repeat the warm-up's.
//
// Each iteration answers the model kModelReps times and the sim once. A
// timing is reported as the fastest of the run's samples (see Ledger);
// setup_s is the median of set-ups spread over the run. The summary lines
// before the JSON give each timing's minimum, median, upper decile and
// sample count.
//
// Usage:
//   perf_ledger --workload <sort|kmeans|server> --seed <n> --seconds <s>
//               --trace <0|1> --workdir <dir>
// The mapped trace is written under --workdir, which is removed on exit.
// The last line of standard output is one JSON object:
//   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <exception>
#include <filesystem>
#include <functional>
#include <iomanip>
#include <iostream>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "analysis/experiment.hpp"
#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "kmeans/kmeans.hpp"
#include "scratchpad/machine.hpp"
#include "server/job_server.hpp"
#include "server/jobs.hpp"
#include "sim/system.hpp"
#include "sort/sort.hpp"
#include "trace/capture.hpp"
#include "trace/mapped_log.hpp"
#include "trace/replay.hpp"
#include "trace/serialize.hpp"

namespace tlm::ledger {
namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// The simulator groups cores in fours, so every workload runs on one group.
constexpr std::size_t kCores = 4;
// Set-up repeats per run; setup_s reports their median.
constexpr std::size_t kSetupReps = 21;
// Measured iterations per run, at least, however short --seconds is.
constexpr std::size_t kMinIterations = 5;
// Model answers per iteration (each iteration has one sim answer).
constexpr std::size_t kModelReps = 3;

// ---- workloads --------------------------------------------------------------

struct WaveResults {
  std::vector<std::shared_ptr<server::SortJobResult>> sorts;
  std::vector<std::shared_ptr<server::KMeansJobResult>> kmeans;
};

struct Tenant {
  std::string name;
  std::uint64_t quota = 0;
};

// Built once per set-up: the inputs, made from the seed, and the reference
// answers every job is checked against, computed outside the stack.
struct Workload {
  TwoLevelConfig cfg;
  server::JobServer::Options options;
  std::vector<Tenant> tenants;
  // Fresh job specs for one wave, in submission order; their phases record
  // outputs into `out` in the order of the reference vectors below.
  std::function<std::vector<server::JobSpec>(WaveResults& out)> jobs;
  std::vector<std::vector<std::uint64_t>> sorted;
  std::vector<kmeans::KMeansResult> clustered;
};

server::JobSpec one_phase_job(std::string tenant, std::string name,
                              std::function<void(server::JobContext&)> fn) {
  server::JobSpec spec;
  spec.tenant = std::move(tenant);
  spec.name = std::move(name);
  spec.phases.push_back({"run", std::move(fn)});
  return spec;
}

Workload sort_workload(std::uint64_t seed) {
  constexpr std::size_t kKeys = 65536;
  Workload w;
  w.cfg = analysis::scaled_counting_config(8.0, kCores, 1 * MiB);
  w.tenants = {{"table1", w.cfg.near_capacity}};
  auto keys = std::make_shared<const std::vector<std::uint64_t>>(
      random_keys(kKeys, seed));
  std::vector<std::uint64_t> sorted = *keys;
  std::sort(sorted.begin(), sorted.end());
  w.sorted = {sorted, std::move(sorted)};
  w.jobs = [keys, seed](WaveResults& out) {
    auto gnu = std::make_shared<server::SortJobResult>();
    auto nm = std::make_shared<server::SortJobResult>();
    out.sorts = {gnu, nm};
    std::vector<server::JobSpec> specs;
    specs.push_back(
        one_phase_job("table1", "gnu", [keys, gnu](server::JobContext& ctx) {
          gnu->output = *keys;
          sort::gnu_like_sort(ctx.machine,
                              std::span<std::uint64_t>(gnu->output));
        }));
    specs.push_back(one_phase_job(
        "table1", "nmsort", [keys, nm, seed](server::JobContext& ctx) {
          nm->output.assign(keys->size(), 0);
          sort::NMSortOptions opt;
          opt.seed = seed ^ 0x9e3779b97f4a7c15ULL;
          sort::nm_sort_into(ctx.machine,
                             std::span<const std::uint64_t>(*keys),
                             std::span<std::uint64_t>(nm->output), opt);
        }));
    return specs;
  };
  return w;
}

Workload kmeans_workload(std::uint64_t seed) {
  Workload w;
  w.cfg = analysis::scaled_counting_config(4.0, kCores, 256 * KiB);
  w.cfg.overlap_dma = true;  // the staged pipeline's DMA engine
  w.tenants = {{"kmeans", w.cfg.near_capacity}};
  kmeans::KMeansOptions opt;
  opt.k = 4;
  opt.dims = 4;
  opt.max_iters = 8;
  opt.tol = 0;  // never converges early: every run does max_iters sweeps
  opt.seed = seed;
  const std::size_t n = 4 * w.cfg.near_capacity / (opt.dims * sizeof(double));
  auto points = std::make_shared<const std::vector<double>>(
      kmeans::make_blobs(n, opt.dims, opt.k, seed));
  Machine ref(w.cfg);
  w.clustered = {kmeans::kmeans_far(ref, *points, opt)};
  w.jobs = [points, opt](WaveResults& out) {
    auto r = std::make_shared<server::KMeansJobResult>();
    out.kmeans = {r};
    std::vector<server::JobSpec> specs;
    specs.push_back(one_phase_job(
        "kmeans", "staged", [points, opt, r](server::JobContext& ctx) {
          r->result = kmeans::kmeans_staged(
              ctx.machine, std::span<const double>(*points), opt);
        }));
    return specs;
  };
  return w;
}

// The server_mixed --quick mix: jobs cycle through the five sort backends
// with every sixth a staged k-means; seeds derive from (tenant, index).
Workload server_workload(std::uint64_t seed) {
  constexpr std::size_t kTenants = 4;  // plus the thrasher
  constexpr std::size_t kJobs = 6;     // per tenant
  constexpr std::size_t kSortN = 8000;
  constexpr std::size_t kKMeansN = 1500, kDims = 4, kK = 8;
  Workload w;
  w.cfg = test_config(4.0);
  w.cfg.near_capacity = 256 * KiB;
  w.cfg.cache_bytes = 32 * KiB;
  w.cfg.threads = kCores;
  w.cfg.overlap_dma = true;
  // Fewer slots than tenants: submits overflow and back off by help-draining.
  w.options.max_outstanding = (kTenants + 1) / 2;
  w.options.max_queue_per_tenant = 4;
  w.options.admission_retry_budget = 64;
  for (std::size_t i = 0; i < kTenants; ++i)
    w.tenants.push_back(
        {std::string("t").append(std::to_string(i)), w.cfg.near_capacity});
  w.tenants.push_back({"thrasher", 4 * KiB});

  struct Job {
    std::string tenant;
    std::size_t idx;
    std::uint64_t seed;
  };
  std::vector<Job> order;
  for (std::size_t idx = 0; idx < kJobs; ++idx)
    for (std::size_t i = 0; i < w.tenants.size(); ++i)
      order.push_back({w.tenants[i].name, idx,
                       seed + 1000003ULL * i + 7919ULL * idx});
  for (const Job& j : order) {
    if (j.idx % 6 == 5) {
      kmeans::KMeansOptions opt;  // make_kmeans_job's options
      opt.k = kK;
      opt.dims = kDims;
      opt.seed = j.seed;
      Machine ref(w.cfg);
      w.clustered.push_back(kmeans::kmeans_far(
          ref, kmeans::make_blobs(kKMeansN, kDims, kK, j.seed), opt));
    } else {
      std::vector<std::uint64_t> keys = random_keys(kSortN, j.seed);
      std::sort(keys.begin(), keys.end());
      w.sorted.push_back(std::move(keys));
    }
  }
  w.jobs = [order](WaveResults& out) {
    std::vector<server::JobSpec> specs;
    for (const Job& j : order) {
      const std::string name = std::string("job").append(std::to_string(j.idx));
      if (j.idx % 6 == 5) {
        out.kmeans.push_back(std::make_shared<server::KMeansJobResult>());
        specs.push_back(server::make_kmeans_job(j.tenant, name, kKMeansN,
                                                kDims, kK, j.seed,
                                                out.kmeans.back()));
      } else {
        out.sorts.push_back(std::make_shared<server::SortJobResult>());
        specs.push_back(server::make_sort_job(
            j.tenant, name, server::kSortBackends[j.idx % 5], kSortN, j.seed,
            out.sorts.back()));
      }
    }
    return specs;
  };
  return w;
}

std::size_t wrong_outputs(const Workload& w, const WaveResults& r) {
  std::size_t bad = 0;
  for (std::size_t i = 0; i < w.sorted.size(); ++i)
    bad += i >= r.sorts.size() || r.sorts[i]->output != w.sorted[i];
  for (std::size_t i = 0; i < w.clustered.size(); ++i) {
    if (i >= r.kmeans.size()) {
      ++bad;
      continue;
    }
    const kmeans::KMeansResult& got = r.kmeans[i]->result;
    const kmeans::KMeansResult& want = w.clustered[i];
    bad += got.centroids != want.centroids || got.inertia != want.inertia ||
           got.iterations != want.iterations;
  }
  return bad;
}

// ---- one wave, one iteration ----------------------------------------------

struct WaveRun {
  std::size_t jobs = 0;
  std::size_t failed = 0;  // not settled kDone, or output off the reference
  double wave_s = 0;       // JobServer up -> drained -> down
  double phase_s = 0;      // inside job phases (only when timing phases)
  double modeled_s = 0;    // the counting model's answer
};

// Runs one wave on `m`. With `time_phases` each phase body is wrapped in a
// timer; phases run one at a time on the combining thread, so the wrappers
// never race on the sum.
WaveRun run_wave(const Workload& w, Machine& m, bool time_phases) {
  WaveRun run;
  WaveResults results;
  std::vector<server::JobSpec> specs = w.jobs(results);
  double* phase_s = &run.phase_s;
  if (time_phases)
    for (server::JobSpec& s : specs)
      for (server::JobPhase& p : s.phases)
        p.fn = [fn = std::move(p.fn), phase_s](server::JobContext& ctx) {
          const auto t0 = Clock::now();
          fn(ctx);
          *phase_s += seconds_since(t0);
        };
  const auto t0 = Clock::now();
  std::size_t unfinished = 0;
  {
    server::JobServer srv(m, w.options);
    for (const Tenant& t : w.tenants) srv.add_tenant(t.name, t.quota);
    std::vector<server::JobHandle> handles;
    for (server::JobSpec& s : specs)
      handles.push_back(srv.submit(std::move(s)));
    srv.drain();
    for (const server::JobHandle& h : handles) unfinished += !h.done();
    run.jobs = handles.size();
  }
  run.wave_s = seconds_since(t0);
  run.failed = std::min(run.jobs, unfinished + wrong_outputs(w, results));
  run.modeled_s = m.elapsed_seconds();
  return run;
}

bool same_streams(const trace::TraceSource& a, const trace::TraceSource& b) {
  if (a.threads() != b.threads()) return false;
  for (std::size_t t = 0; t < a.threads(); ++t) {
    const std::vector<trace::TraceOp>& x = a.stream(t);
    const std::vector<trace::TraceOp>& y = b.stream(t);
    if (!std::equal(x.begin(), x.end(), y.begin(), y.end(),
                    [](const trace::TraceOp& p, const trace::TraceOp& q) {
                      return p.kind == q.kind && p.addr == q.addr &&
                             p.bytes == q.bytes && p.ops == q.ops &&
                             p.src == q.src;
                    }))
      return false;
  }
  return true;
}

// What every iteration must reproduce exactly (the warm-up sets it).
struct Fingerprint {
  double modeled_s = 0;
  double simulated_s = 0;
  std::uint64_t des_events = 0;
  std::uint64_t far_accesses = 0;
  std::uint64_t near_accesses = 0;
  std::uint64_t trace_records = 0;
  std::uint64_t v3_bytes = 0;
  bool operator==(const Fingerprint&) const = default;
};

// Layer spans of one iteration, in seconds (filled when tracing).
struct Layers {
  double capture_ram = 0;
  double v3_encode = 0;
  double v3_decode = 0;
  double capture_mapped = 0;
  double replay_decode = 0;
  double des = 0;
};

// One iteration: kModelReps model answers, then one sim answer.
struct Iteration {
  std::vector<double> model_s;
  std::vector<double> server_s;  // per model answer (when tracing)
  std::vector<double> phase_s;   // per model answer (when tracing)
  double sim_s = 0;
  Layers layers;  // the sim answer's layers
  Fingerprint fp;
  std::size_t jobs = 0;
  std::size_t failed = 0;
  bool consistent = true;  // streams equal, modeled time repeated
};

// Runs `body`, adding its duration to *out when `on`.
template <class F>
void span(bool on, double* out, F&& body) {
  if (!on) {
    body();
    return;
  }
  const auto t0 = Clock::now();
  body();
  *out += seconds_since(t0);
}

Iteration iterate(const Workload& w, const std::string& log_dir, bool tracing) {
  Iteration it;
  const std::size_t threads = w.cfg.threads;
  auto tally = [&it](const WaveRun& r) {
    it.jobs += r.jobs;
    it.failed += r.failed;
  };

  // The model answers. Each is short next to the sim answer, so the repeats
  // give the fastest-of statistic more chances at a quiet moment of the host.
  for (std::size_t rep = 0; rep < kModelReps; ++rep) {
    const auto m0 = Clock::now();
    {
      Machine m(w.cfg);
      const WaveRun r = run_wave(w, m, tracing);
      tally(r);
      if (rep == 0) it.fp.modeled_s = r.modeled_s;
      else if (r.modeled_s != it.fp.modeled_s) it.consistent = false;
      it.phase_s.push_back(r.phase_s);
      it.server_s.push_back(r.wave_s - r.phase_s);
    }
    it.model_s.push_back(seconds_since(m0));
  }

  // The sim answer.
  const auto s0 = Clock::now();
  trace::TraceBuffer ram(threads);
  span(tracing, &it.layers.capture_ram, [&] {
    Machine m(w.cfg, &ram);
    tally(run_wave(w, m, false));
  });
  std::string v3;
  span(tracing, &it.layers.v3_encode, [&] {
    std::ostringstream os;
    trace::save_trace(ram, os);
    v3 = std::move(os).str();
  });
  std::optional<trace::TraceBuffer> loaded;
  span(tracing, &it.layers.v3_decode, [&] {
    std::istringstream is(v3);
    loaded.emplace(trace::load_trace(is));
  });
  span(tracing, &it.layers.capture_mapped, [&] {
    trace::MappedLog log(log_dir, threads);
    {
      Machine m(w.cfg, &log);
      tally(run_wave(w, m, false));
    }
    log.close();
  });
  ThreadPool pool(threads);
  std::optional<trace::ShardedReplay> mapped;
  span(tracing, &it.layers.replay_decode,
       [&] { mapped.emplace(log_dir, pool); });
  sim::SimReport rep;
  span(tracing, &it.layers.des, [&] {
    sim::System sys(sim::SystemConfig::scaled(w.cfg.rho, threads), ram);
    rep = sys.run();
  });
  it.sim_s = seconds_since(s0);

  it.consistent = it.consistent && same_streams(ram, *loaded) &&
                  same_streams(ram, *mapped);
  it.fp.simulated_s = rep.seconds;
  it.fp.des_events = rep.events;
  it.fp.far_accesses = rep.far.accesses();
  it.fp.near_accesses = rep.near.accesses();
  for (std::size_t t = 0; t < threads; ++t)
    it.fp.trace_records += ram.stream(t).size();
  it.fp.v3_bytes = v3.size();
  return it;
}

// ---- statistics and output ------------------------------------------------

double quantile(std::vector<double> xs, double q) {
  std::sort(xs.begin(), xs.end());
  const double pos = q * static_cast<double>(xs.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, xs.size() - 1);
  return xs[lo] + (pos - static_cast<double>(lo)) * (xs[hi] - xs[lo]);
}

double median(const std::vector<double>& xs) { return quantile(xs, 0.5); }

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

// Collects the samples of one metric and prints its minimum, median, the
// highest decile with ten samples beyond it, and the sample count.
//
// Per-iteration timings report their minimum: every iteration repeats the
// same deterministic work, so interference from other tenants of the host
// only ever adds time, and it comes in bursts seconds long that can cover
// half a run and move its median by a third. The fastest iteration is the
// least disturbed measurement of the code's own cost (Chen & Revels, "Robust
// benchmarking in noisy environments", 2016). Set-up repeats report their
// median.
class Ledger {
 public:
  enum class Stat { kMin, kMedian };

  void add(const std::string& name, const std::string& unit,
           const std::vector<double>& samples, Stat stat = Stat::kMin) {
    const double lo = quantile(samples, 0);
    const double med = median(samples);
    std::size_t decile = 9;
    while (decile > 5 && samples.size() * (10 - decile) < 100) --decile;
    std::cout << "  " << std::left << std::setw(20) << name << std::right
              << std::setprecision(6) << " min " << std::setw(11) << lo
              << " median " << std::setw(11) << med << " p" << decile * 10
              << " " << std::setw(11)
              << quantile(samples, static_cast<double>(decile) / 10.0) << " "
              << unit << "  (n=" << samples.size() << ")\n";
    metrics_.push_back({name, stat == Stat::kMin ? lo : med, unit});
  }
  void add_value(const std::string& name, const std::string& unit,
                 double value) {
    std::cout << "  " << std::left << std::setw(20) << name << std::right
              << " " << std::setprecision(6) << value << " " << unit << "\n";
    metrics_.push_back({name, value, unit});
  }

  void print_json(bool correct, std::size_t attempted,
                  std::size_t failed) const {
    std::ostringstream os;
    os << std::setprecision(17) << "{\"correct\": "
       << (correct ? "true" : "false") << ", \"attempted\": " << attempted
       << ", \"failed\": " << failed << ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics_.size(); ++i)
      os << (i ? ", " : "") << "\"" << metrics_[i].name
         << "\": {\"value\": " << metrics_[i].value << ", \"unit\": \""
         << metrics_[i].unit << "\"}";
    os << "}}";
    std::cout << os.str() << std::endl;
  }

 private:
  std::vector<Metric> metrics_;
};

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string workdir;
};

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + flag);
    const std::string v = argv[++i];
    if (flag == "--workload") a.workload = v;
    else if (flag == "--seed") a.seed = std::stoull(v);
    else if (flag == "--seconds") a.seconds = std::stod(v);
    else if (flag == "--trace") a.trace = std::stoi(v) != 0;
    else if (flag == "--workdir") a.workdir = v;
    else throw std::invalid_argument("unknown flag " + flag);
  }
  if (a.workdir.empty()) throw std::invalid_argument("--workdir is required");
  if (!(a.seconds > 0)) throw std::invalid_argument("--seconds must be > 0");
  return a;
}

int run(const Args& a) {
  Workload (*make)(std::uint64_t) = nullptr;
  if (a.workload == "sort") make = sort_workload;
  else if (a.workload == "kmeans") make = kmeans_workload;
  else if (a.workload == "server") make = server_workload;
  else throw std::invalid_argument("unknown workload " + a.workload);

  std::filesystem::create_directories(a.workdir);
  const std::string log_dir = a.workdir + "/mapped";

  // Set-up repeats are spread evenly over the run, so their median samples
  // the host the way the iterations do; each replaces the workload, and the
  // fingerprint check below proves every set-up built the same one.
  std::vector<double> setup_s;
  std::optional<Workload> w;
  auto set_up = [&] {
    const auto t0 = Clock::now();
    w.emplace(make(a.seed));
    setup_s.push_back(seconds_since(t0));
  };
  set_up();

  // The warm-up fills caches and the allocator and fixes the fingerprint.
  const Iteration warm = iterate(*w, log_dir, a.trace);
  bool consistent = warm.consistent && warm.failed == 0;
  std::vector<Iteration> its;
  std::size_t attempted = 0, failed = 0;
  const auto start = Clock::now();
  while (its.size() < kMinIterations || seconds_since(start) < a.seconds ||
         setup_s.size() < kSetupReps) {
    if (seconds_since(start) >=
        a.seconds * static_cast<double>(setup_s.size()) / kSetupReps)
      set_up();
    its.push_back(iterate(*w, log_dir, a.trace));
    const Iteration& it = its.back();
    attempted += it.jobs;
    failed += it.failed;
    consistent = consistent && it.consistent && it.fp == warm.fp;
  }
  std::filesystem::remove_all(a.workdir);

  auto series = [&its](auto field) {
    std::vector<double> xs;
    for (const Iteration& it : its) xs.push_back(field(it));
    return xs;
  };
  // Every model answer of every iteration, in milliseconds.
  auto model_series = [&its](std::vector<double> Iteration::*field) {
    std::vector<double> xs;
    for (const Iteration& it : its)
      for (double s : it.*field) xs.push_back(s * 1e3);
    return xs;
  };
  std::cout << "perf_ledger workload=" << a.workload << " seed=" << a.seed
            << " iterations=" << its.size() << " jobs/iteration="
            << warm.jobs << " trace_records=" << warm.fp.trace_records
            << " des_events=" << warm.fp.des_events << "\n";
  Ledger out;
  if (!a.trace) {
    out.add("model_ms", "ms", model_series(&Iteration::model_s));
    out.add("sim_ms", "ms",
            series([](const Iteration& it) { return it.sim_s * 1e3; }));
    out.add("setup_s", "s", setup_s, Ledger::Stat::kMedian);
  } else {
    auto ms = [&](const char* name, double Layers::*field) {
      out.add(name, "ms", series([field](const Iteration& it) {
                return it.layers.*field * 1e3;
              }));
    };
    out.add("server_ms", "ms", model_series(&Iteration::server_s));
    out.add("phase_ms", "ms", model_series(&Iteration::phase_s));
    ms("capture_ram_ms", &Layers::capture_ram);
    ms("v3_encode_ms", &Layers::v3_encode);
    ms("v3_decode_ms", &Layers::v3_decode);
    ms("capture_mapped_ms", &Layers::capture_mapped);
    ms("replay_decode_ms", &Layers::replay_decode);
    ms("des_ms", &Layers::des);
    out.add("des_ns_per_event", "ns", series([](const Iteration& it) {
              return it.layers.des * 1e9 /
                     static_cast<double>(it.fp.des_events);
            }));
    out.add_value("trace_records", "count",
                  static_cast<double>(warm.fp.trace_records));
    out.add_value("v3_bytes", "bytes", static_cast<double>(warm.fp.v3_bytes));
    out.add_value("des_events", "count",
                  static_cast<double>(warm.fp.des_events));
  }
  if (!consistent)
    std::cout << "CHECK FAILED: trace streams or fingerprint diverged\n";
  out.print_json(consistent && failed == 0, attempted, failed);
  return 0;
}

}  // namespace
}  // namespace tlm::ledger

int main(int argc, char** argv) {
  try {
    return tlm::ledger::run(tlm::ledger::parse(argc, argv));
  } catch (const std::exception& e) {
    std::cerr << "perf_ledger: " << e.what() << "\n";
    return 2;
  }
}
