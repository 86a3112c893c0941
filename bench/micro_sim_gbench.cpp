// Simulator-performance microbenchmarks (google-benchmark): event-queue
// throughput, cache lookup rate, and end-to-end simulated-lines-per-second
// of the full node — the numbers that determine how large a design-point
// study this SST-substitute can sustain.
#include <benchmark/benchmark.h>

#include "gbench_main.hpp"
#include "sim/cache.hpp"
#include "sim/simulator.hpp"
#include "sim/system.hpp"
#include "trace/capture.hpp"

namespace tlm::sim {
namespace {

// The DES's own event shape: a MemReq plus a pointer, the size of the
// largest handler the components schedule (a Crossbar delivery). Each hop
// reschedules a copy of itself 1-16 ps later, so kChains events stay
// pending and the queue sees ties and reorderings, as in a replay.
constexpr std::uint64_t kChains = 64;
constexpr std::uint64_t kHops = 2000;  // per chain

struct Hop {
  Simulator* sim;
  MemReq req;
  void operator()() {
    if (++req.tag == kHops) return;
    req.addr = req.addr * 6364136223846793005ULL + 1442695040888963407ULL;
    sim->schedule(1 + (req.addr >> 60), *this);
  }
};
static_assert(sizeof(Hop) == Handler::kCapacity);

void BM_EventQueueThroughput(benchmark::State& state) {
  for (auto _ : state) {
    Simulator sim;
    for (std::uint64_t c = 0; c < kChains; ++c) {
      Hop h{&sim, MemReq{}};
      h.req.addr = c;
      sim.schedule(c, h);
    }
    benchmark::DoNotOptimize(sim.run());
  }
  state.SetItemsProcessed(state.iterations() * kChains * kHops);
}
BENCHMARK(BM_EventQueueThroughput);

class NullMemory final : public MemPort {
 public:
  explicit NullMemory(Simulator& sim) : sim_(sim) {}
  void request(const MemReq& req) override {
    if (!req.posted && req.origin) {
      const MemReq resp = req;
      sim_.schedule(50 * kNanosecond,
                    [resp] { resp.origin->on_response(resp); });
    }
  }

 private:
  Simulator& sim_;
};

class NullRequester final : public Requester {
 public:
  void on_response(const MemReq&) override {}
};

void BM_CacheStreamingLookups(benchmark::State& state) {
  for (auto _ : state) {
    Simulator sim;
    NullMemory mem(sim);
    CacheConfig cc;
    cc.size_bytes = 512 * 1024;
    cc.ways = 16;
    Cache cache(sim, cc, &mem);
    NullRequester who;
    for (std::uint64_t i = 0; i < 4096; ++i) {
      MemReq r;
      r.addr = i * 64;
      r.bytes = 64;
      r.origin = &who;
      cache.request(r);
    }
    benchmark::DoNotOptimize(sim.run());
  }
  state.SetItemsProcessed(state.iterations() * 4096);
}
BENCHMARK(BM_CacheStreamingLookups);

void BM_FullNodeLinesPerSecond(benchmark::State& state) {
  // 8 cores streaming 256 KiB each through the whole Fig. 5/7 pipeline.
  trace::TraceBuffer tr(8);
  for (std::size_t t = 0; t < 8; ++t) {
    tr.on_read(t, trace::kFarBase + t * (1 << 18), 1 << 18);
    tr.on_barrier(t, 0);
    tr.on_write(t, trace::kNearBase + t * (1 << 18), 1 << 18);
  }
  const SystemConfig cfg = SystemConfig::scaled(4.0, 8);
  for (auto _ : state) {
    System sys(cfg, tr);
    benchmark::DoNotOptimize(sys.run().events);
  }
  state.SetItemsProcessed(state.iterations() * 2 * 8 * ((1 << 18) / 64));
}
BENCHMARK(BM_FullNodeLinesPerSecond);

}  // namespace
}  // namespace tlm::sim

TLM_GBENCH_MAIN();
