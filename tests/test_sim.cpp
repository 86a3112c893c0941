// Unit tests for the discrete-event simulator: event ordering, cache
// behaviour, memory timing, NoC routing/contention, trace cores, barriers,
// and a small end-to-end system replay.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <memory>
#include <random>
#include <set>
#include <stdexcept>
#include <unordered_map>
#include <utility>
#include <vector>

#include "sim/cache.hpp"
#include "sim/core.hpp"
#include "sim/flat_storage.hpp"
#include "sim/memory.hpp"
#include "sim/noc.hpp"
#include "sim/simulator.hpp"
#include "sim/system.hpp"
#include "trace/capture.hpp"

namespace tlm::sim {
namespace {

TEST(Simulator, ExecutesInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule(30, [&] { order.push_back(3); });
  sim.schedule(10, [&] { order.push_back(1); });
  sim.schedule(20, [&] { order.push_back(2); });
  EXPECT_EQ(sim.run(), 3u);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.now(), 30u);
}

TEST(Simulator, TiesBreakByInsertion) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule(5, [&] { order.push_back(1); });
  sim.schedule(5, [&] { order.push_back(2); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(Simulator, NestedSchedulingAdvancesTime) {
  Simulator sim;
  SimTime inner_time = 0;
  sim.schedule(10, [&] {
    sim.schedule(15, [&] { inner_time = sim.now(); });
  });
  sim.run();
  EXPECT_EQ(inner_time, 25u);
}

TEST(Simulator, MaxEventsGuardStops) {
  Simulator sim;
  // Self-perpetuating event chain.
  std::function<void()> tick = [&] { sim.schedule(1, tick); };
  sim.schedule(0, tick);
  EXPECT_EQ(sim.run(100), 100u);
  EXPECT_FALSE(sim.idle());
}

// Differential check against a reference (when, seq) ordering: every
// scheduled event is mirrored into an ordered set, and each executed event
// must be the set's minimum. Handlers schedule children from inside the run
// (a third at now(), the rest within a few ticks, so ties are common) and
// the run is cut into random max_events slices. Most events go into
// sixteen lanes at times that never decrease per lane, and a lane event
// often schedules into its own lane, sometimes right after emptying it.
TEST(Simulator, MatchesReferenceOrderUnderRandomNestedScheduling) {
  static constexpr std::size_t kLanes = 16;
  static constexpr std::size_t kPlain = kLanes;
  struct State {
    Simulator sim;
    std::set<std::pair<SimTime, std::uint64_t>> pending;  // the reference
    std::mt19937_64 rng{2015};
    std::vector<Lane> lanes;
    SimTime lane_last[kLanes] = {};
    std::size_t lane_pending[kLanes] = {};
    std::uint64_t next_seq = 0;
    std::uint64_t executed = 0;
    std::uint64_t mismatches = 0;
    std::uint64_t lane_events = 0;
    std::uint64_t refills = 0;  // a handler refilled its own emptied lane

    void add(SimTime delay, bool absolute, std::size_t lane) {
      const std::uint64_t seq = next_seq++;
      SimTime when = sim.now() + delay;
      if (lane != kPlain) {
        when = std::max(when, lane_last[lane]);
        lane_last[lane] = when;
        ++lane_pending[lane];
        ++lane_events;
      }
      pending.emplace(when, seq);
      auto fire = [st = this, when, seq, lane] { st->fired(when, seq, lane); };
      if (lane == kPlain && absolute)
        sim.schedule_at(when, fire);
      else if (lane == kPlain)
        sim.schedule(delay, fire);
      else if (absolute)
        sim.schedule_at(lanes[lane], when, fire);
      else
        sim.schedule(lanes[lane], when - sim.now(), fire);
    }
    std::size_t pick_lane(std::size_t own) {
      if (own != kPlain && rng() % 2 == 0) return own;
      return rng() % 2 == 0 ? kPlain : rng() % kLanes;
    }
    void fired(SimTime when, std::uint64_t seq, std::size_t lane) {
      if (pending.empty() || *pending.begin() != std::make_pair(when, seq) ||
          sim.now() != when)
        ++mismatches;
      pending.erase({when, seq});
      ++executed;
      if (lane != kPlain) --lane_pending[lane];
      // In turns the population grows toward 3000 pending events (a deep
      // heap) and shrinks toward 40 (lanes that empty and refill).
      const std::size_t target = next_seq / 2500 % 2 == 0 ? 3000 : 40;
      std::uint64_t kids = pending.size() < target ? rng() % 4 : rng() % 2;
      for (; kids > 0 && next_seq < 20000; --kids) {
        const SimTime delay = rng() % 3 == 0 ? 0 : rng() % 6;
        const std::size_t to = pick_lane(lane);
        if (to == lane && lane != kPlain && lane_pending[lane] == 0)
          ++refills;
        add(delay, rng() % 2 == 0, to);
      }
    }
  };
  State st;
  for (std::size_t l = 0; l < kLanes; ++l)
    st.lanes.push_back(st.sim.add_lane());
  for (int i = 0; i < 500; ++i)
    st.add(st.rng() % 50, i % 2 == 0, st.pick_lane(kPlain));
  std::uint64_t ran = 0;
  while (!st.sim.idle()) {
    ran += st.sim.run(1 + st.rng() % 300);
    EXPECT_EQ(st.sim.pending(), st.pending.size());
  }
  EXPECT_EQ(st.mismatches, 0u);
  EXPECT_TRUE(st.pending.empty());
  EXPECT_EQ(ran, st.next_seq);
  EXPECT_EQ(st.executed, st.next_seq);
  EXPECT_GT(st.next_seq, 5000u);  // the nesting actually happened
  EXPECT_GT(st.lane_events, st.next_seq / 4);
  EXPECT_GT(st.refills, 100u);
}

// Scheduling into a lane before its newest event is an invariant failure,
// even where the time is still ahead of now().
TEST(Simulator, LaneScheduledBackwardsThrows) {
  Simulator sim;
  const Lane lane = sim.add_lane();
  sim.schedule_at(lane, 30, [] {});
  EXPECT_THROW(sim.schedule_at(lane, 20, [] {}), std::logic_error);
  EXPECT_THROW(sim.schedule(lane, 29, [] {}), std::logic_error);
  sim.schedule(lane, 30, [] {});  // a tie is not backwards
  sim.schedule(10, [&] {
    EXPECT_THROW(sim.schedule(lane, 15, [] {}), std::logic_error);
  });
  EXPECT_EQ(sim.pending(), 3u);
  EXPECT_EQ(sim.run(), 3u);
  EXPECT_EQ(sim.now(), 30u);
}

// pending() counts the events behind each lane's head, not only the heap.
TEST(Simulator, PendingCountsLaneTails) {
  Simulator sim;
  const Lane a = sim.add_lane();
  const Lane b = sim.add_lane();
  int ran = 0;
  for (SimTime t : {1, 2, 2, 5}) sim.schedule_at(a, t, [&] { ++ran; });
  for (SimTime t : {3, 4}) sim.schedule_at(b, t, [&] { ++ran; });
  sim.schedule(2, [&] { ++ran; });
  EXPECT_EQ(sim.pending(), 7u);
  EXPECT_EQ(sim.run(3), 3u);
  EXPECT_EQ(sim.pending(), 4u);
  EXPECT_FALSE(sim.idle());
  EXPECT_EQ(sim.run(), 4u);
  EXPECT_EQ(sim.pending(), 0u);
  EXPECT_TRUE(sim.idle());
  EXPECT_EQ(ran, 7);
}

// pending() and idle() are exact from inside a handler, while the run loop
// holds its lane's next event out of the heap (every event here but the
// first runs on the fast path). A handler that throws there leaves the held
// event to the next run().
TEST(Simulator, PendingIsExactInsideLaneHandlers) {
  Simulator sim;
  const Lane a = sim.add_lane();
  constexpr std::uint64_t kEvents = 6;
  std::vector<std::uint64_t> pending;
  std::vector<bool> idle;
  for (SimTime t = 1; t <= static_cast<SimTime>(kEvents); ++t)
    sim.schedule_at(a, t, [&] {
      pending.push_back(sim.pending());
      idle.push_back(sim.idle());
      if (pending.size() == 2) throw std::runtime_error("handler failed");
    });
  EXPECT_THROW(sim.run(), std::runtime_error);
  EXPECT_EQ(sim.pending(), kEvents - 2);
  EXPECT_FALSE(sim.idle());
  EXPECT_EQ(sim.run(), kEvents - 2);
  EXPECT_TRUE(sim.idle());
  ASSERT_EQ(pending.size(), kEvents);
  for (std::uint64_t i = 0; i < kEvents; ++i) {
    EXPECT_EQ(pending[i], kEvents - 1 - i) << "event " << i;
    EXPECT_EQ(idle[i], i == kEvents - 1) << "event " << i;
  }
}

// Handlers that never run — cut off by run(max_events), or still pending
// when the simulator (or a barrier holding them) goes away — are destroyed
// exactly once. The pending count crosses a pool chunk boundary.
TEST(Simulator, UnrunHandlersAreDestroyedExactlyOnce) {
  auto token = std::make_shared<int>(0);
  {
    Simulator sim;
    for (int i = 0; i < 300; ++i) sim.schedule(i, [token] { ++*token; });
    EXPECT_EQ(token.use_count(), 301);
    EXPECT_EQ(sim.run(100), 100u);
    EXPECT_EQ(*token, 100);
    EXPECT_EQ(token.use_count(), 201);  // run handlers died after running
    EXPECT_EQ(sim.pending(), 200u);
  }
  EXPECT_EQ(token.use_count(), 1);  // pending ones died with the simulator

  {
    Simulator sim;
    BarrierController barrier(2);
    barrier.arrive(sim, 0, [token] { ++*token; });  // never released
    Handler moved = [token] { ++*token; };
    Handler target = std::move(moved);
    EXPECT_FALSE(moved);
    EXPECT_EQ(token.use_count(), 3);
    sim.schedule(5, std::move(target));
    EXPECT_EQ(token.use_count(), 3);
    EXPECT_EQ(sim.run(), 1u);
    EXPECT_EQ(token.use_count(), 2);
  }
  EXPECT_EQ(token.use_count(), 1);
  EXPECT_EQ(*token, 101);
}

// FlatMap against std::unordered_map: random inserts and erases over a
// small set of line-aligned keys, so probe runs collide, wrap around the
// table and get shifted back by erases, across several table growths.
TEST(FlatMap, MatchesUnorderedMapUnderRandomInsertErase) {
  FlatMap<std::uint64_t> flat;
  std::unordered_map<std::uint64_t, std::uint64_t> ref;
  std::mt19937_64 rng(64);
  for (int step = 0; step < 200000; ++step) {
    const std::uint64_t key = (rng() % (step < 100000 ? 300 : 40)) * 64;
    if (rng() % 3 != 0) {
      auto [value, fresh] = flat.try_emplace(key);
      ASSERT_EQ(fresh, ref.find(key) == ref.end()) << step;
      *value = step;
      ref[key] = step;
    } else if (ref.erase(key) > 0) {
      flat.erase(key);
    }
    if (step % 997 == 0)
      for (std::uint64_t k = 0; k < 300 * 64; k += 64) {
        const std::uint64_t* got = flat.find(k);
        const auto it = ref.find(k);
        ASSERT_EQ(got != nullptr, it != ref.end()) << step << " " << k;
        if (got) {
          ASSERT_EQ(*got, it->second) << step << " " << k;
        }
      }
  }
}

// --- helpers ---------------------------------------------------------------

// Downstream sink that records requests and their arrival times and answers
// reads a delay after they arrive.
class RecordingMemory final : public MemController {
 public:
  RecordingMemory(Simulator& sim, SimTime delay) : sim_(sim), delay_(delay) {}
  void request(const MemReq& req) override { arrive(req, sim_.now()); }
  void arrive(const MemReq& req, SimTime when) override {
    log.push_back(req);
    last_arrival = when;
    if (!req.posted && req.origin) {
      const MemReq resp = req;
      sim_.schedule_at(when + delay_,
                       [resp] { resp.origin->on_response(resp); });
    }
  }
  std::vector<MemReq> log;
  SimTime last_arrival = 0;

 private:
  Simulator& sim_;
  SimTime delay_;
};

class CountingRequester final : public Requester {
 public:
  void on_response(const MemReq& req) override {
    ++responses;
    last = req;
  }
  int responses = 0;
  MemReq last;
};

CacheConfig tiny_cache() {
  CacheConfig c;
  c.size_bytes = 1024;  // 8 sets x 2 ways x 64B
  c.ways = 2;
  c.latency = 1 * kNanosecond;
  return c;
}

MemReq read_req(std::uint64_t addr, Requester* who) {
  MemReq r;
  r.addr = addr;
  r.bytes = 64;
  r.origin = who;
  return r;
}

MemReq write_req(std::uint64_t addr, Requester* who) {
  MemReq r = read_req(addr, who);
  r.is_write = true;
  return r;
}

// --- cache -----------------------------------------------------------------

TEST(Cache, MissThenHit) {
  Simulator sim;
  RecordingMemory mem(sim, 10 * kNanosecond);
  Cache cache(sim, tiny_cache(), &mem);
  CountingRequester who;

  cache.request(read_req(0x1000, &who));
  sim.run();
  EXPECT_EQ(who.responses, 1);
  EXPECT_EQ(mem.log.size(), 1u);  // one fill

  cache.request(read_req(0x1000, &who));
  sim.run();
  EXPECT_EQ(who.responses, 2);
  EXPECT_EQ(mem.log.size(), 1u);  // served from cache
  EXPECT_EQ(cache.stats().read_hits, 1u);
  EXPECT_EQ(cache.stats().fills, 1u);
}

TEST(Cache, RejectsNonPowerOfTwoGeometry) {
  Simulator sim;
  RecordingMemory mem(sim, 10 * kNanosecond);
  CacheConfig sets12 = tiny_cache();
  sets12.size_bytes = 1536;  // 12 sets x 2 ways x 64B
  EXPECT_THROW(Cache(sim, sets12, &mem), std::invalid_argument);
  CacheConfig line48 = tiny_cache();
  line48.line_bytes = 48;
  line48.size_bytes = 8 * 2 * 48;
  EXPECT_THROW(Cache(sim, line48, &mem), std::invalid_argument);
}

TEST(Cache, MshrMergesConcurrentMisses) {
  Simulator sim;
  RecordingMemory mem(sim, 50 * kNanosecond);
  Cache cache(sim, tiny_cache(), &mem);
  CountingRequester a, b;
  cache.request(read_req(0x2000, &a));
  cache.request(read_req(0x2000, &b));
  sim.run();
  EXPECT_EQ(a.responses, 1);
  EXPECT_EQ(b.responses, 1);
  EXPECT_EQ(mem.log.size(), 1u);  // merged into one fill
}

TEST(Cache, FullLineStoreInstallsWithoutFill) {
  Simulator sim;
  RecordingMemory mem(sim, 10 * kNanosecond);
  Cache cache(sim, tiny_cache(), &mem);
  CountingRequester who;
  cache.request(write_req(0x3000, &who));
  sim.run();
  EXPECT_EQ(who.responses, 1);    // store acked by the cache
  EXPECT_TRUE(mem.log.empty());   // no fill read, no writeback yet

  // Reading the line back hits.
  cache.request(read_req(0x3000, &who));
  sim.run();
  EXPECT_EQ(cache.stats().read_hits, 1u);
}

TEST(Cache, DirtyEvictionWritesBack) {
  Simulator sim;
  RecordingMemory mem(sim, 1 * kNanosecond);
  Cache cache(sim, tiny_cache(), &mem);  // 8 sets, 2 ways
  CountingRequester who;
  // Three lines mapping to the same set (stride = sets * line = 512B).
  cache.request(write_req(0x0000, &who));
  cache.request(write_req(0x0200, &who));
  cache.request(write_req(0x0400, &who));  // evicts dirty 0x0000
  sim.run();
  ASSERT_EQ(mem.log.size(), 1u);
  EXPECT_TRUE(mem.log[0].is_write);
  EXPECT_TRUE(mem.log[0].posted);
  EXPECT_EQ(mem.log[0].addr, 0x0000u);
  EXPECT_EQ(cache.stats().writebacks, 1u);
}

TEST(Cache, LruPrefersColdestWay) {
  Simulator sim;
  RecordingMemory mem(sim, 1 * kNanosecond);
  Cache cache(sim, tiny_cache(), &mem);
  CountingRequester who;
  // Drain the pipeline between accesses so recency is well-defined.
  auto access = [&](std::uint64_t addr) {
    cache.request(read_req(addr, &who));
    sim.run();
  };
  access(0x0000);  // way A
  access(0x0200);  // way B
  access(0x0000);  // touch A again
  access(0x0400);  // should evict B
  access(0x0000);  // A must still hit
  EXPECT_EQ(cache.stats().read_hits, 2u);
  EXPECT_EQ(cache.stats().fills, 3u);
}

// --- memories ----------------------------------------------------------------

TEST(FarMemory, RowBufferHitIsFasterThanMiss) {
  Simulator sim;
  FarMemConfig cfg;
  cfg.channels = 1;
  cfg.banks = 1;
  FarMemory mem(sim, cfg);
  CountingRequester who;

  mem.request(read_req(0, &who));
  sim.run();
  const double first = to_seconds(sim.now());

  Simulator sim2;
  FarMemory mem2(sim2, cfg);
  mem2.request(read_req(0, &who));
  sim2.run();
  const SimTime after_first = sim2.now();
  mem2.request(read_req(64, &who));  // same row: hit
  sim2.run();
  const double hit_delta = to_seconds(sim2.now() - after_first);
  EXPECT_LT(hit_delta, first);  // row hit cheaper than the cold miss
  EXPECT_EQ(mem2.stats().row_hits, 1u);
  EXPECT_EQ(mem2.stats().row_misses, 1u);
}

TEST(FarMemory, ChannelsServeInParallel) {
  FarMemConfig cfg;
  cfg.channels = 1;
  CountingRequester who;

  auto run_streams = [&](std::uint32_t channels, int lines) {
    Simulator sim;
    FarMemConfig c = cfg;
    c.channels = channels;
    FarMemory mem(sim, c);
    for (int i = 0; i < lines; ++i)
      mem.request(read_req(static_cast<std::uint64_t>(i) * 64, &who));
    sim.run();
    return to_seconds(sim.now());
  };
  const double one = run_streams(1, 64);
  const double four = run_streams(4, 64);
  EXPECT_LT(four, one * 0.5);  // 4 channels markedly faster than 1
}

TEST(NearMemory, AggregateBandwidthBoundsStreamTime) {
  Simulator sim;
  NearMemConfig cfg;
  cfg.channels = 8;
  cfg.total_bw = 120e9;
  NearMemory mem(sim, cfg);
  CountingRequester who;
  const int lines = 4096;
  for (int i = 0; i < lines; ++i)
    mem.request(read_req(static_cast<std::uint64_t>(i) * 64, &who));
  sim.run();
  const double bytes = lines * 64.0;
  const double floor_s = bytes / cfg.total_bw;
  const double t = to_seconds(sim.now());
  EXPECT_GE(t, floor_s * 0.99);
  EXPECT_LE(t, floor_s * 1.5 + 100e-9);  // near the bandwidth bound
  EXPECT_EQ(mem.stats().reads, static_cast<std::uint64_t>(lines));
}

// --- NoC ---------------------------------------------------------------------

TEST(Crossbar, RoutesByAddressAndWrapsResponses) {
  Simulator sim;
  Crossbar xbar(sim, NocConfig{});
  RecordingMemory far_mem(sim, 5 * kNanosecond);
  RecordingMemory near_mem(sim, 5 * kNanosecond);
  const std::size_t src = xbar.add_endpoint("l2", 72e9);
  const std::size_t fep = xbar.add_endpoint("far", 144e9);
  const std::size_t nep = xbar.add_endpoint("near", 144e9);
  xbar.add_route(trace::kFarBase, trace::kNearBase, fep, &far_mem);
  xbar.add_route(trace::kNearBase, ~0ULL, nep, &near_mem);

  CountingRequester who;
  xbar.port(src)->request(read_req(trace::kFarBase + 0x40, &who));
  xbar.port(src)->request(read_req(trace::kNearBase + 0x40, &who));
  sim.run();
  EXPECT_EQ(far_mem.log.size(), 1u);
  EXPECT_EQ(near_mem.log.size(), 1u);
  EXPECT_EQ(who.responses, 2);
  // The response is the original request, untranslated.
  EXPECT_EQ(who.last.origin, &who);
}

TEST(Crossbar, PortBandwidthSerializesTraffic) {
  CountingRequester who;
  auto stream_time = [&](double bw) {
    Simulator sim;
    Crossbar xbar(sim, NocConfig{});
    RecordingMemory mem(sim, 0);
    const std::size_t src = xbar.add_endpoint("l2", bw);
    const std::size_t dst = xbar.add_endpoint("mem", bw);
    xbar.add_route(0, ~0ULL, dst, &mem);
    for (int i = 0; i < 256; ++i) {
      MemReq w = write_req(static_cast<std::uint64_t>(i) * 64, &who);
      w.posted = true;
      w.origin = nullptr;
      xbar.port(src)->request(w);
    }
    sim.run();
    return to_seconds(mem.last_arrival);
  };
  const double fast = stream_time(100e9);
  const double slow = stream_time(10e9);
  EXPECT_GT(slow, fast * 5.0);
}

TEST(Crossbar, UnroutableAddressThrows) {
  Simulator sim;
  Crossbar xbar(sim, NocConfig{});
  const std::size_t src = xbar.add_endpoint("l2", 72e9);
  CountingRequester who;
  EXPECT_THROW(xbar.port(src)->request(read_req(0xdead, &who)),
               std::invalid_argument);
}

TEST(Crossbar, NonPostedWriteThrows) {
  // Caches absorb demand stores, so every write reaching the crossbar is a
  // posted writeback or DMA write; a demand store there is miswired.
  Simulator sim;
  Crossbar xbar(sim, NocConfig{});
  RecordingMemory mem(sim, 0);
  const std::size_t src = xbar.add_endpoint("l2", 72e9);
  const std::size_t dst = xbar.add_endpoint("mem", 72e9);
  xbar.add_route(0, ~0ULL, dst, &mem);
  CountingRequester who;
  EXPECT_THROW(xbar.port(src)->request(write_req(0x40, &who)),
               std::invalid_argument);
  MemReq posted = write_req(0x80, &who);
  posted.posted = true;
  posted.origin = nullptr;
  xbar.port(src)->request(posted);
  sim.run();
  EXPECT_EQ(mem.log.size(), 1u);
  EXPECT_EQ(who.responses, 0);
}

// --- cores & barriers ----------------------------------------------------------

TEST(BarrierController, ReleasesWhenAllArrive) {
  Simulator sim;
  BarrierController barrier(3);
  int released = 0;
  barrier.arrive(sim, 0, [&] { ++released; });
  barrier.arrive(sim, 0, [&] { ++released; });
  sim.run();
  EXPECT_EQ(released, 0);
  barrier.arrive(sim, 0, [&] { ++released; });
  sim.run();
  EXPECT_EQ(released, 3);
  EXPECT_EQ(barrier.epoch(), 1u);
}

TEST(BarrierController, StaleEpochThrows) {
  Simulator sim;
  BarrierController barrier(1);
  barrier.arrive(sim, 0, [] {});
  sim.run();
  EXPECT_THROW(barrier.arrive(sim, 0, [] {}), std::invalid_argument);
}

TEST(TraceCore, ReplaysComputeAndMemoryOps) {
  Simulator sim;
  RecordingMemory mem(sim, 10 * kNanosecond);
  Cache l1(sim, tiny_cache(), &mem);
  BarrierController barrier(1);

  trace::TraceBuffer tb(1);
  tb.on_compute(0, 1700.0);       // 1 us at 1.7GHz
  tb.on_read(0, 0x10000, 256);    // 4 lines
  tb.on_barrier(0, 0);
  tb.on_write(0, 0x20000, 128);   // 2 lines

  CoreConfig cc;
  TraceCore core(sim, cc, 0, tb.cursor(0), &l1, &barrier);
  core.start();
  sim.run();

  EXPECT_TRUE(core.finished());
  EXPECT_EQ(core.stats().loads, 4u);
  EXPECT_EQ(core.stats().stores, 2u);
  EXPECT_EQ(core.stats().barriers, 1u);
  EXPECT_DOUBLE_EQ(core.stats().compute_ops, 1700.0);
  EXPECT_GE(to_seconds(sim.now()), 1e-6);  // at least the compute segment
}

TEST(TraceCore, OutstandingLimitThrottlesIssue) {
  // With max_outstanding=1 and a slow memory, 8 lines take ~8 memory trips.
  trace::TraceBuffer tb(1);
  tb.on_read(0, 0x10000, 512);
  auto run_with = [&](std::uint32_t outstanding) {
    Simulator sim;
    RecordingMemory mem(sim, 100 * kNanosecond);
    Cache l1(sim, tiny_cache(), &mem);
    BarrierController barrier(1);
    CoreConfig cc;
    cc.max_outstanding = outstanding;
    TraceCore core(sim, cc, 0, tb.cursor(0), &l1, &barrier);
    core.start();
    sim.run();
    return to_seconds(sim.now());
  };
  EXPECT_GT(run_with(1), run_with(8) * 3.0);
}

// --- end-to-end system ---------------------------------------------------------

TEST(System, ReplaysHandWrittenTraceOnFullTopology) {
  trace::TraceBuffer trace(8);
  constexpr std::uint64_t kBytes = 512 * 1024;  // >> L2, forces writebacks
  for (std::size_t t = 0; t < 8; ++t) {
    // Every core streams 512 KiB from far, computes, barriers, writes
    // 512 KiB to near.
    trace.on_read(t, trace::kFarBase + t * kBytes, kBytes);
    trace.on_compute(t, 10000.0);
    trace.on_barrier(t, 0);
    trace.on_write(t, trace::kNearBase + t * kBytes, kBytes);
  }
  sim::SystemConfig cfg = sim::SystemConfig::scaled(4.0, 8);
  System sys(cfg, trace);
  const SimReport r = sys.run();

  EXPECT_GT(r.seconds, 0.0);
  EXPECT_EQ(r.core_loads, 8u * kBytes / 64);
  EXPECT_EQ(r.core_stores, 8u * kBytes / 64);
  EXPECT_EQ(r.barrier_epochs, 1u);
  // Streaming reads miss everywhere: every line reaches the far memory.
  EXPECT_EQ(r.far.reads, 8u * kBytes / 64);
  // Near writes land as writebacks of dirty lines; they drain by the end.
  EXPECT_GT(r.near.writes, 0u);
  const auto inv = sys.inventory();
  EXPECT_EQ(inv.cores, 8u);
  EXPECT_EQ(inv.l1s, 8u);
  EXPECT_EQ(inv.l2s, 2u);
}

TEST(System, TraceThreadMismatchThrows) {
  trace::TraceBuffer trace(3);
  sim::SystemConfig cfg = sim::SystemConfig::scaled(2.0, 8);
  EXPECT_THROW(System(cfg, trace), std::invalid_argument);
}

TEST(System, HigherScratchpadBandwidthShortensNearBoundRuns) {
  auto near_stream_seconds = [&](double rho) {
    trace::TraceBuffer trace(8);
    for (std::size_t t = 0; t < 8; ++t) {
      trace.on_read(t, trace::kNearBase + t * (1 << 20), 1 << 20);
      trace.on_barrier(t, 0);
    }
    sim::SystemConfig cfg = sim::SystemConfig::scaled(rho, 8);
    // Enough memory-level parallelism to stay bandwidth-bound rather than
    // latency-bound (the scaled node has very low per-core bandwidth).
    cfg.core.max_outstanding = 64;
    System sys(cfg, trace);
    return sys.run().seconds;
  };
  const double t2 = near_stream_seconds(2.0);
  const double t8 = near_stream_seconds(8.0);
  EXPECT_GT(t2, t8 * 1.8);  // 4x the bandwidth shows through
}

}  // namespace
}  // namespace tlm::sim
