// Discrete-event simulation core — the role SST's kernel plays in the paper.
//
// Components schedule closures at absolute simulated times (picosecond
// ticks); the simulator executes them in (time, insertion) order. SST's
// component/link architecture is mirrored one level up: components hold
// typed pointers to their neighbours and use `schedule` to model link and
// service latencies.
//
// Events never allocate. A handler lives inline in a fixed buffer sized for
// the largest one the components schedule (a MemReq plus a component
// pointer); a larger closure is a compile error, not a heap fallback. The
// queue is a 4-ary min-heap of (when, seq) keys, so once the queue has grown
// to the peak number of pending events a run performs no allocation per
// event.
//
// Event lanes. A resource whose events never go back in time (a cache's
// lookups, a port's deliveries, a memory channel's responses) schedules
// them into its own lane: a FIFO whose times never decrease, holding each
// event's trivially copyable closure inline. Only a lane's head sits in the
// heap, and every event keeps its global (when, seq) key, so lanes change
// no execution order. After a lane event runs, the lane's next event runs
// at once, with no heap push or pop, when it precedes the heap's top. Plain
// events keep their Handler in a recycled pool of slots.
//
// Arrivals. A message whose receiver books it at injection (a crossbar
// hands each request to its memory controller with its arrival time) has
// no event of its own. The simulator counts it as an executed event, and
// the run ends no earlier than its arrival (end_time()).
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/assert.hpp"
#include "common/units.hpp"

namespace tlm::sim {

// Memory transaction. Addresses are line-aligned by the issuing core; only
// reads (and demand stores) receive responses, writebacks are posted.
struct MemReq {
  std::uint64_t addr = 0;
  std::uint32_t bytes = 64;
  bool is_write = false;
  bool posted = false;  // fire-and-forget (cache writebacks)
  std::uint64_t tag = 0;       // requester-local id
  class Requester* origin = nullptr;
  SimTime issued = 0;  // when the core issued it; the response carries it back
};

class Requester {
 public:
  virtual ~Requester() = default;
  virtual void on_response(const MemReq& req) = 0;
};

// Anything that accepts requests flowing away from the cores.
class MemPort {
 public:
  virtual ~MemPort() = default;
  virtual void request(const MemReq& req) = 0;
};

// A memory controller at the end of a crossbar route. The crossbar hands it
// each request at injection, with the time the request arrives (>= now()),
// in the order the requests arrive. The controller books its state from
// that time and lets no request act before it: whatever a request causes
// (a response, or a decision a later model makes) is scheduled at or after
// its arrival. request(req) is an arrival at now().
class MemController : public MemPort {
 public:
  virtual void arrive(const MemReq& req, SimTime when) = 0;
};

// Move-only nullary callable stored inline: the one event representation.
// Components also keep completions in it (DMA descriptors, barrier
// arrivals) and hand them to the simulator unchanged.
class Handler {
 public:
  // The largest handler the components schedule: a MemReq plus a component
  // pointer (a cache lookup).
  static constexpr std::size_t kCapacity = sizeof(MemReq) + sizeof(void*);
  static_assert(kCapacity <= 48, "MemReq grew: handlers no longer fit 48 B");

  Handler() = default;
  // Implicit, so a lambda passes wherever a Handler is expected.
  template <class F, class D = std::decay_t<F>,
            std::enable_if_t<!std::is_same_v<D, Handler>, int> = 0>
  Handler(F&& fn) {
    construct<D>(std::forward<F>(fn));
  }
  Handler(Handler&& o) noexcept { take(o); }
  Handler& operator=(Handler&& o) noexcept {
    if (this != &o) {
      reset();
      take(o);
    }
    return *this;
  }
  Handler(const Handler&) = delete;
  Handler& operator=(const Handler&) = delete;
  ~Handler() { reset(); }

  // Replaces the stored callable, constructing `fn` in place.
  template <class F>
  void emplace(F&& fn) {
    using D = std::decay_t<F>;
    if constexpr (std::is_same_v<D, Handler>) {
      *this = std::forward<F>(fn);
    } else {
      reset();
      construct<D>(std::forward<F>(fn));
    }
  }

  explicit operator bool() const { return ops_ != nullptr; }
  void operator()() { ops_->invoke(buf_); }

  void reset() noexcept {
    if (ops_ != nullptr && ops_->destroy != nullptr) ops_->destroy(buf_);
    ops_ = nullptr;
  }

 private:
  struct Ops {
    void (*invoke)(void*);
    void (*relocate)(void* from, void* to) noexcept;
    void (*destroy)(void*) noexcept;  // null when trivially destructible
  };

  template <class D>
  static D* as(void* p) {
    return std::launder(static_cast<D*>(p));
  }
  template <class D>
  static constexpr Ops kOps = {
      [](void* p) { (*as<D>(p))(); },
      [](void* from, void* to) noexcept {
        ::new (to) D(std::move(*as<D>(from)));
        as<D>(from)->~D();
      },
      std::is_trivially_destructible_v<D>
          ? nullptr
          : +[](void* p) noexcept { as<D>(p)->~D(); },
  };

  template <class D, class F>
  void construct(F&& fn) {
    static_assert(sizeof(D) <= kCapacity,
                  "event handler exceeds the inline capacity");
    static_assert(alignof(D) <= kAlign, "event handler is over-aligned");
    static_assert(std::is_nothrow_move_constructible_v<D>,
                  "event handler must be nothrow-movable");
    ::new (static_cast<void*>(buf_)) D(std::forward<F>(fn));
    ops_ = &kOps<D>;
  }

  void take(Handler& o) noexcept {
    if (o.ops_ == nullptr) return;
    o.ops_->relocate(o.buf_, buf_);
    ops_ = o.ops_;
    o.ops_ = nullptr;
  }

  static constexpr std::size_t kAlign = alignof(std::uint64_t);
  alignas(kAlign) unsigned char buf_[kCapacity];
  const Ops* ops_ = nullptr;
};

// A lane's handle, from Simulator::add_lane.
struct Lane {
  std::uint32_t id;
};

class Simulator {
 public:
  Simulator() = default;
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  SimTime now() const { return now_; }
  // When the run so far ends: the later of the last executed event and the
  // last arrival.
  SimTime end_time() const { return std::max(now_, last_arrival_); }

  // A new, empty lane. Scheduling into it at a time before its newest
  // event is an invariant failure.
  Lane add_lane() {
    lanes_.emplace_back();
    return Lane{static_cast<std::uint32_t>(lanes_.size() - 1)};
  }

  // Schedules `fn` to run at now() + delay.
  template <class F>
  void schedule(SimTime delay, F&& fn) {
    push(now_ + delay, std::forward<F>(fn));
  }
  template <class F>
  void schedule_at(SimTime when, F&& fn) {
    TLM_REQUIRE(when >= now_, "cannot schedule into the past");
    push(when, std::forward<F>(fn));
  }
  // The same, into `lane`. The closure is stored in the lane by value, so
  // it must be trivially copyable and fit a Handler's buffer.
  template <class F>
  void schedule(Lane lane, SimTime delay, F&& fn) {
    push(lane, now_ + delay, std::forward<F>(fn));
  }
  template <class F>
  void schedule_at(Lane lane, SimTime when, F&& fn) {
    TLM_REQUIRE(when >= now_, "cannot schedule into the past");
    push(lane, when, std::forward<F>(fn));
  }

  // Counts a message that reaches its receiver at `when` without an event:
  // the receiver booked it at injection. The next run() counts it as an
  // executed event, and end_time() is at least `when`.
  void arrival(SimTime when) {
    TLM_CHECK(when >= now_, "an arrival before now()");
    ++arrivals_;
    last_arrival_ = std::max(last_arrival_, when);
  }

  // Runs until the event queue drains (or `max_events` queued events fire
  // — a runaway guard for tests). Returns the number of events executed,
  // plus the arrivals counted since the last run() returned. Handlers that
  // never run are destroyed with the simulator.
  std::uint64_t run(std::uint64_t max_events = ~0ULL) {
    release_held();  // left held by a handler that threw
    std::uint64_t executed = 0;
    while (!heap_.empty() && executed < max_events) {
      Key k = heap_.front();
      pop_front();
      for (;;) {
        if (k.lane == kNoLane) {
          execute(k);
        } else {
          // The closure is copied out before the head is popped: the
          // handler may grow its own lane's ring. Whether the lane has more
          // is decided before the handler runs: if it empties here, the
          // handler's own push into it goes to the heap. Otherwise the
          // lane's new head is held, neither in the heap nor behind a head
          // that is, until the handler returns.
          LaneQueue& q = lanes_[k.lane];
          LaneEvent e = q.front();
          q.pop_front();
          if (q.size != 0) held_ = k.lane;
          advance_to(k.when());
          e.invoke(e.buf);
        }
        ++executed;
        if (held_ == kNoLane) break;
        const Key next = lanes_[held_].front_key(held_);
        if (executed == max_events ||
            (!heap_.empty() && !before(next, heap_.front()))) {
          release_held();
          break;
        }
        held_ = kNoLane;
        k = next;  // the fast path: next in (when, seq) order anyway
      }
    }
    executed += arrivals_;
    arrivals_ = 0;
    return executed;
  }

  bool idle() const { return heap_.empty() && held_ == kNoLane; }
  // Every event not yet run: the heap, the held head and each lane's tail
  // behind its head. Exact from inside a handler too.
  std::uint64_t pending() const {
    std::uint64_t n = heap_.size() + (held_ != kNoLane);
    for (const LaneQueue& q : lanes_) n += q.size - (q.size != 0);
    return n;
  }

 private:
  // (when, seq) packed high/low into one 128-bit integer: the heap's total
  // order is then a single unsigned comparison, free of branches.
  __extension__ typedef unsigned __int128 Order;
  static constexpr std::uint32_t kNoLane = ~0u;
  struct Key {
    Order order;
    std::uint32_t slot;  // a plain event's handler slot
    std::uint32_t lane;  // kNoLane for a plain event
    SimTime when() const { return static_cast<SimTime>(order >> 64); }
  };
  static bool before(const Key& a, const Key& b) { return a.order < b.order; }

  // A lane event: its order and its closure, stored by value.
  struct LaneEvent {
    Order order;
    void (*invoke)(void*);
    alignas(std::uint64_t) unsigned char buf[Handler::kCapacity];
  };

  // A ring of events in (when, seq) order; its head is in the heap unless
  // the run loop holds it (held_).
  struct LaneQueue {
    std::vector<LaneEvent> ring;  // power-of-two capacity
    std::uint32_t head = 0, size = 0;
    SimTime last = 0;  // the newest event's time

    const LaneEvent& front() const { return ring[head]; }
    Key front_key(std::uint32_t lane) const {
      return Key{ring[head].order, 0, lane};
    }
    void pop_front() {
      head = (head + 1) & static_cast<std::uint32_t>(ring.size() - 1);
      --size;
    }
    // A new slot at the back, for the caller to fill.
    LaneEvent& push_back() {
      if (size == ring.size()) {
        std::vector<LaneEvent> grown(ring.empty() ? 8 : 2 * ring.size());
        for (std::uint32_t i = 0; i < size; ++i)
          grown[i] = ring[(head + i) & (ring.size() - 1)];
        ring = std::move(grown);
        head = 0;
      }
      return ring[(head + size++) & (ring.size() - 1)];
    }
  };

  static constexpr unsigned kChunkBits = 8;
  static constexpr std::uint32_t kChunk = 1u << kChunkBits;
  static constexpr std::size_t kArity = 4;

  Handler& slot(std::uint32_t s) {
    return chunks_[s >> kChunkBits][s & (kChunk - 1)];
  }

  Order next_order(SimTime when) { return (Order{when} << 64) | seq_++; }

  // Stores `fn` in a pool slot and queues its key.
  template <class F>
  void push(SimTime when, F&& fn) {
    if (free_.empty()) {
      const auto base = static_cast<std::uint32_t>(chunks_.size() * kChunk);
      chunks_.push_back(std::make_unique<Handler[]>(kChunk));
      for (std::uint32_t i = kChunk; i-- > 0;) free_.push_back(base + i);
    }
    const std::uint32_t s = free_.back();
    free_.pop_back();
    slot(s).emplace(std::forward<F>(fn));
    heap_push(Key{next_order(when), s, kNoLane});
  }

  template <class F>
  void push(Lane lane, SimTime when, F&& fn) {
    using D = std::decay_t<F>;
    static_assert(std::is_trivially_copyable_v<D>,
                  "a lane event's closure must be trivially copyable");
    static_assert(sizeof(D) <= Handler::kCapacity,
                  "event handler exceeds the inline capacity");
    static_assert(alignof(D) <= alignof(std::uint64_t),
                  "event handler is over-aligned");
    LaneQueue& q = lanes_[lane.id];
    TLM_CHECK(when >= q.last, "event lane went backwards");
    q.last = when;
    LaneEvent& e = q.push_back();
    e.order = next_order(when);
    e.invoke = [](void* p) { (*std::launder(static_cast<D*>(p)))(); };
    ::new (static_cast<void*>(e.buf)) D(std::forward<F>(fn));
    if (q.size == 1) heap_push(q.front_key(lane.id));
  }

  void advance_to(SimTime when) {
    TLM_CHECK(when >= now_, "event queue went backwards");
    now_ = when;
  }

  // Runs a plain event in place: pool slots never move, so the handler may
  // schedule more events; its slot is recycled only after it returns.
  void execute(const Key& k) {
    advance_to(k.when());
    Handler& h = slot(k.slot);
    h();
    h.reset();
    free_.push_back(k.slot);
  }

  // Puts the held lane head, if any, into the heap.
  void release_held() {
    if (held_ == kNoLane) return;
    heap_push(lanes_[held_].front_key(held_));
    held_ = kNoLane;
  }

  void heap_push(const Key& k) {
    heap_.push_back(k);
    sift_up(heap_.size() - 1, k);
  }

  // Removes the root. The hole walks down to a leaf, always taking the
  // smaller child (chosen without branches: the keys are in no predictable
  // order), and the old last key then sifts up from there — it usually
  // belongs near the bottom, so this compares less than a top-down sift.
  void pop_front() {
    const std::size_t n = heap_.size() - 1;
    const Key last = heap_[n];
    heap_.pop_back();
    if (n == 0) return;
    std::size_t hole = 0;
    for (;;) {
      const std::size_t first = kArity * hole + 1;
      std::size_t best;
      if (first + kArity <= n) {
        const std::size_t a = first + before(heap_[first + 1], heap_[first]);
        const std::size_t b =
            first + 2 + before(heap_[first + 3], heap_[first + 2]);
        best = before(heap_[b], heap_[a]) ? b : a;
      } else {
        if (first >= n) break;
        best = first;
        for (std::size_t c = first + 1; c < n; ++c)
          if (before(heap_[c], heap_[best])) best = c;
      }
      heap_[hole] = heap_[best];
      hole = best;
    }
    sift_up(hole, last);
  }

  void sift_up(std::size_t i, const Key& k) {
    while (i > 0) {
      const std::size_t parent = (i - 1) / kArity;
      if (!before(k, heap_[parent])) break;
      heap_[i] = heap_[parent];
      i = parent;
    }
    heap_[i] = k;
  }

  std::vector<Key> heap_;  // 4-ary min-heap on (when, seq)
  std::vector<LaneQueue> lanes_;
  std::uint32_t held_ = kNoLane;  // the lane whose head the run loop holds
  std::vector<std::unique_ptr<Handler[]>> chunks_;  // stable handler slots
  std::vector<std::uint32_t> free_;                 // recycled slot ids
  SimTime now_ = 0;
  std::uint64_t seq_ = 0;
  std::uint64_t arrivals_ = 0;  // counted, not yet returned by run()
  SimTime last_arrival_ = 0;
};

}  // namespace tlm::sim
