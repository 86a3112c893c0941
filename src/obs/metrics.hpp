// MetricsRegistry — named counters, gauges, and wall-clock timers with
// per-thread sharding, so hot-path accounting (one fetch_add on a private
// cache line) never contends across the Machine's p workers.
//
// Usage pattern: resolve the metric once (a mutex-protected map lookup),
// then update it from worker threads by shard index:
//
//   obs::MetricsRegistry reg(machine.threads());
//   auto& far = reg.counter("sort.far_bursts");
//   ...                       // inside a worker w:
//   far.add(1, w);            // relaxed fetch_add on worker w's shard
//
// Snapshots (counters()/gauges()/timers_seconds()/to_json()) sum the shards
// and are intended for end-of-run reporting, not for hot paths.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>

#include "common/thread_annotations.hpp"
#include "obs/json.hpp"

namespace tlm::obs {

class MetricsRegistry {
 public:
  // `shards` is typically the worker count; shard indices wrap, so any
  // thread id is safe to pass.
  explicit MetricsRegistry(std::size_t shards = 1);

  class Counter {
   public:
    void add(std::uint64_t v, std::size_t shard = 0) {
      slots_[shard % nshards_].v.fetch_add(v, std::memory_order_relaxed);
    }
    std::uint64_t value() const {
      std::uint64_t sum = 0;
      for (std::size_t i = 0; i < nshards_; ++i)
        sum += slots_[i].v.load(std::memory_order_relaxed);
      return sum;
    }

   private:
    friend class MetricsRegistry;
    explicit Counter(std::size_t nshards)
        : nshards_(nshards ? nshards : 1),
          slots_(std::make_unique<Slot[]>(nshards_)) {}

    struct alignas(64) Slot {
      std::atomic<std::uint64_t> v{0};
    };
    std::size_t nshards_;
    std::unique_ptr<Slot[]> slots_;
  };

  // Wall-clock accumulator: nanoseconds in a sharded counter underneath.
  class Timer {
   public:
    void add_seconds(double s, std::size_t shard = 0) {
      ns_.add(static_cast<std::uint64_t>(s * 1e9), shard);
    }
    double seconds() const { return static_cast<double>(ns_.value()) * 1e-9; }

   private:
    friend class MetricsRegistry;
    explicit Timer(std::size_t nshards) : ns_(nshards) {}
    Counter ns_;
  };

  class ScopedTimer {
   public:
    explicit ScopedTimer(Timer& t, std::size_t shard = 0)
        : t_(t), shard_(shard), start_(std::chrono::steady_clock::now()) {}
    ~ScopedTimer() {
      t_.add_seconds(std::chrono::duration<double>(
                         std::chrono::steady_clock::now() - start_)
                         .count(),
                     shard_);
    }
    ScopedTimer(const ScopedTimer&) = delete;
    ScopedTimer& operator=(const ScopedTimer&) = delete;

   private:
    Timer& t_;
    std::size_t shard_;
    std::chrono::steady_clock::time_point start_;
  };

  // Get-or-create; returned references stay valid for the registry's
  // lifetime (values are heap-allocated behind the map).
  Counter& counter(std::string_view name);
  Timer& timer(std::string_view name);
  // Gauges are last-write-wins doubles (configuration echoes, ratios).
  void set_gauge(std::string_view name, double value);

  std::size_t shards() const { return shards_; }

  // Snapshots (shard-summed).
  std::map<std::string, std::uint64_t> counters() const;
  std::map<std::string, double> gauges() const;
  std::map<std::string, double> timers_seconds() const;

  // {"counters": {...}, "gauges": {...}, "timers_s": {...}}; empty sections
  // are omitted.
  Json to_json() const;

 private:
  std::size_t shards_;
  // mu_ guards the name->metric maps only; the returned Counter/Timer
  // objects are themselves lock-free (sharded atomics) and outlive the map
  // entries, so hot-path updates never touch mu_.
  mutable Mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_
      TLM_GUARDED_BY(mu_);
  std::map<std::string, std::unique_ptr<Timer>, std::less<>> timers_
      TLM_GUARDED_BY(mu_);
  std::map<std::string, double, std::less<>> gauges_ TLM_GUARDED_BY(mu_);
};

// One counter-table row into `reg`: a count adds to a counter, a double
// sets a gauge.
inline void export_leaf(MetricsRegistry& reg, std::string_view key,
                        std::uint64_t v) {
  reg.counter(key).add(v);
}
inline void export_leaf(MetricsRegistry& reg, std::string_view key,
                        double v) {
  reg.set_gauge(key, v);
}

}  // namespace tlm::obs
