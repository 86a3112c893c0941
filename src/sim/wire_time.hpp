// Serialization time of a message on a link, memoized per message size.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>

#include "common/units.hpp"

namespace tlm::sim {

// The time `bytes` take on a link of `bw` bytes/s: bytes / bw * 1e12 ps,
// truncated. A link sees a handful of message sizes (a command header, a
// line, a header plus a line), so each size's time is computed once, from
// that one expression, and then read back; the values are the expression's
// bit for bit. Sizes past the memo's capacity are computed every time.
class WireTime {
 public:
  explicit WireTime(double bw) : bw_(bw) {}

  SimTime operator()(std::uint64_t bytes) {
    for (std::size_t i = 0; i < size_; ++i)
      if (memo_[i].bytes == bytes) return memo_[i].time;
    const auto time =
        static_cast<SimTime>(static_cast<double>(bytes) / bw_ * 1e12);
    if (size_ < memo_.size()) memo_[size_++] = Entry{bytes, time};
    return time;
  }

 private:
  struct Entry {
    std::uint64_t bytes;
    SimTime time;
  };
  double bw_;
  std::array<Entry, 4> memo_{};
  std::size_t size_ = 0;
};

}  // namespace tlm::sim
