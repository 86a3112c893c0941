// Small integer/real math helpers used by the cost model and algorithms.
#pragma once

#include <bit>
#include <cmath>
#include <cstdint>

#include "common/assert.hpp"

namespace tlm {

constexpr std::uint64_t ceil_div(std::uint64_t a, std::uint64_t b) {
  return b == 0 ? 0 : (a + b - 1) / b;
}

constexpr bool is_pow2(std::uint64_t x) { return x != 0 && (x & (x - 1)) == 0; }

// floor(log2(x)) for x >= 1.
constexpr unsigned ilog2(std::uint64_t x) {
  return x == 0 ? 0u : 63u - static_cast<unsigned>(std::countl_zero(x));
}

constexpr std::uint64_t next_pow2(std::uint64_t x) {
  return x <= 1 ? 1 : std::uint64_t{1} << (64 - std::countl_zero(x - 1));
}

// log_base(b) of (a), clamped below at 1: external-memory bounds use
// log-ratios that must never shrink a term below a single pass.
inline double clamped_log(double a, double base) {
  TLM_REQUIRE(a > 0 && base > 0, "log arguments must be positive");
  if (base <= 1.0 + 1e-12) return std::max(1.0, std::log2(a));
  return std::max(1.0, std::log(a) / std::log(base));
}

// Round `x` up to a multiple of `m`.
constexpr std::uint64_t round_up(std::uint64_t x, std::uint64_t m) {
  return m == 0 ? x : ceil_div(x, m) * m;
}

constexpr std::uint64_t round_down(std::uint64_t x, std::uint64_t m) {
  return m == 0 ? x : (x / m) * m;
}

// Division by a fixed positive divisor: a shift and a mask when it is a
// power of two, a hardware division otherwise. The quotients and remainders
// are the same either way.
class Divisor {
 public:
  explicit Divisor(std::uint64_t d)
      : d_(d), shift_(is_pow2(d) ? ilog2(d) : kDivide) {
    TLM_REQUIRE(d > 0, "divisor must be positive");
  }
  std::uint64_t div(std::uint64_t x) const {
    return shift_ != kDivide ? x >> shift_ : x / d_;
  }
  std::uint64_t mod(std::uint64_t x) const {
    return shift_ != kDivide ? x & (d_ - 1) : x % d_;
  }

 private:
  static constexpr unsigned kDivide = 64;
  std::uint64_t d_;
  unsigned shift_;
};

}  // namespace tlm
