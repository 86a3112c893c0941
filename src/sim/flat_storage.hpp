// Flat, recycled storage for the simulator's per-request bookkeeping. Both
// containers keep their memory when entries go away, so a steady stream of
// requests allocates nothing once they have grown to the peak number in
// flight.
//
// FlatMap: open-addressed hash map from a 64-bit key to a small value.
// Linear probing over one power-of-two slot array with backward-shift
// deletion: no per-entry nodes and no tombstones.
//
// IndexPool: a vector of values addressed by 32-bit index, with released
// indices handed out again before the vector grows.
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/math.hpp"

namespace tlm::sim {

template <class V>
class FlatMap {
 public:
  // The value for `key`, value-initialized and flagged fresh when absent.
  // The pointer stays valid until the next insertion or erase.
  std::pair<V*, bool> try_emplace(std::uint64_t key) {
    if (2 * (size_ + 1) > slots_.size()) grow();
    for (std::size_t i = home(key);; i = (i + 1) & mask_) {
      Slot& s = slots_[i];
      if (!s.used) {
        s = Slot{key, V{}, true};
        ++size_;
        return {&s.value, true};
      }
      if (s.key == key) return {&s.value, false};
    }
  }

  V* find(std::uint64_t key) {
    const std::size_t i = index_of(key);
    return i == kNone ? nullptr : &slots_[i].value;
  }

  // Erases `key`, which must be present.
  void erase(std::uint64_t key) {
    std::size_t i = index_of(key);
    // Pull later members of the probe run back into the hole, unless their
    // home slot lies cyclically after the hole (they must stay reachable).
    for (std::size_t j = (i + 1) & mask_; slots_[j].used;
         j = (j + 1) & mask_) {
      const std::size_t h = home(slots_[j].key);
      if (((j - h) & mask_) >= ((j - i) & mask_)) {
        slots_[i] = slots_[j];
        i = j;
      }
    }
    slots_[i].used = false;
    --size_;
  }

 private:
  struct Slot {
    std::uint64_t key = 0;
    V value{};
    bool used = false;
  };

  static constexpr std::size_t kNone = ~std::size_t{0};

  std::size_t index_of(std::uint64_t key) const {
    if (size_ == 0) return kNone;
    for (std::size_t i = home(key);; i = (i + 1) & mask_) {
      if (!slots_[i].used) return kNone;
      if (slots_[i].key == key) return i;
    }
  }

  // Fibonacci hashing: the top bits of key * 2^64/phi, so line-aligned keys
  // (low bits all zero) still spread over the table.
  std::size_t home(std::uint64_t key) const {
    return static_cast<std::size_t>((key * 0x9e3779b97f4a7c15ULL) >> shift_);
  }

  void grow() {
    std::vector<Slot> old = std::move(slots_);
    const std::size_t cap = old.empty() ? 16 : 2 * old.size();
    slots_.assign(cap, Slot{});
    mask_ = cap - 1;
    shift_ = 64 - ilog2(cap);
    size_ = 0;
    for (const Slot& s : old)
      if (s.used) *try_emplace(s.key).first = s.value;
  }

  std::vector<Slot> slots_;
  std::size_t mask_ = 0;
  unsigned shift_ = 64;
  std::size_t size_ = 0;
};

template <class T>
class IndexPool {
 public:
  std::uint32_t acquire(T value) {
    if (free_.empty()) {
      items_.push_back(std::move(value));
      return static_cast<std::uint32_t>(items_.size() - 1);
    }
    const std::uint32_t i = free_.back();
    free_.pop_back();
    items_[i] = std::move(value);
    return i;
  }
  void release(std::uint32_t i) { free_.push_back(i); }

  T& operator[](std::uint32_t i) { return items_[i]; }
  std::size_t capacity() const { return items_.size(); }

 private:
  std::vector<T> items_;
  std::vector<std::uint32_t> free_;
};

}  // namespace tlm::sim
