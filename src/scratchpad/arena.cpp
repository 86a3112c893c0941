#include "scratchpad/arena.hpp"

#include "common/assert.hpp"
#include "common/faults.hpp"
#include "common/math.hpp"

namespace tlm {

// The buffer is left uninitialized, as a real scratchpad's contents are
// until written: no kernel reads a near byte it did not write, and pages
// the run never touches are never backed.
NearArena::NearArena(std::uint64_t capacity_bytes)
    : capacity_(capacity_bytes),
      buffer_(std::make_unique_for_overwrite<std::byte[]>(capacity_bytes +
                                                          kMaxAlign)) {
  TLM_REQUIRE(capacity_bytes > 0, "scratchpad capacity must be positive");
  const auto raw = reinterpret_cast<std::uintptr_t>(buffer_.get());
  base_ = buffer_.get() + (round_up(raw, kMaxAlign) - raw);
  free_.emplace(0, capacity_);
}

std::byte* NearArena::allocate(std::uint64_t bytes, std::uint64_t align) {
  TLM_REQUIRE(bytes > 0, "zero-byte scratchpad allocation");
  TLM_REQUIRE(is_pow2(align) && align <= kMaxAlign,
              "alignment must be a power of two up to 4096");
  for (auto it = free_.begin(); it != free_.end(); ++it) {
    const std::uint64_t off = it->first;
    const std::uint64_t len = it->second;
    const std::uint64_t aligned = round_up(off, align);
    const std::uint64_t pad = aligned - off;
    if (len < pad || len - pad < bytes) continue;

    free_.erase(it);
    if (pad > 0) free_.emplace(off, pad);
    const std::uint64_t tail = len - pad - bytes;
    if (tail > 0) free_.emplace(aligned + bytes, tail);

    live_.emplace(aligned, bytes);
    used_ += bytes;
    high_water_ = std::max(high_water_, used_);
    return base() + aligned;
  }
  // Scratchpad capacity M exhausted (or too fragmented for this request).
  // The typed error carries the sizing so fallible callers can degrade; it
  // derives std::bad_alloc so legacy catch sites keep working.
  throw ScratchpadError("near_arena.allocate", bytes, free_bytes());
}

void NearArena::deallocate(std::byte* p) {
  TLM_REQUIRE(contains(p), "pointer is not inside the scratchpad");
  const std::uint64_t off = static_cast<std::uint64_t>(p - base());
  auto it = live_.find(off);
  TLM_REQUIRE(it != live_.end(), "double free or interior pointer");
  std::uint64_t begin = off;
  std::uint64_t len = it->second;
  used_ -= len;
  live_.erase(it);

  // Coalesce with the next free block.
  auto next = free_.lower_bound(begin);
  if (next != free_.end() && next->first == begin + len) {
    len += next->second;
    next = free_.erase(next);
  }
  // Coalesce with the previous free block.
  if (next != free_.begin()) {
    auto prev = std::prev(next);
    if (prev->first + prev->second == begin) {
      begin = prev->first;
      len += prev->second;
      free_.erase(prev);
    }
  }
  free_.emplace(begin, len);
}

std::optional<std::pair<std::uint64_t, std::uint64_t>>
NearArena::live_block_of(std::uint64_t off) const {
  auto it = live_.upper_bound(off);
  if (it == live_.begin()) return std::nullopt;
  --it;
  if (off >= it->first + it->second) return std::nullopt;
  return std::make_pair(it->first, it->second);
}

std::uint64_t NearArena::offset_of(const void* p) const {
  TLM_REQUIRE(contains(p), "pointer is not inside the scratchpad");
  return static_cast<std::uint64_t>(static_cast<const std::byte*>(p) - base());
}

}  // namespace tlm
