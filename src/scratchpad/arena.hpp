// The scratchpad allocator backing sp_malloc/sp_free (§VI-B.2).
//
// A first-fit free-list allocator over one contiguous buffer of M bytes.
// The paper assumes "a modified malloc() call to allocate a portion of the
// scratchpad space"; this is that call. Capacity is hard: exceeding M throws,
// because the whole point of the co-design is that the algorithm must manage
// the limited near memory explicitly.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>

namespace tlm {

class NearArena {
 public:
  explicit NearArena(std::uint64_t capacity_bytes);

  NearArena(const NearArena&) = delete;
  NearArena& operator=(const NearArena&) = delete;

  // Allocates `bytes` aligned to `align` (a power of two). Throws
  // ScratchpadError (a std::bad_alloc) when no free block fits — the caller
  // either sized its working set to M (then this is an algorithmic bug) or
  // opted into degradation via Machine::try_alloc_near, which converts the
  // throw into a nullopt.
  std::byte* allocate(std::uint64_t bytes, std::uint64_t align = 64);

  // Frees a pointer previously returned by allocate(); coalesces neighbours.
  void deallocate(std::byte* p);

  bool contains(const void* p) const {
    const auto* b = static_cast<const std::byte*>(p);
    return b >= base() && b < base() + capacity_;
  }

  std::uint64_t capacity() const { return capacity_; }
  std::uint64_t used() const { return used_; }
  std::uint64_t high_water() const { return high_water_; }
  std::uint64_t free_bytes() const { return capacity_ - used_; }
  std::uint64_t allocation_count() const { return live_.size(); }

  // Offset of `p` inside the arena; used to derive trace virtual addresses.
  std::uint64_t offset_of(const void* p) const;

  // The live allocation containing arena offset `off`, as {block_offset,
  // block_length}, or nullopt when `off` falls in free space. The model
  // sanitizer uses this to pin every near-side charge to one allocation.
  std::optional<std::pair<std::uint64_t, std::uint64_t>> live_block_of(
      std::uint64_t off) const;

  std::byte* base() { return base_; }
  const std::byte* base() const { return base_; }

 private:
  // The backing buffer is over-allocated so `base_` can be aligned to the
  // largest alignment allocate() accepts; offsets are then real alignments.
  static constexpr std::uint64_t kMaxAlign = 4096;

  std::uint64_t capacity_;
  std::unique_ptr<std::byte[]> buffer_;
  std::byte* base_ = nullptr;
  // offset -> length. Two maps keep both lookups O(log n); allocation counts
  // here are tiny (tens of live blocks), so simplicity wins over a size-
  // bucketed structure.
  std::map<std::uint64_t, std::uint64_t> free_;  // by offset
  std::map<std::uint64_t, std::uint64_t> live_;  // by offset
  std::uint64_t used_ = 0;
  std::uint64_t high_water_ = 0;
};

}  // namespace tlm
