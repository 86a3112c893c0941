// Test-only DMA poster. Machine::dma_copy takes a DmaKey that only Stager
// can construct; the tests that post transfers Stager never issues (near->far
// writebacks, retry and ω charge checks on a single descriptor) go through
// this helper instead. Never included from src/.
#pragma once

#include <cstddef>
#include <cstdint>
#include <source_location>

#include "scratchpad/machine.hpp"

namespace tlm {

struct DmaTestAccess {
  static void dma_copy(
      Machine& m, std::size_t thread, void* dst, const void* src,
      std::uint64_t bytes,
      std::source_location loc = std::source_location::current()) {
    m.dma_copy(DmaKey{}, thread, dst, src, bytes, loc);
  }
};

}  // namespace tlm
