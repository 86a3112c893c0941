// The single-level baseline: GNU-style parallel multiway mergesort run
// entirely in far memory (no scratchpad usage). This is the comparison
// column of Table I.
#pragma once

#include <span>

#include "scratchpad/machine.hpp"
#include "sort/multiway_sort.hpp"

namespace tlm::sort {

template <typename T, typename Cmp = std::less<T>>
void gnu_like_sort(Machine& m, std::span<T> data, Cmp cmp = {}) {
  if (data.size() <= 1) return;
  TLM_REQUIRE(m.space_of(data.data()) == Space::Far,
              "the baseline sorts far-resident data");
  m.adopt_far(data.data(), data.size_bytes());
  m.begin_phase("gnu.multiway_sort");
  multiway_merge_sort(m, data, cmp);
  m.end_phase();
}

}  // namespace tlm::sort
