// Compile-fail cases for Machine::try_alloc_near, built one at a time by
// tests/compile_fail.cmake with -DTLM_CASE_<name>. Each negative case must
// fail to build for the reason given beside it. The control differs only in
// testing the optional before use, and must build.
#include <cstddef>
#include <cstdint>
#include <span>

#include "scratchpad/machine.hpp"

using T = std::uint64_t;

void stage(tlm::Machine& m, std::size_t n) {
#if defined(TLM_CASE_SPAN)
  // optional<span<T>> does not convert to span<T>.
  std::span<T> buf = m.try_alloc_near<T>(n);
#elif defined(TLM_CASE_POINTER)
  // Nor to T*.
  T* buf = m.try_alloc_near<T>(n);
#elif defined(TLM_CASE_DISCARD)
  // [[nodiscard]] under -Werror=unused-result.
  m.try_alloc_near<T>(n);
#elif defined(TLM_CASE_CONTROL)
  if (auto buf = m.try_alloc_near<T>(n)) m.free_array(tlm::Space::Near, *buf);
#else
#error "define one TLM_CASE_<name>"
#endif
}
