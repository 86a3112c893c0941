// Compile-fail cases for the private PhaseStats counters, built one at a time
// by tests/compile_fail.cmake with -DTLM_CASE_<name>. Only Machine and
// obs::phase_from_json write a stored counter; everyone else reads it through
// its accessor, which the control does.
#include <cstdint>

#include "scratchpad/counters.hpp"

std::uint64_t patch_up(tlm::PhaseStats& p, std::uint64_t blocks) {
#if defined(TLM_CASE_ASSIGN_ACCESSOR)
  // An accessor returns a value, not a reference.
  p.far_write_blocks() += blocks;
#elif defined(TLM_CASE_ASSIGN_STORAGE)
  // The stored counter behind it is private.
  p.far_write_blocks_ += blocks;
#elif defined(TLM_CASE_ASSIGN_NAME)
  // And the bare name is a member function.
  p.far_write_blocks = blocks;
#elif defined(TLM_CASE_CONTROL)
  (void)blocks;
#else
#error "define one TLM_CASE_<name>"
#endif
  return p.far_read_bytes() + p.far_blocks();
}
