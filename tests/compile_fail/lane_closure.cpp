// Compile-fail cases for the closures a simulator lane stores, built one at
// a time by tests/compile_fail.cmake with -DTLM_CASE_<name>. A lane keeps
// each event's closure by value in its ring and copies it out to run it, so
// the closure must be trivially copyable and fit the inline buffer; a plain
// event takes either. The control schedules a MemReq-sized closure into a
// lane and a resource-owning one as a plain event.
#include <memory>

#include "sim/simulator.hpp"

void schedule(tlm::sim::Simulator& sim, tlm::sim::Lane lane,
              const tlm::sim::MemReq& req) {
#if defined(TLM_CASE_NOT_TRIVIAL)
  // A closure that owns a resource cannot be copied bytewise.
  auto token = std::make_shared<int>(0);
  sim.schedule(lane, 1, [token] { ++*token; });
#elif defined(TLM_CASE_TOO_LARGE)
  // Two requests do not fit the buffer.
  sim.schedule(lane, 1, [req, again = req] { (void)req, (void)again; });
#elif defined(TLM_CASE_CONTROL)
  auto token = std::make_shared<int>(0);
  sim.schedule(1, [token] { ++*token; });
  sim.schedule(lane, 1, [&sim, req] { (void)sim, (void)req; });
#else
#error "define one TLM_CASE_<name>"
#endif
}
