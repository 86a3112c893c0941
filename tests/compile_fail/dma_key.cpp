// Compile-fail cases for the DmaKey passkey on Machine::dma_copy, built one
// at a time by tests/compile_fail.cmake with -DTLM_CASE_<name>. Only Stager
// can construct a key, so code elsewhere cannot post a DMA transfer whose
// completion fence nobody owns. The control posts through a Stager.
#include <cstddef>
#include <cstdint>
#include <span>

#include "scratchpad/machine.hpp"
#include "scratchpad/stager.hpp"

void gather(tlm::Machine& m, std::byte* dst, const std::byte* src,
            std::uint64_t n) {
#if defined(TLM_CASE_NO_KEY)
  // A kernel posting its own transfer: dma_copy has no keyless overload.
  m.dma_copy(0, dst, src, n);
#elif defined(TLM_CASE_KEY)
  // Nor can it mint a key...
  tlm::DmaKey key;
  m.dma_copy(key, 0, dst, src, n);
#elif defined(TLM_CASE_BRACED_KEY)
  // ...not even from an empty brace list.
  m.dma_copy({}, 0, dst, src, n);
#elif defined(TLM_CASE_CONTROL)
  (void)dst;
  tlm::Stager::Options opt;
  opt.buffer_bytes = n;
  opt.worker_hook = false;
  tlm::Stager stager(m, opt);
  const tlm::Stager::Item item{{{src, 0, n}}, n};
  stager.run(std::span(&item, 1),
             [](const tlm::Stager::Item&, std::byte*,
                const tlm::Stager::WorkerHook&) {});
#else
#error "define one TLM_CASE_<name>"
#endif
}
