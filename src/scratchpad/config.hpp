// Runtime configuration of the two-level memory node used by the Machine
// (counting backend) and mirrored by the cycle-level simulator configs.
#pragma once

#include <cstddef>
#include <cstdint>

#include "common/assert.hpp"
#include "common/units.hpp"
#include "memmodel/params.hpp"

namespace tlm {

struct TwoLevelConfig {
  std::uint64_t near_capacity = 256 * MiB;  // M, bytes of scratchpad
  std::uint64_t block_bytes = 64;           // B, DRAM block/line size in bytes
  std::uint64_t cache_bytes = 512 * KiB;    // Z, on-chip cache per core group
  double rho = 4.0;                         // scratchpad bandwidth expansion

  double far_bw = 60.0 * GB;      // bytes/s to far memory (STREAM-like)
  double near_latency = 50e-9;    // s per near burst (Fig. 4: 50 ns constant)
  double far_latency = 100e-9;    // s per far burst (DDR access + queueing)
  double core_rate = 1.0e9;       // ops/s each core can retire
  std::size_t threads = 4;        // p (= p′ in our runs)

  // ω — write-cost multiplier for far memory (Blelloch et al., "Sorting with
  // Asymmetric Read and Write Costs"): a far write costs ω× a far read of
  // the same size, in both bandwidth and per-burst latency. The scratchpad
  // stays symmetric (SRAM-like near memory has no write asymmetry). ω=1
  // reproduces the paper's symmetric model bit-for-bit: the time fold has
  // one path at every ω, weighing far write bytes and bursts by ω, and at
  // ω = 1 the weighted sums are the unweighted ones exactly.
  double far_write_cost = 1.0;

  // When true, phase time is max(compute, far traffic, near traffic) —
  // the DMA-overlap model of §VI-B/§VII; when false the three serialize,
  // matching the paper's prototype which "simply waits for the transfer".
  bool overlap_dma = false;

  // Model-sanitizer strictness (only observed under TLM_CHECK_MODEL): when
  // true, every cross-space copy() must start on a rho*B near-line boundary
  // within its allocation and cover whole lines (a trailing partial line is
  // allowed only at the end of the allocation). The shipped kernels gather
  // variable-length runs at arbitrary near offsets — legal under the model,
  // which charges ceil-rounded lines for partial transfers — so this is an
  // opt-in audit mode for strictly line-structured pipelines, not a default.
  bool strict_dma_lines = false;

  double near_bw() const { return rho * far_bw; }
  // Scratchpad bytes a kernel plans its staging with: M less a 1/16 reserve
  // for incidental near allocations (pivot samples, small metadata).
  std::uint64_t usable_near() const {
    return near_capacity - near_capacity / 16;
  }
  std::uint64_t near_block_bytes() const {
    return static_cast<std::uint64_t>(rho * static_cast<double>(block_bytes));
  }

  void validate() const {
    TLM_REQUIRE(block_bytes >= 8 && near_capacity >= 4 * block_bytes,
                "degenerate memory geometry");
    TLM_REQUIRE(rho >= 1.0, "rho is a bandwidth expansion factor");
    TLM_REQUIRE(far_bw > 0 && core_rate > 0, "rates must be positive");
    TLM_REQUIRE(far_write_cost >= 1.0,
                "far_write_cost (omega) models writes at least as expensive "
                "as reads");
    TLM_REQUIRE(threads >= 1, "need at least one core");
  }

  // Derives the algorithmic model (§II) for this runtime configuration,
  // measured in elements of `elem_bytes`.
  model::ScratchpadModel to_model(std::uint64_t elem_bytes,
                                  std::uint64_t cache_bytes) const {
    model::ScratchpadModel m;
    m.cache_z = cache_bytes / elem_bytes;
    m.scratch_m = near_capacity / elem_bytes;
    m.block_b = block_bytes / elem_bytes;
    m.rho = rho;
    m.cores_p = threads;
    m.parallel_p = threads;
    m.write_cost = far_write_cost;
    return m;
  }
};

// Scaled-down default used by tests: 16 MiB scratchpad, 4 threads.
inline TwoLevelConfig test_config(double rho = 4.0) {
  TwoLevelConfig c;
  c.near_capacity = 16 * MiB;
  c.rho = rho;
  c.threads = 4;
  return c;
}

}  // namespace tlm
