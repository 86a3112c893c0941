// Canned JobSpec factories for the workloads this repository ships: the
// five sort backends of the differential harness and the staged k-means.
// Tests and benches submit these against a JobServer; each factory splits
// its work into generate / run / check phases so the fair scheduler has
// real interleaving points, and each records its output so callers can
// compare multi-tenant runs bit-for-bit against solo runs.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "kmeans/kmeans.hpp"
#include "server/job_server.hpp"

namespace tlm::server {

// The five sort backends (mirrors the analysis::Algorithm dispatch without
// dragging the analysis/sim/trace stack into the server library).
enum class SortBackend {
  kGnu,            // single-level parallel multiway mergesort baseline
  kNMsort,         // §IV-D practical near-memory sort
  kScratchpadSeq,  // §III sequential recursive sort
  kScratchpadPar,  // §IV-C theoretical parallel sort
  kWriteEff,       // write-efficient NMsort (asymmetric ω variant)
};

inline constexpr SortBackend kSortBackends[] = {
    SortBackend::kGnu, SortBackend::kNMsort, SortBackend::kScratchpadSeq,
    SortBackend::kScratchpadPar, SortBackend::kWriteEff};

const char* to_string(SortBackend b);

struct SortJobResult {
  std::vector<std::uint64_t> input;   // the generated keys
  std::vector<std::uint64_t> output;  // the backend's sorted output
  // The check phase's verdict, output == std::sort(input), computed in
  // linear passes by is_sorted_permutation (common/sorted_check.hpp).
  bool verified = false;
};

// Phases: gen (deterministic keys from `seed`), sort, check. `result` must
// outlive the job; the same (backend, n, seed) always produces the same
// input and — because every backend is a correct sort — the same output,
// which is what makes solo-vs-multi-tenant differential comparison exact.
JobSpec make_sort_job(std::string tenant, std::string name, SortBackend b,
                      std::size_t n, std::uint64_t seed,
                      std::shared_ptr<SortJobResult> result);

struct KMeansJobResult {
  std::vector<double> points;
  kmeans::KMeansResult result;
};

// Phases: gen (make_blobs), cluster (kmeans_staged — bit-identical across
// staging/degradation decisions by construction, see kmeans.hpp).
JobSpec make_kmeans_job(std::string tenant, std::string name, std::size_t n,
                        std::size_t dims, std::size_t k, std::uint64_t seed,
                        std::shared_ptr<KMeansJobResult> result);

}  // namespace tlm::server
