// Canned JobSpec factories for the workloads this repository ships: the
// catalogue's sorts (sort/catalogue.hpp) and the staged k-means.
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
#include "sort/catalogue.hpp"

namespace tlm::server {

// The five sort backends a job-server wave rotates through.
inline constexpr sort::Algorithm kSortBackends[] = {
    sort::Algorithm::GnuSort, sort::Algorithm::NMsort,
    sort::Algorithm::ScratchpadSeq, sort::Algorithm::ScratchpadPar,
    sort::Algorithm::NMsortWriteEff};

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
// The sort phase is the catalogue's sort_into, the call
// analysis::run_sort_counting makes on the same keys and seed.
JobSpec make_sort_job(std::string tenant, std::string name, sort::Algorithm b,
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
