#include "server/jobs.hpp"

#include "common/rng.hpp"
#include "common/sorted_check.hpp"
#include "sort/sort.hpp"

namespace tlm::server {

const char* to_string(SortBackend b) {
  switch (b) {
    case SortBackend::kGnu:
      return "gnu";
    case SortBackend::kNMsort:
      return "nmsort";
    case SortBackend::kScratchpadSeq:
      return "scratchpad_seq";
    case SortBackend::kScratchpadPar:
      return "scratchpad_par";
    case SortBackend::kWriteEff:
      return "write_eff";
  }
  return "?";
}

JobSpec make_sort_job(std::string tenant, std::string name, SortBackend b,
                      std::size_t n, std::uint64_t seed,
                      std::shared_ptr<SortJobResult> result) {
  JobSpec spec;
  spec.tenant = std::move(tenant);
  spec.name = std::move(name);
  spec.phases.push_back(
      {"gen", [result, n, seed](JobContext&) {
         result->input = random_keys(n, seed);
       }});
  // Seed XORs match analysis::run_sort_counting, so a job's output is
  // byte-identical to the experiment harness's run of the same backend.
  spec.phases.push_back(
      {"sort", [result, b, seed](JobContext& ctx) {
         Machine& m = ctx.machine;
         switch (b) {
           case SortBackend::kGnu: {
             result->output = result->input;
             sort::gnu_like_sort(m,
                                 std::span<std::uint64_t>(result->output));
             break;
           }
           case SortBackend::kNMsort: {
             result->output.assign(result->input.size(), 0);
             sort::NMSortOptions opt;
             opt.seed = seed ^ 0x9e3779b97f4a7c15ULL;
             sort::nm_sort_into(
                 m, std::span<const std::uint64_t>(result->input),
                 std::span<std::uint64_t>(result->output), opt);
             break;
           }
           case SortBackend::kScratchpadSeq: {
             result->output = result->input;
             sort::ScratchpadSortOptions opt;
             opt.seed = seed ^ 0x517cc1b727220a95ULL;
             sort::scratchpad_sort(m,
                                   std::span<std::uint64_t>(result->output),
                                   opt);
             break;
           }
           case SortBackend::kScratchpadPar: {
             result->output = result->input;
             sort::ParallelScratchpadSortOptions opt;
             opt.seed = seed ^ 0x2545f4914f6cdd1dULL;
             sort::parallel_scratchpad_sort(
                 m, std::span<std::uint64_t>(result->output), opt);
             break;
           }
           case SortBackend::kWriteEff: {
             result->output.assign(result->input.size(), 0);
             sort::WESortOptions opt;
             opt.seed = seed ^ 0x9e3779b97f4a7c15ULL;
             sort::we_sort_into(
                 m, std::span<const std::uint64_t>(result->input),
                 std::span<std::uint64_t>(result->output), opt);
             break;
           }
         }
       }});
  spec.phases.push_back(
      {"check", [result](JobContext&) {
         result->verified =
             is_sorted_permutation(result->input, result->output);
       }});
  return spec;
}

JobSpec make_kmeans_job(std::string tenant, std::string name, std::size_t n,
                        std::size_t dims, std::size_t k, std::uint64_t seed,
                        std::shared_ptr<KMeansJobResult> result) {
  JobSpec spec;
  spec.tenant = std::move(tenant);
  spec.name = std::move(name);
  spec.phases.push_back(
      {"gen", [result, n, dims, k, seed](JobContext&) {
         result->points = kmeans::make_blobs(n, dims, k, seed);
       }});
  spec.phases.push_back(
      {"cluster", [result, dims, k, seed](JobContext& ctx) {
         kmeans::KMeansOptions opt;
         opt.k = k;
         opt.dims = dims;
         opt.seed = seed;
         result->result = kmeans::kmeans_staged(
             ctx.machine, std::span<const double>(result->points), opt);
       }});
  return spec;
}

}  // namespace tlm::server
