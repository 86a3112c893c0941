#include "server/jobs.hpp"

#include "common/rng.hpp"
#include "common/sorted_check.hpp"

namespace tlm::server {

JobSpec make_sort_job(std::string tenant, std::string name, sort::Algorithm b,
                      std::size_t n, std::uint64_t seed,
                      std::shared_ptr<SortJobResult> result) {
  JobSpec spec;
  spec.tenant = std::move(tenant);
  spec.name = std::move(name);
  spec.phases.push_back(
      {"gen", [result, n, seed](JobContext&) {
         result->input = random_keys(n, seed);
       }});
  spec.phases.push_back(
      {"sort", [result, b, seed](JobContext& ctx) {
         result->output.assign(result->input.size(), 0);
         sort::sort_into(ctx.machine, b, result->input, result->output, seed);
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
