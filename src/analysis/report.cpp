#include "analysis/report.hpp"

#include <fstream>
#include <sstream>

#include "common/assert.hpp"

namespace tlm::analysis {

std::vector<SweepRow> run_sweep(const SweepGrid& grid) {
  std::vector<SweepRow> rows;
  for (Algorithm a : grid.algorithms) {
    for (double rho : grid.rhos) {
      for (std::size_t cores : grid.cores) {
        for (std::uint64_t n : grid.ns) {
          const TwoLevelConfig cfg =
              scaled_counting_config(rho, cores, grid.near_capacity);
          const SortRun r = run_sort_counting(cfg, a, n, grid.seed);
          SweepRow row{};
          row.algorithm = a;
          row.rho = rho;
          row.cores = cores;
          row.n = n;
          row.verified = r.verified;
          row.model_seconds = r.modeled_seconds;
          row.far_bytes = r.counting.total.far_bytes();
          row.near_bytes = r.counting.total.near_bytes();
          row.far_blocks = r.counting.total.far_blocks();
          row.near_blocks = r.counting.total.near_blocks();
          row.far_bursts = r.counting.total.far_bursts();
          row.near_bursts = r.counting.total.near_bursts();
          row.compute_ops = r.counting.total.compute_ops_total();
          rows.push_back(row);
        }
      }
    }
  }
  return rows;
}

std::string to_csv(const std::vector<SweepRow>& rows) {
  std::ostringstream os;
  os << "algorithm,rho,cores,n,verified,model_seconds,far_bytes,near_bytes,"
        "far_blocks,near_blocks,far_bursts,near_bursts,compute_ops\n";
  for (const SweepRow& r : rows) {
    os << '"' << to_string(r.algorithm) << "\"," << r.rho << ',' << r.cores
       << ',' << r.n << ',' << (r.verified ? 1 : 0) << ',' << r.model_seconds
       << ',' << r.far_bytes << ',' << r.near_bytes << ',' << r.far_blocks
       << ',' << r.near_blocks << ',' << r.far_bursts << ',' << r.near_bursts
       << ',' << r.compute_ops << '\n';
  }
  return os.str();
}

obs::RunReport to_run_report(const SweepGrid& grid,
                             const std::vector<SweepRow>& rows) {
  obs::RunReport report("sweep_matrix");
  report.params["near_capacity"] = grid.near_capacity;
  report.params["seed"] = grid.seed;
  for (const SweepRow& r : rows) {
    std::ostringstream name;
    name << to_string(r.algorithm) << ".rho" << r.rho << ".cores" << r.cores
         << ".n" << r.n;
    obs::RunRecord& rec = report.add_run(name.str());
    rec.counters["far_bytes"] = r.far_bytes;
    rec.counters["near_bytes"] = r.near_bytes;
    rec.counters["far_blocks"] = r.far_blocks;
    rec.counters["near_blocks"] = r.near_blocks;
    rec.counters["far_bursts"] = r.far_bursts;
    rec.counters["near_bursts"] = r.near_bursts;
    rec.gauges["model_seconds"] = r.model_seconds;
    rec.gauges["compute_ops"] = r.compute_ops;
    rec.gauges["verified"] = r.verified ? 1.0 : 0.0;
  }
  return report;
}

std::size_t write_sweep_csv(const SweepGrid& grid, const std::string& path) {
  const std::vector<SweepRow> rows = run_sweep(grid);
  std::ofstream os(path);
  TLM_REQUIRE(os.is_open(), "cannot open CSV output: " + path);
  os << to_csv(rows);
  TLM_REQUIRE(os.good(), "CSV write failed: " + path);
  return rows.size();
}

}  // namespace tlm::analysis
