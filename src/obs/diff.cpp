#include "obs/diff.hpp"

#include <cmath>
#include <map>
#include <sstream>

#include "scratchpad/counters.hpp"

namespace tlm::obs {

namespace {

// Leaf kinds decide how a numeric difference is interpreted.
enum class LeafKind { Cost, Wall, Context };

bool ends_with(std::string_view s, std::string_view suffix) {
  return s.size() >= suffix.size() &&
         s.substr(s.size() - suffix.size()) == suffix;
}

std::string_view last_segment(std::string_view path) {
  const auto dot = path.rfind('.');
  return dot == std::string_view::npos ? path : path.substr(dot + 1);
}

LeafKind classify(std::string_view path) {
  const std::string_view leaf = last_segment(path);
  if (leaf == "wall_seconds" || leaf == "host_seconds") return LeafKind::Wall;
  // Gauges derived from host timings: ratios and rates, not modeled costs.
  for (const std::string_view k :
       {"trace.capture_slowdown_ram", "trace.capture_slowdown_mapped",
        "racecheck.seconds_per_mop"})
    if (ends_with(path, k)) return LeafKind::Wall;
  if (path.find(".config.") != std::string_view::npos ||
      path.find("params.") != std::string_view::npos ||
      leaf == "schema_version" || leaf == "line_bytes")
    return LeafKind::Context;
  // Cost-like counters and modeled times: more is worse.
  static constexpr std::string_view kExact[] = {
      "seconds",  "bytes",   "blocks",     "bursts",  "accesses",
      "events",   "reads",   "writes",     "fills",   "writebacks",
      "messages", "misses",  "row_misses", "lines",   "descriptors",
      "loads",    "stores",  "far_s",      "near_s",  "compute_s"};
  for (const std::string_view k : kExact)
    if (leaf == k) return LeafKind::Cost;
  if (ends_with(leaf, "_bytes") || ends_with(leaf, "_blocks") ||
      ends_with(leaf, "_bursts") || ends_with(leaf, "_accesses") ||
      ends_with(leaf, "_misses") || ends_with(leaf, "_seconds") ||
      ends_with(leaf, "_s"))
    return LeafKind::Cost;
  // Named metric counters are costs by convention.
  if (path.find("metrics.counters.") != std::string_view::npos)
    return LeafKind::Cost;
  return LeafKind::Context;
}

// Fault-injection leaves ("faults.*", "retries.*", "degrade.*", injected
// stall counters/times). These sections postdate many checked-in baselines,
// so a side that lacks one is read as "all zero" rather than as a schema
// drift: the comparison still runs (a chaos baseline with nonzero faults
// against a clean run still diffs), but absence alone is never a failure.
bool is_fault_leaf(std::string_view path) {
  if (path.find("faults.") != std::string_view::npos ||
      path.find("retries.") != std::string_view::npos ||
      path.find("degrade.") != std::string_view::npos)
    return true;
  const std::string_view leaf = last_segment(path);
  return leaf == "stall_s" || leaf == "stalls";
}

// Read/write split leaves (the ω model's directional counters). They
// postdate many checked-in baselines, and — unlike the fault leaves — a
// side that lacks them carries no information of its own: the combined
// counters they split still compare leaf-for-leaf. So absence on either
// side skips the leaf entirely rather than reading it as zero.
// Deliberately the twins of the combined counters only, not a *_bytes
// suffix rule: the byte splits (far_read_bytes & co.) predate ω, exist in
// every old baseline, and must keep hard missing-key semantics.
bool is_split_leaf(std::string_view path) {
  const std::string_view leaf = last_segment(path);
#define TLM_X(combined, read, write) \
  if (leaf == #read || leaf == #write) return true;
  TLM_PHASE_COMBINED(TLM_X)
#undef TLM_X
  return false;
}

void flatten(const Json& j, const std::string& prefix,
             std::map<std::string, double>& out) {
  if (j.is_number()) {
    out.emplace(prefix, j.f64());
    return;
  }
  if (j.is_object()) {
    for (const auto& [k, v] : j.obj())
      flatten(v, prefix.empty() ? k : prefix + "." + k, out);
    return;
  }
  if (j.is_array()) {
    const auto& a = j.arr();
    for (std::size_t i = 0; i < a.size(); ++i) {
      // Key records by their "name" so reordering does not misalign them.
      std::string key;
      if (a[i].is_object() && a[i].contains("name") &&
          a[i].at("name").is_string())
        key = prefix + "[" + a[i].at("name").str() + "]";
      else
        key = prefix + "[" + std::to_string(i) + "]";
      flatten(a[i], key, out);
    }
  }
  // booleans/strings/null: not comparable as metrics; strings that matter
  // (schema, names) are handled structurally by the caller.
}

}  // namespace

DiffReport diff_reports(const Json& baseline, const Json& current,
                        const DiffOptions& opt) {
  std::map<std::string, double> base, cur;
  flatten(baseline, "", base);
  flatten(current, "", cur);

  DiffReport out;
  for (const auto& [path, bval] : base) {
    const LeafKind kind = classify(path);
    if (kind == LeafKind::Wall) continue;
    const auto it = cur.find(path);
    if (it == cur.end() && is_split_leaf(path)) continue;
    if (it == cur.end() && !is_fault_leaf(path)) {
      if (kind == LeafKind::Cost)
        out.missing_in_current.push_back(path);
      else
        out.context_mismatches.push_back(path + ": " + std::to_string(bval) +
                                         " vs missing");
      continue;
    }
    const double cval = it == cur.end() ? 0.0 : it->second;
    if (kind == LeafKind::Context) {
      if (std::abs(cval - bval) > opt.abs_epsilon)
        out.context_mismatches.push_back(path + ": " + std::to_string(bval) +
                                         " vs " + std::to_string(cval));
      continue;
    }
    ++out.leaves_compared;
    if (std::abs(cval - bval) <= opt.abs_epsilon) continue;
    DiffEntry e;
    e.path = path;
    e.baseline = bval;
    e.current = cval;
    e.delta_rel = bval != 0 ? (cval - bval) / std::abs(bval)
                            : (cval > 0 ? 1.0 : -1.0);
    e.regression = e.delta_rel > opt.threshold;
    e.improvement = e.delta_rel < -opt.threshold;
    out.entries.push_back(std::move(e));
  }
  for (const auto& [path, cval] : cur) {
    if (base.count(path)) continue;
    const LeafKind kind = classify(path);
    if (kind == LeafKind::Wall) continue;
    if (is_fault_leaf(path)) {
      // Baseline predates the fault section: read it as zero. A zero
      // current value is a non-event; a nonzero cost is a real change, and
      // a nonzero context leaf is listed like any other new one.
      if (std::abs(cval) <= opt.abs_epsilon) continue;
      if (kind == LeafKind::Context) {
        out.added_in_current.push_back(path);
        continue;
      }
      ++out.leaves_compared;
      DiffEntry e;
      e.path = path;
      e.baseline = 0;
      e.current = cval;
      e.delta_rel = cval > 0 ? 1.0 : -1.0;
      e.regression = e.delta_rel > opt.threshold;
      e.improvement = e.delta_rel < -opt.threshold;
      out.entries.push_back(std::move(e));
      continue;
    }
    out.added_in_current.push_back(path);
  }
  return out;
}

std::string DiffReport::format(bool verbose) const {
  std::ostringstream os;
  os << "compared " << leaves_compared << " cost leaves: " << regressions()
     << " regression(s), " << entries.size() << " changed\n";
  for (const auto& e : entries) {
    if (!verbose && !e.regression && !e.improvement) continue;
    const char* tag = e.regression    ? "REGRESSION"
                      : e.improvement ? "improved  "
                                      : "changed   ";
    os << "  " << tag << "  " << e.path << ": " << e.baseline << " -> "
       << e.current << " (" << (e.delta_rel >= 0 ? "+" : "")
       << e.delta_rel * 100.0 << "%)\n";
  }
  for (const auto& p : missing_in_current)
    os << "  missing in current: " << p << "\n";
  for (const auto& p : added_in_current)
    os << "  new in current:     " << p << "\n";
  for (const auto& m : context_mismatches)
    os << "  context mismatch (runs may not be comparable): " << m << "\n";
  return os.str();
}

}  // namespace tlm::obs
