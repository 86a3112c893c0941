#include "obs/diff.hpp"

#include <map>
#include <sstream>

namespace tlm::obs {

namespace {

void flatten(const Json& j, const std::string& prefix,
             std::map<std::string, const Json*>& out) {
  if (j.is_number()) {
    out.emplace(prefix, &j);
    return;
  }
  if (j.is_object()) {
    // A `host` object holds host-measured values: never compared.
    for (const auto& [k, v] : j.obj())
      if (k != "host") flatten(v, prefix.empty() ? k : prefix + "." + k, out);
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

DiffReport diff_reports(const Json& baseline, const Json& current) {
  std::map<std::string, const Json*> base, cur;
  flatten(baseline, "", base);
  flatten(current, "", cur);

  DiffReport out;
  for (const auto& [path, bval] : base) {
    const auto it = cur.find(path);
    if (it == cur.end()) {
      out.missing_in_current.push_back(path);
      continue;
    }
    ++out.leaves_compared;
    if (*it->second == *bval) continue;
    out.entries.push_back({path, bval->f64(), it->second->f64()});
  }
  for (const auto& [path, cval] : cur)
    if (!base.count(path)) out.added_in_current.push_back(path);
  return out;
}

std::string DiffReport::format(bool verbose) const {
  std::ostringstream os;
  os << "compared " << leaves_compared << " leaves (host sections skipped): "
     << entries.size() << " changed, " << missing_in_current.size()
     << " vanished, " << added_in_current.size() << " new in current\n";
  for (const auto& e : entries)
    os << "  changed:            " << e.path << ": "
       << Json(e.baseline).dump(-1) << " -> " << Json(e.current).dump(-1)
       << "\n";
  for (const auto& p : missing_in_current)
    os << "  missing in current: " << p << "\n";
  if (verbose)
    for (const auto& p : added_in_current)
      os << "  new in current:     " << p << "\n";
  return os.str();
}

}  // namespace tlm::obs
