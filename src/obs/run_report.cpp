#include "obs/run_report.hpp"

#include <optional>
#include <stdexcept>

namespace tlm::obs {

namespace {

void read_leaf(const Json& j, const char* key, std::uint64_t& v) {
  v = j.get_u64(key, 0);
}
void read_leaf(const Json& j, const char* key, double& v) {
  v = j.get_f64(key, 0);
}

// Every stored field, plus the derived combined counters under their own
// names.
Json phase_to_json(const PhaseStats& p, bool with_name) {
  Json j = Json::object();
  if (with_name) j["name"] = p.name;
#define TLM_X(kind, field, fold) j[#field] = p.field();
  TLM_PHASE_STATS(TLM_X)
#undef TLM_X
#define TLM_X(combined, read, write) j[#combined] = p.combined();
  TLM_PHASE_COMBINED(TLM_X)
#undef TLM_X
  return j;
}

Json config_to_json(const TwoLevelConfig& c) {
  Json j = Json::object();
  j["near_capacity"] = c.near_capacity;
  j["block_bytes"] = c.block_bytes;
  j["cache_bytes"] = c.cache_bytes;
  j["rho"] = c.rho;
  j["far_bw"] = c.far_bw;
  j["near_latency"] = c.near_latency;
  j["far_latency"] = c.far_latency;
  j["core_rate"] = c.core_rate;
  j["threads"] = static_cast<std::uint64_t>(c.threads);
  j["overlap_dma"] = c.overlap_dma;
  j["far_write_cost"] = c.far_write_cost;
  return j;
}

template <typename V>
Json map_to_json(const std::map<std::string, V>& m) {
  Json j = Json::object();
  for (const auto& [k, v] : m) j[k] = v;
  return j;
}

Json sim_to_json(const sim::SimReport& r) {
  Json j = Json::object();
  j["seconds"] = r.seconds;
  j["events"] = r.events;
#define TLM_X(section, key, source) j[#section][#key] = source;
  TLM_SIM_STATS(TLM_X)
#undef TLM_X
  return j;
}

}  // namespace

// A combined counter is derived from its read/write twins on load, so a
// phase that has one without both twins (a report from before the split)
// would silently load as zero; refuse it instead.
PhaseStats phase_from_json(const Json& j) {
#define TLM_X(combined, read, write)                                       \
  if (j.contains(#combined) && !(j.contains(#read) && j.contains(#write))) \
    throw std::runtime_error("run report counting section has '" #combined \
                             "' but not '" #read "' and '" #write          \
                             "': it predates the read/write split");
  TLM_PHASE_COMBINED(TLM_X)
#undef TLM_X
  PhaseStats p;
  p.name = j.get_str("name", "");
#define TLM_X(kind, field, fold) read_leaf(j, #field, p.field##_);
  TLM_PHASE_STATS(TLM_X)
#undef TLM_X
  return p;
}

void RunRecord::set_config(const TwoLevelConfig& cfg) {
  config = cfg;
  has_config = true;
}

void RunRecord::set_counting(const MachineStats& st, std::uint64_t line) {
  counting = st;
  line_bytes = line ? line : 64;
  has_counting = true;
  for (std::size_t i = 0;
       i < st.phases.size() && i < st.phase_host_seconds.size(); ++i)
    host["phase_seconds." + st.phases[i].name] += st.phase_host_seconds[i];
}

void RunRecord::set_sim(const sim::SimReport& r) {
  sim = r;
  has_sim = true;
}

RunRecord& RunReport::add_run(std::string name) {
  runs.emplace_back();
  runs.back().name = std::move(name);
  return runs.back();
}

Json RunReport::to_json() const {
  Json j = Json::object();
  j["schema"] = kSchemaName;
  j["schema_version"] = kSchemaVersion;
  j["benchmark"] = benchmark;
  j["params"] = params.is_null() ? Json::object() : params;
  if (!host.empty()) j["host"] = map_to_json(host);
  Json jruns = Json::array();
  for (const RunRecord& r : runs) {
    Json jr = Json::object();
    jr["name"] = r.name;
    if (!r.host.empty()) jr["host"] = map_to_json(r.host);
    if (r.has_config) jr["config"] = config_to_json(r.config);
    if (r.has_counting) {
      Json& c = jr["counting"];
      c["line_bytes"] = r.line_bytes;
      c["far_accesses"] = r.counting.far_accesses(r.line_bytes);
      c["near_accesses"] = r.counting.near_accesses(r.line_bytes);
      c["total"] = phase_to_json(r.counting.total, /*with_name=*/false);
      Json phases = Json::array();
      for (const PhaseStats& p : r.counting.phases)
        phases.push_back(phase_to_json(p, /*with_name=*/true));
      c["phases"] = std::move(phases);
    }
    if (r.has_sim) jr["sim"] = sim_to_json(r.sim);
    if (!r.counters.empty() || !r.gauges.empty()) {
      Json& m = jr["metrics"];
      if (!r.counters.empty()) m["counters"] = map_to_json(r.counters);
      if (!r.gauges.empty()) m["gauges"] = map_to_json(r.gauges);
    }
    jruns.push_back(std::move(jr));
  }
  j["runs"] = std::move(jruns);
  return j;
}

void RunReport::write(const std::string& path) const {
  to_json().write_file(path);
}

std::vector<std::string> validate_report(const Json& j) {
  std::vector<std::string> out;
  auto need = [&](const Json& o, const char* key, const char* where,
                  auto&& pred, const char* type) -> const Json* {
    if (!o.contains(key)) {
      out.push_back(std::string(where) + ": missing required key '" + key +
                    "'");
      return nullptr;
    }
    const Json& v = o.at(key);
    if (!pred(v)) {
      out.push_back(std::string(where) + ": key '" + key + "' must be " +
                    type);
      return nullptr;
    }
    return &v;
  };
  auto is_str = [](const Json& v) { return v.is_string(); };
  auto is_num = [](const Json& v) { return v.is_number(); };
  auto is_arr = [](const Json& v) { return v.is_array(); };
  auto is_obj = [](const Json& v) { return v.is_object(); };
  // A combined counter is the sum of its read/write twins; where a report
  // carries all three and they disagree, it was edited or corrupted.
  auto leaf = [](const Json& o, const char* key) {
    return o.contains(key) && o.at(key).is_number()
               ? std::optional<std::uint64_t>(o.at(key).u64())
               : std::nullopt;
  };
  auto conserved = [&](const Json& o, const std::string& where) {
#define TLM_X(combined, read, write)                                    \
  if (const auto c = leaf(o, #combined), r = leaf(o, #read),            \
      w = leaf(o, #write);                                              \
      c && r && w && *r + *w != *c)                                     \
    out.push_back(where + ": '" #combined "' is not the sum of '" #read \
                  "' and '" #write "'");
    TLM_PHASE_COMBINED(TLM_X)
#undef TLM_X
  };
  // Every stored PhaseStats field, in the total and in each phase.
  auto phase_fields = [&](const Json& p, const std::string& where) {
#define TLM_X(kind, field, fold) \
  need(p, #field, where.c_str(), is_num, "a number");
    TLM_PHASE_STATS(TLM_X)
#undef TLM_X
    conserved(p, where);
  };
  auto host_object = [&](const Json& o, const std::string& where) {
    if (o.contains("host") && !o.at("host").is_object())
      out.push_back(where + ": 'host' must be an object");
  };

  if (!j.is_object()) {
    out.push_back("top level: not a JSON object");
    return out;
  }
  if (const Json* s = need(j, "schema", "top level", is_str, "a string"))
    if (s->str() != RunReport::kSchemaName)
      out.push_back("top level: schema is '" + s->str() + "', expected '" +
                    RunReport::kSchemaName + "'");
  if (const Json* v =
          need(j, "schema_version", "top level", is_num, "a number"))
    if (v->u64() != RunReport::kSchemaVersion)
      out.push_back("top level: unsupported schema_version " +
                    std::to_string(v->u64()));
  need(j, "benchmark", "top level", is_str, "a string");
  if (j.contains("params") && !j.at("params").is_object())
    out.push_back("top level: 'params' must be an object");
  host_object(j, "top level");

  const Json* runs = need(j, "runs", "top level", is_arr, "an array");
  if (!runs) return out;
  std::size_t i = 0;
  for (const Json& jr : runs->arr()) {
    const std::string where = "runs[" + std::to_string(i++) + "]";
    if (!jr.is_object()) {
      out.push_back(where + ": not an object");
      continue;
    }
    need(jr, "name", where.c_str(), is_str, "a string");
    host_object(jr, where);
    if (jr.contains("config") && !jr.at("config").is_object())
      out.push_back(where + ": 'config' must be an object");
    if (jr.contains("counting")) {
      const Json& c = jr.at("counting");
      if (!c.is_object()) {
        out.push_back(where + ": 'counting' must be an object");
      } else {
        const std::string cw = where + ".counting";
        need(c, "line_bytes", cw.c_str(), is_num, "a number");
        need(c, "far_accesses", cw.c_str(), is_num, "a number");
        need(c, "near_accesses", cw.c_str(), is_num, "a number");
        if (const Json* tot =
                need(c, "total", cw.c_str(), is_obj, "an object"))
          phase_fields(*tot, cw + ".total");
        if (c.contains("phases")) {
          if (!c.at("phases").is_array()) {
            out.push_back(cw + ": 'phases' must be an array");
          } else {
            std::size_t pi = 0;
            for (const Json& p : c.at("phases").arr()) {
              const std::string pw =
                  cw + ".phases[" + std::to_string(pi++) + "]";
              if (!p.is_object()) {
                out.push_back(pw + ": not an object");
                continue;
              }
              need(p, "name", pw.c_str(), is_str, "a string");
              phase_fields(p, pw);
            }
          }
        }
      }
    }
    if (jr.contains("sim")) {
      const Json& s = jr.at("sim");
      if (!s.is_object()) {
        out.push_back(where + ": 'sim' must be an object");
      } else {
        const std::string sw = where + ".sim";
        need(s, "seconds", sw.c_str(), is_num, "a number");
        need(s, "events", sw.c_str(), is_num, "a number");
        for (const char* sect : {"far", "near"})
          if (s.contains(sect) && !s.at(sect).is_object())
            out.push_back(sw + ": '" + sect + "' must be an object");
      }
    }
  }
  return out;
}

void export_stats(const StagerStats& st, RunRecord& rec) {
#define TLM_X(kind, field, metric) export_leaf(rec, metric, st.field);
  TLM_STAGER_STATS(TLM_X)
#undef TLM_X
}

void export_stats(const FaultStats& st, RunRecord& rec) {
#define TLM_X(kind, field, metric) export_leaf(rec, metric, st.field);
  TLM_FAULT_STATS(TLM_X)
#undef TLM_X
}

void export_stats(const trace::MappedLogStats& st, RunRecord& rec) {
  export_leaf(rec, "trace.capture_ops", st.ops);
  export_leaf(rec, "trace.capture_raw_ops", st.raw_ops);
  export_leaf(rec, "trace.encoded_bytes", st.encoded_bytes);
  export_leaf(rec, "trace.spill_bytes", st.file_bytes);
  export_leaf(rec, "trace.spill_chunks", st.chunks);
  export_leaf(rec, "trace.capture_bytes_per_op", st.bytes_per_op());
}

void export_stats(const trace::ReplayStats& st, RunRecord& rec) {
  export_leaf(rec, "trace.replay_ops", st.ops);
  export_leaf(rec, "trace.replay_fences", st.fences);
  export_leaf(rec, "trace.replay_recovered_threads", st.recovered_threads);
}

}  // namespace tlm::obs
