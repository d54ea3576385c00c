#include "obs/report.hpp"

#include <algorithm>
#include <cmath>
#include <set>

#include "util/json.hpp"

namespace wasp::obs::report {

namespace {

using util::json::Value;

[[noreturn]] void bad(const std::string& path, const std::string& what) {
  throw util::SimError(path + ": " + what);
}

const Value& require(const std::string& path, const Value& v,
                     const std::string& key, Value::Type type,
                     const char* what) {
  const Value* m = v.get(key);
  if (m == nullptr || m->type != type) {
    bad(path, std::string("missing or mistyped \"") + key + "\" (" + what +
                  ")");
  }
  return *m;
}

}  // namespace

ManifestView load_manifest(const std::string& path) {
  Value root;
  try {
    root = util::json::parse_file(path);
  } catch (const std::exception& e) {
    throw util::SimError(std::string("manifest: ") + e.what());
  }
  if (!root.is_object()) bad(path, "root is not an object");
  const std::string schema = root.str_or("schema", "");
  if (schema != RunManifest::kSchema) {
    bad(path, schema.empty()
                  ? std::string("not a run manifest (no \"schema\" field)")
                  : "unsupported schema \"" + schema + "\" (want " +
                        RunManifest::kSchema + ")");
  }

  ManifestView m;
  m.path = path;
  m.tool = root.str_or("tool", "");
  m.git_sha = root.str_or("git_sha", "unknown");
  m.timestamp = root.str_or("timestamp", "");
  m.backend = root.str_or("backend", "memory");
  m.jobs = static_cast<int>(root.num_or("jobs", 1));
  m.hardware_threads =
      static_cast<unsigned>(root.num_or("hardware_threads", 0));
  m.wall_seconds = root.num_or("wall_seconds", 0.0);
  m.metrics.emplace("wall_seconds", m.wall_seconds);

  const Value& counters =
      require(path, root, "counters", Value::Type::kObject, "counter map");
  for (const auto& [name, v] : counters.obj) {
    if (!v.is_number()) bad(path, "counter \"" + name + "\" is not numeric");
    m.metrics.emplace(name, v.number);
  }
  if (const Value* gauges = root.get("gauges");
      gauges != nullptr && gauges->is_object()) {
    for (const auto& [name, v] : gauges->obj) {
      if (v.is_number()) m.metrics.emplace(name, v.number);
    }
  }
  const Value& hists = require(path, root, "histograms",
                               Value::Type::kObject, "histogram map");
  for (const auto& [name, v] : hists.obj) {
    if (!v.is_object()) {
      bad(path, "histogram \"" + name + "\" is not an object");
    }
    m.metrics.emplace(name + ".count", v.num_or("count", 0));
    m.metrics.emplace(name + ".sum", v.num_or("sum", 0));
  }

  const Value& spans =
      require(path, root, "spans", Value::Type::kArray, "span table");
  for (const Value& s : spans.arr) {
    if (!s.is_object() || s.get("name") == nullptr ||
        !s.get("name")->is_string()) {
      bad(path, "span entry without a string \"name\"");
    }
    SpanAgg agg;
    agg.name = s.get("name")->str;
    agg.count = s.u64_or("count", 0);
    agg.total_ns = s.u64_or("total_ns", 0);
    agg.self_ns = s.u64_or("self_ns", 0);
    m.metrics.emplace("span." + agg.name + ".count",
                      static_cast<double>(agg.count));
    m.metrics.emplace("span." + agg.name + ".total_ns",
                      static_cast<double>(agg.total_ns));
    m.metrics.emplace("span." + agg.name + ".self_ns",
                      static_cast<double>(agg.self_ns));
    m.spans.push_back(std::move(agg));
  }
  return m;
}

std::vector<SpanAgg> aggregate_chrome_trace(const std::string& path) {
  Value root;
  try {
    root = util::json::parse_file(path);
  } catch (const std::exception& e) {
    throw util::SimError(std::string("trace: ") + e.what());
  }
  const Value* events =
      root.is_object() ? root.get("traceEvents") : nullptr;
  if (events == nullptr || !events->is_array()) {
    bad(path, "not a Chrome trace (no traceEvents array)");
  }

  struct Open {
    std::string name;
    double t0_us;
    double child_us = 0.0;
  };
  std::map<std::pair<long long, long long>, std::vector<Open>> stacks;
  std::map<std::string, SpanAgg> by_name;
  for (const Value& e : events->arr) {
    if (!e.is_object()) continue;
    const std::string ph = e.str_or("ph", "");
    if (ph != "B" && ph != "E") continue;
    const Value* name = e.get("name");
    const Value* ts = e.get("ts");
    if (name == nullptr || !name->is_string() || ts == nullptr ||
        !ts->is_number()) {
      continue;
    }
    auto& stack = stacks[{static_cast<long long>(e.num_or("pid", 0)),
                          static_cast<long long>(e.num_or("tid", 0))}];
    if (ph == "B") {
      stack.push_back({name->str, ts->number});
      continue;
    }
    if (stack.empty() || stack.back().name != name->str) continue;
    const Open top = stack.back();
    stack.pop_back();
    const double dur_us = ts->number - top.t0_us;
    SpanAgg& agg = by_name[top.name];
    agg.count += 1;
    agg.total_ns += static_cast<std::uint64_t>(std::llround(dur_us * 1e3));
    const double self_us = std::max(0.0, dur_us - top.child_us);
    agg.self_ns += static_cast<std::uint64_t>(std::llround(self_us * 1e3));
    if (!stack.empty()) stack.back().child_us += dur_us;
  }
  std::vector<SpanAgg> out;
  out.reserve(by_name.size());
  for (auto& [name, agg] : by_name) {
    agg.name = name;
    out.push_back(std::move(agg));
  }
  return out;
}

std::vector<MetricDelta> diff_manifests(const ManifestView& a,
                                        const ManifestView& b,
                                        const DiffOptions& opts) {
  std::set<std::string> names;
  for (const auto& [n, v] : a.metrics) names.insert(n);
  for (const auto& [n, v] : b.metrics) names.insert(n);

  auto tolerance_for = [&](const std::string& name) {
    double tol = opts.tolerance;
    std::size_t best = 0;
    for (const auto& [prefix, t] : opts.overrides) {
      if (name.rfind(prefix, 0) == 0 && prefix.size() >= best) {
        best = prefix.size();
        tol = t;
      }
    }
    return tol;
  };

  std::vector<MetricDelta> out;
  out.reserve(names.size());
  for (const std::string& name : names) {
    MetricDelta d;
    d.name = name;
    const auto ia = a.metrics.find(name);
    const auto ib = b.metrics.find(name);
    d.a = ia != a.metrics.end() ? ia->second : 0.0;
    d.b = ib != b.metrics.end() ? ib->second : 0.0;
    d.rel = d.a == d.b ? 0.0
            : d.a == 0.0 ? 1.0
                         : (d.b - d.a) / std::abs(d.a);
    d.deterministic = deterministic_metric(name);
    if (d.deterministic) {
      d.tolerance = 0.0;
      d.breach = d.a != d.b;
    } else {
      d.tolerance = tolerance_for(name);
      d.breach = d.tolerance >= 0.0 && std::abs(d.rel) > d.tolerance;
    }
    out.push_back(std::move(d));
  }
  return out;
}

}  // namespace wasp::obs::report
