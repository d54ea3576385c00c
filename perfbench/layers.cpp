#include "layers.hpp"

#include <algorithm>
#include <atomic>
#include <cctype>
#include <chrono>
#include <cstdio>
#include <ostream>

namespace perfbench {
namespace {

std::atomic<bool> g_timing{false};

double get(const Sample& s, const std::string& key) {
  const auto it = s.find(key);
  return it == s.end() ? 0.0 : it->second;
}

/// Sets s[name] = num / den when the base `den` was measured at all.
void set_ratio(Sample& s, const std::string& name, double num,
               const std::string& den_key, double den_scale = 1.0) {
  if (s.count(den_key) == 0) return;
  const double den = get(s, den_key) * den_scale;
  s[name] = den > 0 ? num / den : 0.0;
}

std::string fixed(double v, int digits) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", digits, v);
  return buf;
}

}  // namespace

void accumulate(Sample& into, const Sample& from) {
  for (const auto& [k, v] : from) into[k] += v;
}

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void set_timing(bool on) {
  g_timing.store(on, std::memory_order_relaxed);
  wasp::obs::Registry::set_timing_enabled(on);
}

void set_spans(bool on) { wasp::obs::SpanTracer::instance().set_enabled(on); }

bool timing() { return g_timing.load(std::memory_order_relaxed); }

Layer::Layer(Sample& sample, const char* metric, const char* span)
    : sample_(sample),
      metric_(metric),
      t0_(timing() ? now_s() : 0.0),
      span_(span) {}

Layer::~Layer() {
  if (t0_ != 0.0) sample_[metric_] += now_s() - t0_;
}

Sample registry_sample(const wasp::obs::Snapshot& d) {
  Sample s;
  const double hits = static_cast<double>(d.value("engine.frame_pool.hits"));
  const double misses =
      static_cast<double>(d.value("engine.frame_pool.misses"));
  if (hits + misses > 0) {
    s["sim.bucket_scan_s"] = d.value("engine.bucket_scan_ns") * 1e-9;
    s["sim.frame_allocs"] = hits + misses;
    s["sim.frame_pool_hits"] = hits;
  }
  if (d.value("analyze.rows") > 0) {
    for (const char* pass :
         {"scan", "merge", "resolve", "unions", "phases", "timeline"}) {
      s[std::string("analysis.") + pass + "_s"] =
          d.value(std::string("analyze.") + pass + "_ns") * 1e-9;
    }
  }
  return s;
}

void derive_ratios(Sample& s, int workers) {
  set_ratio(s, "runtime.worker_busy_ratio", get(s, "runtime.scenario_busy_s"),
            "runtime.wave_s", workers);
  set_ratio(s, "sim.events_per_s", get(s, "sim.events"), "sim.run_s");
  set_ratio(s, "sim.frame_pool_hit_ratio", get(s, "sim.frame_pool_hits"),
            "sim.frame_allocs");
  set_ratio(s, "analysis.rows_per_s", get(s, "trace.rows"),
            "analysis.analyze_s");
  set_ratio(s, "analysis.cache_hit_ratio", get(s, "analysis.cache_hits"),
            "analysis.chunk_requests");
  set_ratio(s, "analysis.prefetch_hit_ratio", get(s, "analysis.prefetch_hits"),
            "analysis.prefetch_issued");
  set_ratio(s, "analysis.compressed_ratio",
            get(s, "analysis.spill_bytes_written"), "analysis.spill_raw_bytes");
  std::vector<std::string> tiers;
  for (const auto& [k, v] : s) {
    const std::string suffix = ".cache_hits";
    if (k.rfind("fs.", 0) == 0 && k.size() > suffix.size() &&
        k.compare(k.size() - suffix.size(), suffix.size(), suffix) == 0) {
      tiers.push_back(k.substr(0, k.size() - suffix.size()));
    }
  }
  for (const std::string& t : tiers) {
    set_ratio(s, t + ".cache_hit_ratio", get(s, t + ".cache_hits"),
              t + ".data_ops");
  }
}

std::string iface_rows_metric(wasp::trace::Iface iface) {
  std::string name = "io.rows.";
  for (const char* c = wasp::trace::to_string(iface); *c != '\0'; ++c) {
    if (std::isalnum(static_cast<unsigned char>(*c))) {
      name += static_cast<char>(std::tolower(static_cast<unsigned char>(*c)));
    }
  }
  return name;
}

const std::vector<MetricDef>& per_layer_metrics() {
  static const std::vector<MetricDef> defs = [] {
    std::vector<MetricDef> d = {
        {"runtime.simulation_s", "s", ""},
        {"runtime.stage_s", "s", ""},
        {"runtime.teardown_s", "s", ""},
        {"runtime.wave_s", "s", ""},
        {"runtime.queue_wait_s", "s", ""},
        {"runtime.scenario_max_s", "s", ""},
        {"runtime.worker_busy_ratio", "ratio", "workers x runtime.wave_s"},
        {"pattern.compile_s", "s", ""},
        {"pattern.spawn_s", "s", ""},
        {"sim.run_s", "s", ""},
        {"sim.events", "count", ""},
        {"sim.events_per_s", "1/s", "sim.events / sim.run_s"},
        {"sim.bucket_scan_s", "s", ""},
        {"sim.frame_allocs", "count", ""},
        {"sim.frame_pool_hit_ratio", "ratio", "sim.frame_allocs"},
        {"workflow.run_s", "s", ""},
        {"io.data_ops", "count", ""},
        {"io.meta_ops", "count", ""},
        {"io.bytes", "bytes", ""},
    };
    for (int i = 0; i < kNumIfaces; ++i) {
      d.push_back(
          {iface_rows_metric(static_cast<wasp::trace::Iface>(i)), "count", ""});
    }
    for (const char* tier : {"gpfs", "shm"}) {
      const std::string p = std::string("fs.") + tier + ".";
      for (const char* m : {"meta_ops", "data_ops", "cache_hits"}) {
        d.push_back({p + m, "count", ""});
      }
      d.push_back({p + "bytes_read", "bytes", ""});
      d.push_back({p + "bytes_written", "bytes", ""});
      d.push_back({p + "cache_hit_ratio", "ratio", p + "data_ops"});
    }
    const std::vector<MetricDef> tail = {
        {"trace.rows", "count", ""},
        {"trace.log_write_s", "s", ""},
        {"trace.log_bytes", "bytes", ""},
        {"trace.log_read_s", "s", ""},
        {"analysis.analyze_s", "s", ""},
        {"analysis.rows_per_s", "1/s", "trace.rows / analysis.analyze_s"},
        {"analysis.scan_s", "s", ""},
        {"analysis.merge_s", "s", ""},
        {"analysis.resolve_s", "s", ""},
        {"analysis.unions_s", "s", ""},
        {"analysis.phases_s", "s", ""},
        {"analysis.timeline_s", "s", ""},
        {"analysis.spill_append_s", "s", ""},
        {"analysis.spill_finalize_s", "s", ""},
        {"analysis.chunk_loads", "count", ""},
        {"analysis.chunk_requests", "count", ""},
        {"analysis.evictions", "count", ""},
        {"analysis.cache_hit_ratio", "ratio", "analysis.chunk_requests"},
        {"analysis.prefetch_issued", "count", ""},
        {"analysis.prefetch_hit_ratio", "ratio", "analysis.prefetch_issued"},
        {"analysis.spill_raw_bytes", "bytes", ""},
        {"analysis.spill_bytes_written", "bytes", ""},
        {"analysis.compressed_ratio", "ratio", "analysis.spill_raw_bytes"},
        {"analysis.spill_bytes_read", "bytes", ""},
        {"core.characterize_s", "s", ""},
        {"advisor.evaluate_s", "s", ""},
        {"advisor.configure_s", "s", ""},
        {"advisor.recommendations", "count", ""},
    };
    d.insert(d.end(), tail.begin(), tail.end());
    return d;
  }();
  return defs;
}

void print_self_times(std::ostream& os, int workers) {
  const auto& tracer = wasp::obs::SpanTracer::instance();
  const std::vector<wasp::obs::SpanAgg> aggs = tracer.aggregate();
  const auto find = [&aggs](const char* name) -> const wasp::obs::SpanAgg* {
    for (const auto& a : aggs) {
      if (a.name == name) return &a;
    }
    return nullptr;
  };
  const wasp::obs::SpanAgg* iter = find("iteration");
  if (iter == nullptr || iter->count == 0) {
    os << "self time: no traced iteration\n";
    return;
  }
  if (tracer.dropped_events() != 0) {
    os << "self time: " << tracer.dropped_events()
       << " span events dropped at the buffer cap; totals are partial\n";
  }
  const wasp::obs::SpanAgg* wave = find("runtime.wave");
  const double n = static_cast<double>(iter->count);
  const double per_iter = 1e-9 / n;
  const double iter_s = iter->total_ns * per_iter;

  struct Row {
    std::string name;
    std::uint64_t count;
    double total_s;
    double share_s;
  };
  std::vector<Row> rows;
  double wave_content_s = 0.0;
  for (const auto& a : aggs) {
    if (&a == iter || &a == wave) continue;
    // Between its two waves the scenario iteration calls only the
    // advisor's configure, on the main thread; every other span ran inside
    // a wave.
    const bool in_wave = wave != nullptr && a.name != "advisor.configure";
    const double self_s = a.self_ns * per_iter;
    if (in_wave) wave_content_s += self_s;
    rows.push_back({a.name, a.count, a.total_ns * per_iter,
                    in_wave ? self_s / workers : self_s});
  }
  if (wave != nullptr) {
    rows.push_back({"(runner idle)", wave->count, 0.0,
                    wave->total_ns * per_iter - wave_content_s / workers});
  }
  rows.push_back({"(unattributed)", iter->count, 0.0,
                  iter->self_ns * per_iter});
  std::sort(rows.begin(), rows.end(), [](const Row& a, const Row& b) {
    return a.share_s > b.share_s;
  });

  os << "self time per traced iteration (SpanTracer::aggregate, "
     << iter->count << " iterations";
  if (wave != nullptr) os << ", spans in waves / " << workers << " workers";
  os << "; program spans such as engine.run, analyze.*, pool.task and "
        "spill.load under their own names):\n";
  double sum_s = 0.0;
  for (const Row& r : rows) {
    sum_s += r.share_s;
    const std::size_t pad = r.name.size() < 26 ? 26 - r.name.size() : 1;
    os << "  " << r.name << std::string(pad, ' ') << fixed(r.share_s, 6)
       << " s  " << fixed(100.0 * r.share_s / iter_s, 2)
       << " %  (spans " << r.count << ", total " << fixed(r.total_s, 6)
       << " s)\n";
  }
  os << "  sum of rows " << fixed(sum_s, 6) << " s; iteration "
     << fixed(iter_s, 6) << " s; unattributed remainder "
     << fixed(iter->self_ns * per_iter, 6) << " s\n";
  if (sum_s - iter_s > 1e-6) {
    os << "  helper-thread span time outside waves (overlaps the main thread): "
       << fixed(sum_s - iter_s, 6) << " s\n";
  }
}

}  // namespace perfbench
