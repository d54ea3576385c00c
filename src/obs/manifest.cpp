#include "obs/manifest.hpp"

#include <cstdio>
#include <ctime>
#include <ostream>
#include <sstream>
#include <thread>

namespace wasp::obs {

namespace {

void write_json_escaped(std::ostream& os, std::string_view s) {
  os << '"';
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      os << '\\' << c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      os << ' ';  // names here are ASCII identifiers / hex SHAs
    } else {
      os << c;
    }
  }
  os << '"';
}

std::string json_num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  return buf;
}

/// `"counters": {...}, "gauges": {...}, "histograms": {...}` (no
/// surrounding braces), each section's entries sorted by name.
void write_metric_sections(std::ostream& os, const Snapshot& snapshot) {
  using Kind = Snapshot::Kind;
  for (const Kind kind : {Kind::kCounter, Kind::kGauge, Kind::kHistogram}) {
    const char* section = kind == Kind::kCounter ? "counters"
                          : kind == Kind::kGauge ? "gauges"
                                                 : "histograms";
    if (kind != Kind::kCounter) os << ",\n";
    os << "  \"" << section << "\": {";
    bool first = true;
    for (const Snapshot::Entry& e : snapshot.entries) {
      if (e.kind != kind) continue;
      os << (first ? "" : ", ");
      first = false;
      write_json_escaped(os, e.name);
      if (kind != Kind::kHistogram) {
        os << ": " << e.value;
        continue;
      }
      os << ": {\"count\": " << e.count << ", \"sum\": " << e.value
         << ", \"buckets\": [";
      for (std::size_t b = 0; b < e.buckets.size(); ++b) {
        os << (b > 0 ? ", [" : "[") << e.buckets[b].first << ", "
           << e.buckets[b].second << "]";
      }
      os << "]}";
    }
    os << "}";
  }
}

/// Current UTC wall time as ISO-8601 ("2026-08-09T12:34:56Z").
std::string iso8601_utc_now() {
  const std::time_t now = std::time(nullptr);
  std::tm tm{};
  ::gmtime_r(&now, &tm);
  char buf[32];
  std::strftime(buf, sizeof(buf), "%Y-%m-%dT%H:%M:%SZ", &tm);
  return buf;
}

}  // namespace

bool deterministic_metric(std::string_view name) noexcept {
  if (name == "engine.events" || name == "engine.vtime_ns" ||
      name == "analyze.rows") {
    return true;
  }
  return name.rfind("faults.", 0) == 0 || name.rfind("replay.", 0) == 0;
}

std::string current_git_sha() {
  FILE* p = ::popen("git rev-parse HEAD 2>/dev/null", "r");
  if (p == nullptr) return "unknown";
  char buf[128] = {};
  const std::size_t n = std::fread(buf, 1, sizeof(buf) - 1, p);
  const int rc = ::pclose(p);
  std::string sha(buf, n);
  while (!sha.empty() && (sha.back() == '\n' || sha.back() == '\r')) {
    sha.pop_back();
  }
  // A real SHA is 40 hex chars; anything else (error text, empty) is noise.
  if (rc != 0 || sha.size() != 40 ||
      sha.find_first_not_of("0123456789abcdef") != std::string::npos) {
    return "unknown";
  }
  return sha;
}

RunManifest RunManifest::capture(std::string tool, int jobs,
                                 std::string backend, double wall_seconds) {
  RunManifest m;
  m.tool = std::move(tool);
  m.git_sha = current_git_sha();
  m.timestamp = iso8601_utc_now();
  m.hardware_threads = std::thread::hardware_concurrency();
  m.jobs = jobs;
  m.backend = std::move(backend);
  m.wall_seconds = wall_seconds;
  m.metrics = Registry::instance().snapshot();
  m.spans = SpanTracer::instance().aggregate();
  return m;
}

void RunManifest::write_json(std::ostream& os) const {
  os << "{\n  \"schema\": \"" << kSchema << "\",\n";
  os << "  \"tool\": ";
  write_json_escaped(os, tool);
  os << ",\n  \"git_sha\": ";
  write_json_escaped(os, git_sha);
  os << ",\n  \"timestamp\": ";
  write_json_escaped(os, timestamp);
  os << ",\n  \"hardware_threads\": " << hardware_threads;
  os << ",\n  \"jobs\": " << jobs;
  os << ",\n  \"backend\": ";
  write_json_escaped(os, backend);
  os << ",\n  \"wall_seconds\": " << json_num(wall_seconds);
  os << ",\n  \"spans\": [";
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const SpanAgg& s = spans[i];
    os << (i == 0 ? "\n" : ",\n") << "    {\"name\": ";
    write_json_escaped(os, s.name);
    os << ", \"count\": " << s.count << ", \"total_ns\": " << s.total_ns
       << ", \"self_ns\": " << s.self_ns << "}";
  }
  os << (spans.empty() ? "]" : "\n  ]") << ",\n";
  write_metric_sections(os, metrics);
  os << "\n}\n";
}

std::string RunManifest::deterministic_fingerprint() const {
  std::ostringstream os;
  // Snapshot entries are already sorted by name; zero-valued entries are
  // skipped so a metric that never fired matches one never registered.
  for (const Snapshot::Entry& e : metrics.entries) {
    if (!deterministic_metric(e.name)) continue;
    if (e.kind == Snapshot::Kind::kHistogram) {
      if (e.count == 0) continue;
      os << e.name << "=" << e.count << ":" << e.value << ":[";
      for (std::size_t b = 0; b < e.buckets.size(); ++b) {
        os << (b > 0 ? " " : "") << e.buckets[b].first << ","
           << e.buckets[b].second;
      }
      os << "];";
    } else {
      if (e.value == 0) continue;
      os << e.name << "=" << e.value << ";";
    }
  }
  return os.str();
}

}  // namespace wasp::obs
