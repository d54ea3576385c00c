// The reporting core behind tools/wasp_report: manifest loading
// (including malformed-input diagnostics), the diff tolerance bands at
// their edges, and Chrome-trace span aggregation.
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>

#include "obs/manifest.hpp"
#include "obs/report.hpp"
#include "util/error.hpp"
#include "util/json.hpp"

namespace wasp {
namespace {

namespace rep = obs::report;

std::string write_tmp(const std::string& name, const std::string& text) {
  const std::string path = std::string(::testing::TempDir()) + "/" + name;
  std::ofstream os(path);
  os << text;
  return path;
}

// --- util::json -----------------------------------------------------------

TEST(JsonReader, ParsesScalarsContainersAndEscapes) {
  const auto v = util::json::parse(
      R"({"a": 1.5, "b": [true, false, null], "s": "x\\\"y\n", "o": {}})");
  ASSERT_TRUE(v.is_object());
  EXPECT_EQ(v.num_or("a", 0), 1.5);
  const auto* b = v.get("b");
  ASSERT_TRUE(b != nullptr && b->is_array());
  ASSERT_EQ(b->arr.size(), 3u);
  EXPECT_TRUE(b->arr[0].boolean);
  EXPECT_EQ(v.str_or("s", ""), "x\\\"y\n");
  EXPECT_TRUE(v.get("o")->is_object());
}

TEST(JsonReader, ReportsByteOffsetOnMalformedInput) {
  try {
    util::json::parse("{\"a\": 1, }");
    FAIL() << "expected a parse error";
  } catch (const std::exception& e) {
    EXPECT_NE(std::string(e.what()).find("byte"), std::string::npos)
        << e.what();
  }
  EXPECT_THROW(util::json::parse(""), std::exception);
  EXPECT_THROW(util::json::parse("{\"a\": 1} trailing"), std::exception);
  EXPECT_THROW(util::json::parse_file("/nonexistent/manifest.json"),
               std::exception);
}

// --- load_manifest --------------------------------------------------------

TEST(ReportManifest, RoundTripsThroughWriteJson) {
  obs::RunManifest m;
  m.tool = "unit";
  m.git_sha = "unknown";
  m.timestamp = "2026-08-09T00:00:00Z";
  m.hardware_threads = 8;
  m.jobs = 3;
  m.backend = "spill";
  m.wall_seconds = 1.25;
  m.spans.push_back({"engine.run", 2, 900, 700});
  std::ostringstream os;
  m.write_json(os);
  const std::string path = write_tmp("roundtrip.manifest.json", os.str());

  const rep::ManifestView v = rep::load_manifest(path);
  EXPECT_EQ(v.tool, "unit");
  EXPECT_EQ(v.backend, "spill");
  EXPECT_EQ(v.jobs, 3);
  EXPECT_EQ(v.hardware_threads, 8u);
  EXPECT_EQ(v.wall_seconds, 1.25);
  ASSERT_EQ(v.spans.size(), 1u);
  EXPECT_EQ(v.spans[0].name, "engine.run");
  EXPECT_EQ(v.spans[0].self_ns, 700u);
  EXPECT_EQ(v.metrics.at("span.engine.run.total_ns"), 900.0);
  EXPECT_EQ(v.metrics.at("wall_seconds"), 1.25);
}

TEST(ReportManifest, DiagnosesMalformedDocuments) {
  const auto expect_error = [](const std::string& path,
                               const std::string& needle) {
    try {
      rep::load_manifest(path);
      FAIL() << "expected SimError for " << path;
    } catch (const util::SimError& e) {
      EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
          << e.what();
    }
  };
  expect_error(write_tmp("m_noschema.json", "{}"), "schema");
  expect_error(write_tmp("m_badschema.json",
                         R"({"schema": "wasp-run-manifest-v0"})"),
               "unsupported schema");
  expect_error(
      write_tmp("m_nocounters.json",
                R"({"schema": "wasp-run-manifest-v1", "spans": []})"),
      "counters");
  expect_error(write_tmp("m_badspan.json",
                         R"({"schema": "wasp-run-manifest-v1",
                             "counters": {}, "histograms": {},
                             "spans": [{"count": 1}]})"),
               "span");
  // Parse errors surface the byte offset through SimError.
  expect_error(write_tmp("m_truncated.json",
                         R"({"schema": "wasp-run-manifest-v1")"),
               "byte");
}

// --- diff_manifests -------------------------------------------------------

rep::ManifestView view_with(
    std::initializer_list<std::pair<const char*, double>> metrics) {
  rep::ManifestView v;
  for (const auto& [name, value] : metrics) v.metrics.emplace(name, value);
  return v;
}

const rep::MetricDelta& find_delta(const std::vector<rep::MetricDelta>& ds,
                                   const std::string& name) {
  for (const auto& d : ds) {
    if (d.name == name) return d;
  }
  ADD_FAILURE() << "no delta named " << name;
  static rep::MetricDelta none;
  return none;
}

TEST(ReportDiff, DeterministicMetricsRequireExactEquality) {
  const auto a = view_with({{"engine.events", 100}, {"engine.run_ns", 500}});
  const auto b = view_with({{"engine.events", 101}, {"engine.run_ns", 900}});
  const auto ds = rep::diff_manifests(a, b, rep::DiffOptions{});
  const auto& det = find_delta(ds, "engine.events");
  EXPECT_TRUE(det.deterministic);
  EXPECT_TRUE(det.breach);  // off by one, no band applies
  // Timing metric with default (report-only) tolerance never breaches.
  const auto& timing = find_delta(ds, "engine.run_ns");
  EXPECT_FALSE(timing.deterministic);
  EXPECT_FALSE(timing.breach);
  EXPECT_NEAR(timing.rel, 0.8, 1e-12);
}

TEST(ReportDiff, IdenticalViewsProduceZeroDeltas) {
  const auto a = view_with(
      {{"engine.events", 100}, {"faults.injected", 7}, {"pool.tasks", 9}});
  const auto ds = rep::diff_manifests(a, a, rep::DiffOptions{});
  for (const auto& d : ds) {
    EXPECT_EQ(d.rel, 0.0) << d.name;
    EXPECT_FALSE(d.breach) << d.name;
  }
}

TEST(ReportDiff, ToleranceEdgeIsInclusive) {
  const auto a = view_with({{"analyze.ns", 100}});
  rep::DiffOptions opts;
  opts.tolerance = 0.10;
  // rel == tolerance exactly: inside the band.
  auto ds = rep::diff_manifests(a, view_with({{"analyze.ns", 110}}), opts);
  EXPECT_FALSE(find_delta(ds, "analyze.ns").breach);
  // One part in a thousand past the band: breach, in either direction.
  ds = rep::diff_manifests(a, view_with({{"analyze.ns", 110.2}}), opts);
  EXPECT_TRUE(find_delta(ds, "analyze.ns").breach);
  ds = rep::diff_manifests(a, view_with({{"analyze.ns", 89.8}}), opts);
  EXPECT_TRUE(find_delta(ds, "analyze.ns").breach);
}

TEST(ReportDiff, LongestPrefixOverrideWins) {
  const auto a = view_with({{"pool.tasks", 100}, {"pool.task_run_ns", 100}});
  const auto b = view_with({{"pool.tasks", 140}, {"pool.task_run_ns", 140}});
  rep::DiffOptions opts;
  opts.tolerance = 0.05;
  opts.overrides.emplace_back("pool.", 0.5);
  opts.overrides.emplace_back("pool.tasks", 0.1);
  const auto ds = rep::diff_manifests(a, b, opts);
  EXPECT_TRUE(find_delta(ds, "pool.tasks").breach);        // 40% > 10%
  EXPECT_FALSE(find_delta(ds, "pool.task_run_ns").breach); // 40% < 50%
}

TEST(ReportDiff, MissingMetricsCompareAsZero) {
  const auto a = view_with({{"faults.injected", 3}});
  const auto b = view_with({{"replay.ops", 5}});
  const auto ds = rep::diff_manifests(a, b, rep::DiffOptions{});
  const auto& gone = find_delta(ds, "faults.injected");
  EXPECT_EQ(gone.b, 0.0);
  EXPECT_TRUE(gone.breach);  // deterministic 3 -> 0
  const auto& born = find_delta(ds, "replay.ops");
  EXPECT_EQ(born.a, 0.0);
  EXPECT_EQ(born.rel, 1.0);
  EXPECT_TRUE(born.breach);  // deterministic 0 -> 5
}

// --- aggregate_chrome_trace -----------------------------------------------

TEST(ReportTrace, AggregatesSelfTimeFromNestedSpans) {
  const std::string path = write_tmp("agg.trace.json", R"({"traceEvents": [
    {"name": "outer", "ph": "B", "pid": 1, "tid": 1, "ts": 0},
    {"name": "inner", "ph": "B", "pid": 1, "tid": 1, "ts": 20},
    {"name": "inner", "ph": "E", "pid": 1, "tid": 1, "ts": 50},
    {"name": "outer", "ph": "E", "pid": 1, "tid": 1, "ts": 100},
    {"name": "outer", "ph": "B", "pid": 1, "tid": 2, "ts": 10},
    {"name": "outer", "ph": "E", "pid": 1, "tid": 2, "ts": 30},
    {"name": "dangling", "ph": "B", "pid": 9, "tid": 9, "ts": 5}
  ]})");
  const auto spans = rep::aggregate_chrome_trace(path);
  ASSERT_EQ(spans.size(), 2u);  // dangling B never completes
  const auto& inner = spans[0].name == "inner" ? spans[0] : spans[1];
  const auto& outer = spans[0].name == "outer" ? spans[0] : spans[1];
  EXPECT_EQ(inner.count, 1u);
  EXPECT_EQ(inner.total_ns, 30000u);
  EXPECT_EQ(inner.self_ns, 30000u);
  EXPECT_EQ(outer.count, 2u);            // both tracks
  EXPECT_EQ(outer.total_ns, 120000u);    // 100us + 20us
  EXPECT_EQ(outer.self_ns, 90000u);      // inner's 30us subtracted
}

TEST(ReportTrace, RejectsNonTraceDocuments) {
  EXPECT_THROW(
      rep::aggregate_chrome_trace(write_tmp("nottrace.json", "{\"x\": 1}")),
      util::SimError);
}

}  // namespace
}  // namespace wasp
