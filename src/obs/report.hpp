// Reporting core behind tools/wasp_report — everything that reads run
// artifacts back in lives here so gtest can drive it directly:
//
//   load_manifest()          parse + validate a RunManifest JSON file into
//                            a flattened metric map (counters as-is,
//                            histograms as name.count / name.sum, spans as
//                            span.<name>.{count,total_ns,self_ns}).
//   aggregate_chrome_trace() the same span rollup RunManifest embeds, but
//                            computed from a --trace-out Chrome trace file.
//   diff_manifests()         per-metric delta table with tolerance bands.
//                            Deterministic metrics (obs::deterministic_
//                            metric) always get tolerance 0; timing
//                            metrics breach only when a tolerance was
//                            explicitly configured, so diffing two runs of
//                            the same configuration exits clean without
//                            tuning flags.
//
// All loaders throw util::SimError with the offending path (and byte
// offset for parse errors); tools catch and exit nonzero.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "obs/manifest.hpp"
#include "util/error.hpp"

namespace wasp::obs::report {

/// A manifest file flattened for comparison.
struct ManifestView {
  std::string path;
  std::string tool;
  std::string git_sha;
  std::string timestamp;
  std::string backend;
  int jobs = 1;
  unsigned hardware_threads = 0;
  double wall_seconds = 0.0;
  std::vector<SpanAgg> spans;
  /// Flattened metrics, sorted by name (std::map). Includes
  /// "wall_seconds" and the span.* projections.
  std::map<std::string, double> metrics;
};

ManifestView load_manifest(const std::string& path);

/// Span rollup from a Chrome trace-event JSON file ("ts" microseconds are
/// scaled back to ns). Unmatched events are ignored, like the tracer's
/// own aggregate(); a file without a traceEvents array throws.
std::vector<SpanAgg> aggregate_chrome_trace(const std::string& path);

struct DiffOptions {
  /// Relative tolerance for non-deterministic (timing) metrics; negative
  /// means report-only (never breach). Deterministic metrics ignore this
  /// and require exact equality.
  double tolerance = -1.0;
  /// Per-metric overrides, matched by longest prefix ("pool." or an exact
  /// name). An override applies to timing metrics only.
  std::vector<std::pair<std::string, double>> overrides;
};

struct MetricDelta {
  std::string name;
  double a = 0.0;
  double b = 0.0;
  double rel = 0.0;  ///< (b-a)/|a|, 0 when both zero, ±inf-free (a==0 -> 1)
  bool deterministic = false;
  double tolerance = -1.0;  ///< band applied; <0 = report-only
  bool breach = false;
};

/// Union of both metric maps; missing entries compare as 0.
std::vector<MetricDelta> diff_manifests(const ManifestView& a,
                                        const ManifestView& b,
                                        const DiffOptions& opts);

}  // namespace wasp::obs::report
