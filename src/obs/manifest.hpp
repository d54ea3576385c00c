// RunManifest — the versioned, schema'd digest of one run, the unit the
// reporting layer (tools/wasp_report) aggregates, diffs, and gates on.
//
// A manifest is a closed record: provenance (git SHA, timestamp, hardware
// threads, jobs, backend), wall clock, the metrics-registry rollup
// (counters / gauges / histograms — which covers the spill-store io.*
// cells and the fault injector's faults.* cells), and the span tracer's
// per-name count/total/self-time table. Emitted by `wasp_run --report` /
// `wasp_analyze --report`.
//
// Two serializations:
//   write_json()                 the full document (schema
//                                "wasp-run-manifest-v1").
//   deterministic_fingerprint()  a canonical one-line digest of only the
//                                metrics that must be bit-equal across
//                                --jobs counts, store backends, and
//                                reruns of the same seed (virtual-clock
//                                and count metrics; no wall-clock, no
//                                cache behavior, no provenance). Two runs
//                                of the same configuration produce the
//                                same fingerprint byte-for-byte.
#pragma once

#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/span.hpp"

namespace wasp::obs {

/// True for metrics whose values are functions of the simulation alone —
/// virtual-time sums and event/row/fault counts — and therefore must not
/// drift across --jobs, backends, or reruns: `engine.events`,
/// `engine.vtime_ns`, `analyze.rows`, and the `faults.` / `replay.`
/// families. Wall-clock counters (`*_ns` from real timers), pool and
/// spill-cache behavior are timing-dependent and excluded.
bool deterministic_metric(std::string_view name) noexcept;

/// `git rev-parse HEAD` of the current working directory, or "unknown"
/// when git or the repository is unavailable. Never throws.
std::string current_git_sha();

struct RunManifest {
  static constexpr const char* kSchema = "wasp-run-manifest-v1";

  std::string tool;              ///< producing binary ("wasp_run", ...)
  std::string git_sha = "unknown";
  std::string timestamp;         ///< ISO-8601 UTC
  unsigned hardware_threads = 0;
  int jobs = 1;
  std::string backend = "memory";
  double wall_seconds = 0.0;
  /// Registry rollup; capture() takes the whole process's snapshot.
  Snapshot metrics;
  std::vector<SpanAgg> spans;

  /// Snapshot the process: registry + span tracer + provenance. `jobs`
  /// and `backend` describe the run the caller just finished.
  static RunManifest capture(std::string tool, int jobs,
                             std::string backend, double wall_seconds);

  void write_json(std::ostream& os) const;

  /// Canonical `name=value;` / `name=count:sum:[b,n ...];` digest over
  /// the deterministic_metric() subset, sorted by name.
  std::string deterministic_fingerprint() const;
};

}  // namespace wasp::obs
