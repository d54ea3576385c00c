// The Analyzer: turns a trace (via ColumnStore) into a WorkloadProfile.
// Simulated counterpart of the Vani suite's Analyzer tool.
#pragma once

#include <functional>

#include "analysis/column_store.hpp"
#include "analysis/profile.hpp"
#include "trace/log_io.hpp"
#include "trace/tracer.hpp"

namespace wasp::analysis {

/// Uniform trace source for the analyzer: a live Tracer, a persisted
/// LogData, or any TraceStore backend all reduce to this view.
struct TraceInput {
  /// Row-major records, transposed into an in-memory ColumnStore. Ignored
  /// when `store` is set.
  trace::RecordView records;
  /// Columnar backend to stream from directly (in-memory or spill); takes
  /// precedence over `records`. Not owned — must outlive the analyze call.
  const TraceStore* store = nullptr;
  std::vector<std::string> app_names;
  /// Resolved file path of record i ("" when file-less).
  std::function<std::string(std::size_t)> path_at;
  /// Size of record i's file at end of run (0 if unknown).
  std::function<fs::Bytes(std::size_t)> size_at;
  /// Whether filesystem index shares one namespace across nodes.
  std::function<bool(std::int16_t)> fs_shared;
};

/// Build a TraceInput over a live tracer's records and registries. The
/// returned input borrows the tracer.
TraceInput tracer_input(const trace::Tracer& tracer);

class Analyzer {
 public:
  struct Options {
    /// Gap between consecutive I/O calls that separates two phases.
    sim::Time phase_gap = 1 * sim::kSec;
    /// Timeline resolution.
    sim::Time timeline_bin = 1 * sim::kSec;
    /// Cap on timeline bins (long jobs get coarser bins instead).
    std::size_t max_timeline_bins = 2048;
    /// Worker threads for the chunked map-reduce passes. 0 picks up
    /// util::default_jobs() (WASP_JOBS / --jobs). The profile is
    /// bit-identical for every value: chunk boundaries depend only on the
    /// trace size and chunk_rows, and per-chunk partials are merged in
    /// chunk-index order.
    int jobs = 0;
    /// Rows per map-reduce chunk. Part of the deterministic algorithm
    /// definition: changing it may change the merge order of floating-point
    /// partial sums (never the semantics).
    std::size_t chunk_rows = 65536;
    /// Use the scalar row-at-a-time map step instead of the batched
    /// columnar kernels. The two are byte-identical by construction; this
    /// exists so tests (and benchmarks) can pit them against each other.
    bool reference_scan = false;
  };

  Analyzer() : opts_() {}
  explicit Analyzer(const Options& opts) : opts_(opts) {}

  /// Analyze a live trace (uses the tracer's registries to resolve names
  /// and paths).
  WorkloadProfile analyze(const trace::Tracer& tracer) const;

  /// Analyze a persisted Recorder-style log (offline pipeline — no
  /// Simulation required).
  WorkloadProfile analyze(const trace::LogData& log) const;

  /// Analyze any trace view.
  WorkloadProfile analyze(const TraceInput& input) const;

  const Options& options() const noexcept { return opts_; }

  /// Union length (seconds) of a set of [t0,t1] intervals — the wall time a
  /// bucket of operations was actually active, used for aggregate-bandwidth
  /// figures. Exposed for tests.
  static double union_seconds(std::vector<std::pair<sim::Time, sim::Time>> iv);

 private:
  WorkloadProfile analyze_store(const TraceStore& store,
                                const TraceInput& input) const;

  Options opts_;
};

}  // namespace wasp::analysis
