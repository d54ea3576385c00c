// The Analyzer: turns a trace, held in a TraceStore, into a
// WorkloadProfile. Simulated counterpart of the Vani suite's Analyzer tool.
#pragma once

#include <functional>

#include "analysis/column_store.hpp"
#include "analysis/profile.hpp"
#include "trace/log_io.hpp"
#include "trace/tracer.hpp"

namespace wasp::analysis {

/// What the analyzer reads of a trace: its rows, held in a store of either
/// backend, and the registries that name them.
struct TraceInput {
  /// The rows. Required; not owned — must outlive the analyze call.
  const TraceStore* store = nullptr;
  std::vector<std::string> app_names;
  /// Resolved file path of record i ("" when file-less).
  std::function<std::string(std::size_t)> path_at;
  /// Size of record i's file at end of run (0 if unknown).
  std::function<fs::Bytes(std::size_t)> size_at;
  /// Whether filesystem index shares one namespace across nodes.
  std::function<bool(std::int16_t)> fs_shared;
};

/// A live tracer's records, read in place from its store, and its
/// registries (app names, paths, end-of-run file sizes). Another store
/// holding the same records in trace order may replace `store`. The
/// returned input borrows the tracer.
TraceInput tracer_input(const trace::Tracer& tracer);

/// Stream every row of a log into `store`, one store chunk at a time, with
/// each row's path-table index and end-of-run file size as the store's aux
/// columns; then seal the store.
void load_log(trace::LogReader& reader, TraceStore& store);

/// The input of a log that load_log() streamed into `store`: app names and
/// filesystem sharing from the log's header, each row's path through its
/// path table. The returned input borrows both.
TraceInput log_input(const trace::LogHeader& header, const TraceStore& store);

class Analyzer {
 public:
  struct Options {
    /// Gap between consecutive I/O calls that separates two phases.
    sim::Time phase_gap = 1 * sim::kSec;
    /// Timeline resolution (long jobs get coarser bins, at most 2048).
    sim::Time timeline_bin = 1 * sim::kSec;
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

  /// Analyze a live trace in the tracer's own store, resolving names and
  /// paths through the tracer's registries.
  WorkloadProfile analyze(const trace::Tracer& tracer) const;

  /// Analyze the trace in input.store; throws SimError when it is null.
  WorkloadProfile analyze(const TraceInput& input) const;

  const Options& options() const noexcept { return opts_; }

 private:
  Options opts_;
};

}  // namespace wasp::analysis
