// Derived workload profile: everything Figures 1-6 and Tables I/III-V/X-XI
// report is computed once into this structure. Each field has a reader
// outside the analyzer (the characterizer, the advisor, the CLIs, the
// figure benches); a value nothing reads is not computed.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "trace/record.hpp"
#include "util/histogram.hpp"

namespace wasp::analysis {

/// Op/byte/time breakdown used at workload, app, file and phase scope.
struct OpsBreakdown {
  std::uint64_t read_ops = 0;
  std::uint64_t write_ops = 0;
  std::uint64_t meta_ops = 0;
  fs::Bytes read_bytes = 0;
  fs::Bytes write_bytes = 0;
  double data_sec = 0.0;  ///< summed durations of data ops
  double meta_sec = 0.0;  ///< summed durations of metadata ops

  std::uint64_t data_ops() const noexcept { return read_ops + write_ops; }
  std::uint64_t total_ops() const noexcept { return data_ops() + meta_ops; }
  fs::Bytes io_bytes() const noexcept { return read_bytes + write_bytes; }
  double io_sec() const noexcept { return data_sec + meta_sec; }
  /// Fraction of *ops* that are data vs metadata (paper's "I/O ops dist").
  double data_op_fraction() const noexcept {
    return total_ops() ? static_cast<double>(data_ops()) /
                             static_cast<double>(total_ops())
                       : 0.0;
  }
  /// Fraction of I/O *time* spent in metadata.
  double meta_time_fraction() const noexcept {
    return io_sec() > 0 ? meta_sec / io_sec() : 0.0;
  }
  void merge(const OpsBreakdown& o) noexcept;
  bool operator==(const OpsBreakdown&) const = default;
};

/// Per-file view. For node-local filesystems, files with equal ids on
/// different nodes are distinct files.
struct FileStats {
  std::string path;
  fs::Bytes size = 0;
  OpsBreakdown ops;
  std::uint32_t reader_ranks = 0;  ///< distinct ranks that read
  std::uint32_t writer_ranks = 0;  ///< distinct ranks that wrote
  std::uint32_t accessor_ranks = 0;
  std::vector<std::uint16_t> producer_apps;  ///< wrote to this file
  std::vector<std::uint16_t> consumer_apps;  ///< read from this file

  bool shared() const noexcept { return accessor_ranks > 1; }
};

struct AppStats {
  std::uint16_t app = 0;
  std::string name;
  int num_procs = 0;
  OpsBreakdown ops;
  sim::Time first_event = 0;
  sim::Time last_event = 0;
  std::uint64_t fpp_files = 0;
  std::uint64_t shared_files = 0;
  /// Dominant interface by data-op count.
  trace::Iface interface = trace::Iface::kPosix;

  double runtime_sec() const noexcept {
    return sim::to_seconds(last_event - first_event);
  }
};

/// One I/O phase: a maximal burst of I/O separated from the next by more
/// than the gap threshold (the paper's "threshold between two I/O calls").
/// Every field is a function of the set of the phase's rows, whatever their
/// order in the trace.
struct Phase {
  std::uint16_t app = 0;
  sim::Time t0 = 0;
  sim::Time t1 = 0;
  /// Op counts and bytes. The op-time sums (data_sec, meta_sec) are not
  /// computed and stay 0: nothing reads them, and a floating-point sum
  /// would depend on the row order.
  OpsBreakdown ops;
  fs::Bytes dominant_size = 0;  ///< most frequent transfer granularity
  double ops_per_rank = 0.0;

  double runtime_sec() const noexcept { return sim::to_seconds(t1 - t0); }
  /// The paper's "Frequency" column: "1 op", "N ops/rank",
  /// "Iterative (1MB)" or "Bulk (64KB)".
  std::string frequency_label() const;
};

/// Producer -> consumer edge between apps, derived from file dataflow.
struct AppEdge {
  std::uint16_t producer = 0;
  std::uint16_t consumer = 0;
  fs::Bytes bytes = 0;          ///< volume flowing along the edge
  std::uint32_t files = 0;
};

/// Aggregate-bandwidth time series (Figures 1c-6c).
struct Timeline {
  sim::Time bin_width = 0;
  std::vector<double> read_bps;
  std::vector<double> write_bps;
  std::size_t num_bins() const noexcept { return read_bps.size(); }
};

struct WorkloadProfile {
  double job_runtime_sec = 0.0;
  OpsBreakdown totals;
  /// Fraction of job wall time during which at least one rank was inside an
  /// I/O call (interval union) — the paper's "% of I/O time" in Table I.
  double io_time_fraction = 0.0;
  int num_procs = 0;

  std::vector<AppStats> apps;
  std::vector<FileStats> files;
  std::vector<Phase> phases;  ///< ordered by t0, per app
  std::vector<AppEdge> app_edges;

  util::SizeHistogram read_hist = util::SizeHistogram::paper_buckets();
  util::SizeHistogram write_hist = util::SizeHistogram::paper_buckets();
  Timeline timeline;

  std::uint64_t shared_files = 0;
  std::uint64_t fpp_files = 0;

  /// Fraction of data ops that continue where the same rank's previous op
  /// on the same file ended (access-pattern classification).
  double sequential_fraction = 1.0;

  /// Exact transfer-size frequencies over data ops, most frequent first
  /// (drives the "Granularity (data, meta)" entity attributes).
  std::vector<std::pair<fs::Bytes, std::uint64_t>> size_frequencies;

  const AppStats* app_by_name(const std::string& name) const;
  /// Lookup by tracer app id (NOT a position in `apps` — apps that emitted
  /// no records are absent from the vector). nullptr if unknown.
  const AppStats* app_by_id(std::uint16_t app) const;
  /// Name for a tracer app id ("?" if unknown).
  const std::string& app_name(std::uint16_t app) const;
  /// First phase of an app (Table V), nullptr when it did no I/O.
  const Phase* first_phase(std::uint16_t app) const;
};

}  // namespace wasp::analysis
