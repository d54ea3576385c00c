// Row-format trace persistence — the simulated Recorder log files.
//
// After a job, the tracer's records can be written to a self-contained
// binary log (app names + file paths + rows) and streamed back through
// LogReader for offline analysis, mirroring the paper's
// Recorder-logs-on-GPFS -> Analyzer pipeline. A CSV exporter is provided
// for human inspection.
#pragma once

#include <fstream>
#include <iosfwd>
#include <string>
#include <vector>

#include "trace/record.hpp"
#include "trace/tracer.hpp"

namespace wasp::trace {

/// Serialize the tracer's current records (binary, versioned header),
/// streaming them from tracer.records(): each distinct file's path is
/// resolved once into a path table kept in first-appearance order.
void write_log(const std::string& filename, const Tracer& tracer);

/// Everything before a log file's row section.
struct LogHeader {
  std::vector<std::string> apps;
  std::vector<std::string> fs_names;
  std::vector<bool> fs_shared;
  /// Deduplicated path table; rows reference it by index.
  std::vector<std::string> path_table;
  std::uint64_t num_records = 0;
};

/// Streaming log reader: parses and validates the header up front —
/// including the declared record count against the actual file size, so a
/// corrupt count throws SimError instead of driving a huge allocation —
/// then emits record chunks on demand. Arbitrarily large logs never
/// materialize whole: analysis::load_log() feeds the chunks to either
/// trace store, in the store's chunk size.
class LogReader {
 public:
  explicit LogReader(const std::string& filename);
  const LogHeader& header() const noexcept { return header_; }
  std::uint64_t remaining() const noexcept { return remaining_; }
  /// Read up to max_rows records, appending to the three parallel vectors
  /// (path-table index and end-of-run file size per record). Returns rows
  /// appended; 0 at end of log. Throws SimError on malformed rows.
  std::size_t next_chunk(std::size_t max_rows, std::vector<Record>& records,
                         std::vector<std::uint32_t>& path_idx,
                         std::vector<std::uint64_t>& file_sizes);

 private:
  std::string filename_;
  std::ifstream is_;
  LogHeader header_;
  std::uint64_t remaining_ = 0;
};

/// Human-readable CSV of the records.
void write_csv(std::ostream& os, const Tracer& tracer);

}  // namespace wasp::trace
