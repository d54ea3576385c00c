// In-memory trace collector attached to a simulation — the stand-in for the
// Recorder profiler. Interface layers call add(); library-internal I/O
// (e.g., the POSIX ops an MPI-IO aggregator issues on behalf of a collective)
// is muted per process with runtime::Proc::Suppression, so op counts match
// what the *application* called, exactly as the paper's per-interface tables
// count. Records land in the columns of an analysis::ColumnStore, the same
// store the analyzer reads.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "analysis/column_store.hpp"
#include "fs/filesystem.hpp"
#include "trace/record.hpp"

namespace wasp::trace {

class Tracer {
 public:
  /// Register a filesystem; its index becomes FileKey::fs. Throws SimError
  /// past 32,768 filesystems (FileKey::fs is 16-bit signed).
  std::int16_t register_fs(fs::FileSystemSim& fs);
  /// Registered order: resolve FileKey back to a path for reports.
  fs::FileSystemSim& filesystem(std::int16_t idx) const;
  std::size_t num_filesystems() const noexcept { return filesystems_.size(); }

  /// Register an application (one per workflow step); returns its app index.
  /// Throws SimError past 65,536 apps (Record::app is 16-bit).
  std::uint16_t register_app(std::string name);
  const std::string& app_name(std::uint16_t app) const;
  std::size_t num_apps() const noexcept { return apps_.size(); }

  void add(const Record& r) {
    if (enabled_) records_.push_back(r);
  }

  /// Records observed so far (records().size()).
  std::uint64_t total_records() const noexcept { return records_.size(); }

  const analysis::ColumnStore& records() const noexcept { return records_; }
  void set_enabled(bool enabled) noexcept { enabled_ = enabled; }
  bool enabled() const noexcept { return enabled_; }

  /// Resolve a record's file to its path ("" when file-less). Node-local
  /// filesystems need the record's node to pick the right namespace.
  std::string path_of(const FileKey& key, int node = 0) const;

 private:
  std::vector<fs::FileSystemSim*> filesystems_;
  std::vector<std::string> apps_;
  analysis::ColumnStore records_;
  bool enabled_ = true;
};

}  // namespace wasp::trace
