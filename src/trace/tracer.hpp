// In-memory trace collector attached to a simulation — the stand-in for the
// Recorder profiler. Interface layers call add(); library-internal I/O
// (e.g., the POSIX ops an MPI-IO aggregator issues on behalf of a collective)
// is suppressed with a SuppressionScope so op counts match what the
// *application* called, exactly as the paper's per-interface tables count.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "fs/filesystem.hpp"
#include "trace/record.hpp"

namespace wasp::trace {

class Tracer {
 public:
  /// Register a filesystem; its index becomes FileKey::fs.
  std::int16_t register_fs(fs::FileSystemSim& fs);
  /// Registered order: resolve FileKey back to a path for reports.
  fs::FileSystemSim& filesystem(std::int16_t idx) const;
  std::size_t num_filesystems() const noexcept { return filesystems_.size(); }

  /// Register an application (one per workflow step); returns its app index.
  std::uint16_t register_app(std::string name);
  const std::string& app_name(std::uint16_t app) const;
  std::size_t num_apps() const noexcept { return apps_.size(); }

  void add(const Record& r) {
    if (suppression_ != 0 || !enabled_) return;
    // Large runs buffer millions of records; once the buffer is past 64Ki
    // rows, grow 3x instead of the allocator's 2x so the total bytes copied
    // across regrowths stays well under one buffer's worth. Small runs keep
    // the default growth.
    if (records_.size() == records_.capacity() &&
        records_.capacity() >= (std::size_t{1} << 16)) {
      records_.reserve(records_.capacity() * 3);
    }
    records_.push_back(r);
  }

  /// Records observed so far (records().size()).
  std::uint64_t total_records() const noexcept { return records_.size(); }

  const std::vector<Record>& records() const noexcept { return records_; }
  void set_enabled(bool enabled) noexcept { enabled_ = enabled; }
  bool enabled() const noexcept { return enabled_; }

  bool suppressed() const noexcept { return suppression_ > 0; }

  /// Resolve a record's file to its path ("" when file-less). Node-local
  /// filesystems need the record's node to pick the right namespace.
  std::string path_of(const FileKey& key, int node = 0) const;

  class SuppressionScope {
   public:
    explicit SuppressionScope(Tracer& t) noexcept : t_(t) {
      ++t_.suppression_;
    }
    ~SuppressionScope() { --t_.suppression_; }
    SuppressionScope(const SuppressionScope&) = delete;
    SuppressionScope& operator=(const SuppressionScope&) = delete;

   private:
    Tracer& t_;
  };

 private:
  std::vector<fs::FileSystemSim*> filesystems_;
  std::vector<std::string> apps_;
  std::vector<Record> records_;
  int suppression_ = 0;
  bool enabled_ = true;
};

}  // namespace wasp::trace
