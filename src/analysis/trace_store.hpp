// TraceStore — backend abstraction over columnar trace storage, the seam
// that turns the analyzer from an in-core library into a bounded-memory
// pipeline. A store presents the trace as fixed-size columnar chunks (one
// contiguous buffer per column, chunk c covering rows
// [c*chunk_rows, min((c+1)*chunk_rows, size))), and a Cursor walks rows by
// global index while pinning one chunk at a time.
//
// Two backends implement it, as two residencies of one column set
// (analysis::Columns): ColumnStore (in memory, and the live tracer's own
// buffer; each chunk is one of its never-moved column blocks) and
// SpillColumnStore (chunk files on disk with a bounded LRU of resident
// chunks). Both take an offline log's rows through the same append() and
// serve bit-identical column values through the same cursor, and the
// analyzer's map-reduce chunking/merge order is independent of the storage
// chunking — so profiles are byte-identical across backends and job
// counts.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <memory>
#include <span>
#include <vector>

#include "trace/record.hpp"

namespace wasp::analysis {

/// Backend I/O counters, exposed uniformly through TraceStore so tools and
/// benchmarks can report where analysis wall-clock went. The in-memory
/// backend reports all-zero; the spill backend fills every field.
struct IoStats {
  std::uint64_t chunk_loads = 0;      ///< chunk files read + decoded
  std::uint64_t cache_hits = 0;       ///< chunk() served without a disk read
  std::uint64_t evictions = 0;        ///< chunks dropped from the LRU
  std::uint64_t prefetch_issued = 0;  ///< background read-ahead loads
  std::uint64_t prefetch_hits = 0;    ///< demand fetches served by read-ahead
  std::uint64_t prefetch_wasted = 0;  ///< prefetched chunks evicted unused
  std::uint64_t bytes_written = 0;    ///< chunk-file bytes on disk
  std::uint64_t bytes_read = 0;       ///< chunk-file bytes read back
  std::uint64_t raw_bytes = 0;        ///< uncompressed column payload bytes

  struct ColumnStats {
    const char* name;            ///< column name ("tstart", "op", ...)
    std::uint64_t raw_bytes;     ///< fixed-width array size
    std::uint64_t stored_bytes;  ///< encoded size on disk (incl. tag+len)
  };
  std::vector<ColumnStats> columns;

  double hit_rate() const noexcept {
    const std::uint64_t total = cache_hits + chunk_loads;
    return total == 0 ? 0.0
                      : static_cast<double>(cache_hits) /
                            static_cast<double>(total);
  }
  double prefetch_hit_rate() const noexcept {
    return prefetch_issued == 0
               ? 0.0
               : static_cast<double>(prefetch_hits) /
                     static_cast<double>(prefetch_issued);
  }
  /// Stored/raw over every column payload; 1.0 when uncompressed (or no
  /// spill traffic at all).
  double compressed_ratio() const noexcept {
    return raw_bytes == 0 ? 1.0
                          : static_cast<double>(bytes_written) /
                                static_cast<double>(raw_bytes);
  }
};

/// Borrowed columnar view of rows [base, base + rows): column[k] is row
/// base + k. A storage chunk and a cursor's span are both views of this
/// one shape.
struct ChunkColumns {
  std::size_t base = 0;
  std::size_t rows = 0;
  const std::uint16_t* app = nullptr;
  const std::int32_t* rank = nullptr;
  const std::int32_t* node = nullptr;
  const trace::Iface* iface = nullptr;
  const trace::Op* op = nullptr;
  const std::int16_t* fs = nullptr;
  const fs::FileId* file = nullptr;
  const fs::Bytes* offset = nullptr;
  const fs::Bytes* size = nullptr;
  const std::uint32_t* count = nullptr;
  const sim::Time* tstart = nullptr;
  const sim::Time* tend = nullptr;
  // Auxiliary columns carried by offline logs; null when absent.
  const std::uint32_t* path_idx = nullptr;
  const std::uint64_t* file_size = nullptr;

  bool contains(std::size_t i) const noexcept {
    return i >= base && i - base < rows;
  }
  /// Rows [i, min(base + rows, limit)) as a view of their own; `i` must
  /// lie inside this view.
  ChunkColumns slice(std::size_t i, std::size_t limit) const noexcept;
  /// Row base + k as a record; k < rows.
  trace::Record record(std::size_t k) const noexcept {
    trace::Record r;
    r.app = app[k];
    r.rank = rank[k];
    r.node = node[k];
    r.iface = iface[k];
    r.op = op[k];
    r.file = {fs[k], file[k]};
    r.offset = offset[k];
    r.size = size[k];
    r.count = count[k];
    r.tstart = tstart[k];
    r.tend = tend[k];
    return r;
  }
};

/// What a store knows of its rows without reading them back, kept as they
/// are written: the earliest start, the latest end and the largest fs
/// registry index (-1 when every row is file-less). The analyzer sizes its
/// timeline and its filesystem table from them before it scans.
struct RowBounds {
  sim::Time t0 = std::numeric_limits<sim::Time>::max();
  sim::Time t1 = 0;
  std::int16_t max_fs = -1;

  void add(const trace::Record& r) noexcept {
    t0 = std::min(t0, r.tstart);
    t1 = std::max(t1, r.tend);
    max_fs = std::max(max_fs, r.file.fs);
  }
  void add(std::span<const trace::Record> records) noexcept {
    for (const trace::Record& r : records) add(r);
  }
};

/// A pinned chunk: the view stays valid for as long as `pin` is held, even
/// if the backend's cache evicts the chunk meanwhile. The in-memory backend
/// leaves pin null (its buffers live as long as the store).
struct ChunkHandle {
  ChunkColumns cols;
  std::shared_ptr<const void> pin;
};

class TraceStore {
 public:
  virtual ~TraceStore() = default;

  // --- Write side (single-threaded, before the first read) --------------
  /// Append rows of an offline log with its auxiliary columns (path-table
  /// index and end-of-run file size per row, parallel to `records`).
  virtual void append(std::span<const trace::Record> records,
                      std::span<const std::uint32_t> path_idx,
                      std::span<const std::uint64_t> file_sizes) = 0;
  /// Seal the store after its last append. A spill store must be sealed
  /// before it is read; the in-memory store reads its columns as they fill.
  virtual void finalize() {}

  // --- Read side ---------------------------------------------------------
  virtual std::size_t size() const noexcept = 0;
  /// Storage-chunk size in rows (>= 1). Purely a storage property: analysis
  /// results do not depend on it.
  virtual std::size_t chunk_rows() const noexcept = 0;
  /// Fetch storage chunk `chunk_index`. Thread-safe: concurrent cursors may
  /// fetch chunks from worker threads.
  virtual ChunkHandle chunk(std::size_t chunk_index) const = 0;

  std::size_t num_chunks() const noexcept {
    const std::size_t n = size();
    return n == 0 ? 0 : (n - 1) / chunk_rows() + 1;
  }

  /// The rows' time range and largest fs index, kept by every append.
  const RowBounds& bounds() const noexcept { return bounds_; }

  /// Backend I/O counters (loads, cache behavior, bytes, compression).
  /// Purely in-memory backends report the default all-zero stats.
  virtual IoStats io_stats() const { return {}; }

  /// Reconstruct one row (serial post-merge resolution, tests). Like every
  /// row-indexed read here, throws SimError when i >= size().
  trace::Record row(std::size_t i) const;
  /// Row i's auxiliary columns: its index into the log's path table and its
  /// file's end-of-run size. Throw SimError on a store built without them.
  std::uint32_t path_idx_at(std::size_t i) const;
  fs::Bytes file_size_at(std::size_t i) const;

 protected:
  RowBounds bounds_;
};

/// Row-indexed access over a TraceStore, caching the chunk that served the
/// last access — sequential scans fetch each chunk exactly once. Construct
/// one Cursor per thread; the cursor itself is not thread-safe (the store
/// is).
class Cursor {
 public:
  explicit Cursor(const TraceStore& store) : store_(&store) {}

  std::uint16_t app(std::size_t i) { const auto& c = at(i); return c.app[i - c.base]; }
  std::int32_t rank(std::size_t i) { const auto& c = at(i); return c.rank[i - c.base]; }
  std::int32_t node(std::size_t i) { const auto& c = at(i); return c.node[i - c.base]; }
  trace::Iface iface(std::size_t i) { const auto& c = at(i); return c.iface[i - c.base]; }
  trace::Op op(std::size_t i) { const auto& c = at(i); return c.op[i - c.base]; }
  trace::FileKey file(std::size_t i) {
    const auto& c = at(i);
    return {c.fs[i - c.base], c.file[i - c.base]};
  }
  fs::Bytes offset(std::size_t i) { const auto& c = at(i); return c.offset[i - c.base]; }
  fs::Bytes size_col(std::size_t i) { const auto& c = at(i); return c.size[i - c.base]; }
  std::uint32_t count(std::size_t i) { const auto& c = at(i); return c.count[i - c.base]; }
  sim::Time tstart(std::size_t i) { const auto& c = at(i); return c.tstart[i - c.base]; }
  sim::Time tend(std::size_t i) { const auto& c = at(i); return c.tend[i - c.base]; }

  /// Batched access: the rest of row `i`'s storage chunk, clipped to
  /// `limit` (exclusive). Scan kernels walk a range as
  ///   for (pos = begin; pos < end; pos += cursor.span(pos, end).rows)
  /// paying one residency resolution per storage chunk instead of one check
  /// per column read. Span boundaries never change analysis results:
  /// kernels accumulate per-row state in row order wherever they fall. The
  /// span borrows this cursor's pin: it is invalidated by the next
  /// span()/accessor call that seeks to a different chunk.
  ChunkColumns span(std::size_t i, std::size_t limit) {
    return at(i).slice(i, limit);
  }

 private:
  const ChunkColumns& at(std::size_t i) {
    if (!handle_.cols.contains(i)) seek(i);
    return handle_.cols;
  }
  void seek(std::size_t i);

  const TraceStore* store_;
  ChunkHandle handle_{};
};

}  // namespace wasp::analysis
