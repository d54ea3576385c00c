// Column-major trace storage — the stand-in for the Analyzer's
// Recorder-log -> parquet conversion. Row-major Recorder logs are expensive
// to filter/aggregate; the paper converts to parquet and processes with
// DASK. Analysis here runs over these columns, optionally filled and
// scanned chunk-parallel (fixed chunking, chunk-order merges — results are
// independent of the job count).
//
// Columns is the one column set both backends store their rows in: all of
// a ColumnStore, and the spill store's open chunk and every chunk it loads
// back. Records are transposed into it, and a view is taken of it, in one
// place each.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "analysis/trace_store.hpp"
#include "trace/record_blocks.hpp"

namespace wasp::analysis {

/// Leaves the elements a resize adds uninitialized: every element of a
/// column is written (by a transposition or a decoder) right after the
/// column grows, so zero-filling it first would be wasted work.
template <typename T>
struct UninitAllocator : std::allocator<T> {
  template <typename U>
  struct rebind {
    using other = UninitAllocator<U>;
  };
  template <typename U>
  void construct(U* p) noexcept {
    ::new (static_cast<void*>(p)) U;
  }
  template <typename U, typename... Args>
  void construct(U* p, Args&&... args) {
    ::new (static_cast<void*>(p)) U(std::forward<Args>(args)...);
  }
};
template <typename T>
using Column = std::vector<T, UninitAllocator<T>>;

/// A trace's rows as one contiguous array per record field, plus the
/// offline log's two auxiliary columns (empty when the rows came from
/// records rather than a log).
struct Columns {
  /// Column ids in declaration order, which is also the chunk-file order.
  enum Id : std::size_t {
    kApp, kRank, kNode, kIface, kOp, kFs, kFile, kOffset, kSize, kCount,
    kTstart, kTend, kPathIdx, kFileSize, kNumColumns,
  };
  static constexpr const char* kNames[kNumColumns] = {
      "app",    "rank", "node",  "iface",  "op",   "fs",       "file",
      "offset", "size", "count", "tstart", "tend", "path_idx", "file_size",
  };

  Column<std::uint16_t> app;
  Column<std::int32_t> rank;
  Column<std::int32_t> node;
  Column<trace::Iface> iface;
  Column<trace::Op> op;
  Column<std::int16_t> fs;
  Column<fs::FileId> file;
  Column<fs::Bytes> offset;
  Column<fs::Bytes> size;
  Column<std::uint32_t> count;
  Column<sim::Time> tstart;
  Column<sim::Time> tend;
  Column<std::uint32_t> path_idx;   ///< aux, empty when absent
  Column<std::uint64_t> file_size;  ///< aux, empty when absent

  /// Calls f(column, id) on each record column, then on each aux column
  /// when `aux` is set, in declaration order. `Self` is Columns or const
  /// Columns.
  template <typename Self, typename F>
  static void each(Self& c, bool aux, F&& f) {
    f(c.app, kApp);
    f(c.rank, kRank);
    f(c.node, kNode);
    f(c.iface, kIface);
    f(c.op, kOp);
    f(c.fs, kFs);
    f(c.file, kFile);
    f(c.offset, kOffset);
    f(c.size, kSize);
    f(c.count, kCount);
    f(c.tstart, kTstart);
    f(c.tend, kTend);
    if (aux) {
      f(c.path_idx, kPathIdx);
      f(c.file_size, kFileSize);
    }
  }

  std::size_t rows() const noexcept { return app.size(); }
  /// Resize the record columns to n rows; rows added stay uninitialized
  /// until put() writes them.
  void resize(std::size_t n);
  /// Transpose records into rows [at, at + records.size()), which must
  /// exist. Disjoint row ranges may be written concurrently.
  void put(std::size_t at, std::span<const trace::Record> records);
  /// Append records as new rows.
  void append(std::span<const trace::Record> records);
  /// Append records as new rows together with their aux values.
  void append(std::span<const trace::Record> records,
              std::span<const std::uint32_t> path_idx,
              std::span<const std::uint64_t> file_sizes);
  /// Empty every column, keeping its capacity.
  void clear() noexcept;
  /// Largest fs index over the rows (-1 when there are none).
  std::int16_t max_fs() const noexcept;
  /// All rows as one view whose first row is global row `base`.
  ChunkColumns view(std::size_t base) const noexcept;
};

/// The in-memory TraceStore: one Columns holding the whole trace.
class ColumnStore : public TraceStore {
 public:
  /// Transpose records into columns, reading each piece of the view in
  /// place. With jobs > 1 the fill runs chunk-parallel over preallocated
  /// columns (each chunk writes a disjoint row range), producing the same
  /// store as the sequential fill. The store has no aux columns.
  static ColumnStore from_records(const trace::RecordView& records,
                                  int jobs = 1);

  /// Append log rows with their aux columns; an error on a store built from
  /// records.
  void append(std::span<const trace::Record> records,
              std::span<const std::uint32_t> path_idx,
              std::span<const std::uint64_t> file_sizes) override;

  std::size_t size() const noexcept override { return cols_.rows(); }

  /// Storage-chunk size of the TraceStore view. Purely a view property —
  /// chunks are zero-copy slices of the contiguous columns, so any value
  /// yields identical analysis results.
  std::size_t chunk_rows() const noexcept override { return chunk_rows_; }
  void set_chunk_rows(std::size_t rows) noexcept {
    chunk_rows_ = rows > 0 ? rows : 1;
  }
  ChunkHandle chunk(std::size_t chunk_index) const override;
  /// Every chunk view aliases the same contiguous columns, so the maximal
  /// contiguous view is the whole store: a sequential scan (span-batched or
  /// row-at-a-time through a Cursor) resolves residency exactly once.
  ChunkHandle span_at(std::size_t row) const override;

  /// Direct scan over the contiguous fs column — no chunk handles needed.
  std::int16_t max_fs() const override { return cols_.max_fs(); }

 private:
  std::size_t chunk_rows_ = 65536;
  Columns cols_;
};

}  // namespace wasp::analysis
