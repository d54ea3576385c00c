// Column-major trace storage — the stand-in for the Analyzer's
// Recorder-log -> parquet conversion. Row-major Recorder logs are expensive
// to filter/aggregate; the paper converts to parquet and processes with
// DASK. Analysis here runs over these columns, scanned chunk-parallel
// (fixed chunking, chunk-order merges — results are independent of the job
// count).
//
// Columns is the one column set both backends store their rows in: each
// block of a ColumnStore, and the spill store's open chunk and every chunk
// it loads back. ColumnStore is also the live tracer's buffer
// (trace::Tracer::records()), so a simulated trace is written in columns
// once and analyzed where it lies.
#pragma once

#include <cstdint>
#include <iterator>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "analysis/trace_store.hpp"

namespace wasp::analysis {

/// Leaves the elements a resize adds uninitialized: every element of a
/// column is written (by a decoder or Columns::set) right after the column
/// grows, so zero-filling it first would be wasted work.
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
/// a tracer rather than a log).
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
  /// Write record r into the record columns of row k, which must exist.
  void set(std::size_t k, const trace::Record& r) noexcept {
    app[k] = r.app;
    rank[k] = r.rank;
    node[k] = r.node;
    iface[k] = r.iface;
    op[k] = r.op;
    fs[k] = r.file.fs;
    file[k] = r.file.file;
    offset[k] = r.offset;
    size[k] = r.size;
    count[k] = r.count;
    tstart[k] = r.tstart;
    tend[k] = r.tend;
  }
  /// Append one record as a new row of the record columns.
  void push_back(const trace::Record& r) {
    const std::size_t k = rows();
    each(*this, false, [](auto& col, Id) { col.emplace_back(); });
    set(k, r);
  }
  /// Append records as new rows.
  void append(std::span<const trace::Record> records);
  /// Append records as new rows together with their aux values.
  void append(std::span<const trace::Record> records,
              std::span<const std::uint32_t> path_idx,
              std::span<const std::uint64_t> file_sizes);
  /// Empty every column, keeping its capacity.
  void clear() noexcept;
  /// All rows as one view whose first row is global row `base`. The aux
  /// columns are in the view only when they hold every row.
  ChunkColumns view(std::size_t base) const noexcept {
    ChunkColumns v;
    v.base = base;
    v.rows = rows();
    v.app = app.data();
    v.rank = rank.data();
    v.node = node.data();
    v.iface = iface.data();
    v.op = op.data();
    v.fs = fs.data();
    v.file = file.data();
    v.offset = offset.data();
    v.size = size.data();
    v.count = count.data();
    v.tstart = tstart.data();
    v.tend = tend.data();
    if (path_idx.size() == rows()) v.path_idx = path_idx.data();
    if (file_size.size() == rows()) v.file_size = file_size.data();
    return v;
  }
};

/// The in-memory TraceStore and the live tracer's buffer. Rows append into
/// blocks of kBlockRows whose columns are reserved when the block opens, so
/// a growing trace never copies a row and a block's columns never move;
/// block c is storage chunk c. A store holds tracer records (push_back) or
/// log rows with their aux columns (append), never both.
class ColumnStore : public TraceStore {
 public:
  static constexpr std::size_t kBlockRows = std::size_t{1} << 16;

  /// The rows as trace::Records, by value, in trace order.
  class Iterator {
   public:
    using iterator_category = std::input_iterator_tag;
    using value_type = trace::Record;
    using difference_type = std::ptrdiff_t;
    using pointer = void;
    using reference = trace::Record;

    Iterator(const ColumnStore& store, std::size_t i)
        : store_(&store), i_(i) {}
    trace::Record operator*() const noexcept { return (*store_)[i_]; }
    Iterator& operator++() noexcept {
      ++i_;
      return *this;
    }
    Iterator operator++(int) {
      Iterator old = *this;
      ++i_;
      return old;
    }
    bool operator==(const Iterator& o) const noexcept { return i_ == o.i_; }

   private:
    const ColumnStore* store_;
    std::size_t i_;
  };

  /// Append one record (the tracer's per-op path). Kept out of line:
  /// inlined into every traced op, it made `sim.run` slower.
  void push_back(const trace::Record& r);

  /// Append log rows with their aux columns; an error on a store holding
  /// tracer records.
  void append(std::span<const trace::Record> records,
              std::span<const std::uint32_t> path_idx,
              std::span<const std::uint64_t> file_sizes) override;

  std::size_t size() const noexcept override { return size_; }
  std::size_t chunk_rows() const noexcept override { return kBlockRows; }
  ChunkHandle chunk(std::size_t chunk_index) const override;

  /// Row i as a record, unchecked like a vector's (row(i) checks).
  trace::Record operator[](std::size_t i) const noexcept {
    return blocks_[i / kBlockRows].view(0).record(i % kBlockRows);
  }
  Iterator begin() const { return {*this, 0}; }
  Iterator end() const { return {*this, size_}; }

 private:
  void open_block(bool aux);

  std::vector<Columns> blocks_;
  std::size_t size_ = 0;
};

}  // namespace wasp::analysis
