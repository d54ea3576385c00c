// Column-major trace storage — the stand-in for the Analyzer's
// Recorder-log -> parquet conversion. Row-major Recorder logs are expensive
// to filter/aggregate; the paper converts to parquet and processes with
// DASK. Analysis here runs over these columns, optionally filled and
// scanned chunk-parallel (fixed chunking, chunk-order merges — results are
// independent of the job count).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "analysis/trace_store.hpp"
#include "trace/record_blocks.hpp"
#include "util/parallel.hpp"

namespace wasp::analysis {

class ColumnStore : public TraceStore {
 public:
  /// Transpose records into columns, reading each piece of the view in
  /// place. With jobs > 1 the fill runs chunk-parallel over preallocated
  /// columns (each chunk writes a disjoint row range), producing the same
  /// store as the sequential fill.
  static ColumnStore from_records(const trace::RecordView& records,
                                  int jobs = 1);

  std::size_t size() const noexcept override { return app_.size(); }
  bool empty() const noexcept { return app_.empty(); }

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
  std::int16_t max_fs() const override;

  // Column accessors.
  std::uint16_t app(std::size_t i) const { return app_[i]; }
  std::int32_t rank(std::size_t i) const { return rank_[i]; }
  std::int32_t node(std::size_t i) const { return node_[i]; }
  trace::Iface iface(std::size_t i) const { return iface_[i]; }
  trace::Op op(std::size_t i) const { return op_[i]; }
  trace::FileKey file(std::size_t i) const { return {fs_[i], file_[i]}; }
  fs::Bytes offset(std::size_t i) const { return offset_[i]; }
  fs::Bytes size_col(std::size_t i) const { return size_[i]; }
  std::uint32_t count(std::size_t i) const { return count_[i]; }
  sim::Time tstart(std::size_t i) const { return tstart_[i]; }
  sim::Time tend(std::size_t i) const { return tend_[i]; }

  fs::Bytes total_bytes(std::size_t i) const {
    return size_[i] * static_cast<fs::Bytes>(count_[i]);
  }
  double duration_sec(std::size_t i) const {
    return sim::to_seconds(tend_[i] - tstart_[i]);
  }

  /// Reconstruct a row (tests, CSV export).
  trace::Record row(std::size_t i) const;

  /// Indices of rows matching a predicate over (store, index), ascending.
  template <typename Pred>
  std::vector<std::size_t> select(Pred pred) const {
    std::vector<std::size_t> out;
    out.reserve(size());
    for (std::size_t i = 0; i < size(); ++i) {
      if (pred(*this, i)) out.push_back(i);
    }
    return out;
  }

  /// select() with the predicate evaluated chunk-parallel; per-chunk hits
  /// are concatenated in chunk-index order, so the result is exactly the
  /// sequential select() for any job count.
  template <typename Pred>
  std::vector<std::size_t> select(Pred pred, int jobs,
                                  std::size_t grain = 65536) const {
    const auto hits = util::parallel_map(
        jobs, size(), grain,
        [&](const util::ChunkRange& c) {
          std::vector<std::size_t> local;
          local.reserve(c.size());
          for (std::size_t i = c.begin; i < c.end; ++i) {
            if (pred(*this, i)) local.push_back(i);
          }
          return local;
        });
    std::size_t total = 0;
    for (const auto& h : hits) total += h.size();
    std::vector<std::size_t> out;
    out.reserve(total);
    for (const auto& h : hits) out.insert(out.end(), h.begin(), h.end());
    return out;
  }

 private:
  std::size_t chunk_rows_ = 65536;
  std::vector<std::uint16_t> app_;
  std::vector<std::int32_t> rank_;
  std::vector<std::int32_t> node_;
  std::vector<trace::Iface> iface_;
  std::vector<trace::Op> op_;
  std::vector<std::int16_t> fs_;
  std::vector<fs::FileId> file_;
  std::vector<fs::Bytes> offset_;
  std::vector<fs::Bytes> size_;
  std::vector<std::uint32_t> count_;
  std::vector<sim::Time> tstart_;
  std::vector<sim::Time> tend_;
};

}  // namespace wasp::analysis
