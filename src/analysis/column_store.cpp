#include "analysis/column_store.hpp"

#include <algorithm>

#include "util/error.hpp"

namespace wasp::analysis {

ColumnStore ColumnStore::from_records(const trace::RecordView& records,
                                      int jobs) {
  ColumnStore cs;
  const std::size_t n = records.size();
  cs.app_.resize(n);
  cs.rank_.resize(n);
  cs.node_.resize(n);
  cs.iface_.resize(n);
  cs.op_.resize(n);
  cs.fs_.resize(n);
  cs.file_.resize(n);
  cs.offset_.resize(n);
  cs.size_.resize(n);
  cs.count_.resize(n);
  cs.tstart_.resize(n);
  cs.tend_.resize(n);
  // First row of each piece, so a chunk finds the piece holding its start.
  const auto& pieces = records.pieces();
  std::vector<std::size_t> starts;
  starts.reserve(pieces.size());
  std::size_t at = 0;
  for (const auto& p : pieces) {
    starts.push_back(at);
    at += p.size();
  }
  // Each chunk writes a disjoint row range of every column — no sharing.
  util::parallel_for(jobs, n, 1 << 17, [&](const util::ChunkRange& c) {
    std::size_t k = static_cast<std::size_t>(
        std::upper_bound(starts.begin(), starts.end(), c.begin) -
        starts.begin() - 1);
    for (std::size_t i = c.begin; i < c.end; ++k) {
      const std::span<const trace::Record> piece = pieces[k];
      const std::size_t stop = std::min(c.end, starts[k] + piece.size());
      for (const trace::Record* r = piece.data() + (i - starts[k]); i < stop;
           ++i, ++r) {
        cs.app_[i] = r->app;
        cs.rank_[i] = r->rank;
        cs.node_[i] = r->node;
        cs.iface_[i] = r->iface;
        cs.op_[i] = r->op;
        cs.fs_[i] = r->file.fs;
        cs.file_[i] = r->file.file;
        cs.offset_[i] = r->offset;
        cs.size_[i] = r->size;
        cs.count_[i] = r->count;
        cs.tstart_[i] = r->tstart;
        cs.tend_[i] = r->tend;
      }
    }
  });
  return cs;
}

ChunkHandle ColumnStore::chunk(std::size_t chunk_index) const {
  const std::size_t base = chunk_index * chunk_rows_;
  WASP_CHECK_MSG(base < size(), "chunk index out of range");
  ChunkHandle h;  // pin stays null: views borrow the store's own columns
  h.cols.base = base;
  h.cols.rows = std::min(chunk_rows_, size() - base);
  h.cols.app = app_.data() + base;
  h.cols.rank = rank_.data() + base;
  h.cols.node = node_.data() + base;
  h.cols.iface = iface_.data() + base;
  h.cols.op = op_.data() + base;
  h.cols.fs = fs_.data() + base;
  h.cols.file = file_.data() + base;
  h.cols.offset = offset_.data() + base;
  h.cols.size = size_.data() + base;
  h.cols.count = count_.data() + base;
  h.cols.tstart = tstart_.data() + base;
  h.cols.tend = tend_.data() + base;
  return h;
}

ChunkHandle ColumnStore::span_at(std::size_t row) const {
  WASP_CHECK_MSG(row < size(), "span row out of range");
  ChunkHandle h;  // pin stays null: the view borrows the store's columns
  h.cols.base = 0;
  h.cols.rows = size();
  h.cols.app = app_.data();
  h.cols.rank = rank_.data();
  h.cols.node = node_.data();
  h.cols.iface = iface_.data();
  h.cols.op = op_.data();
  h.cols.fs = fs_.data();
  h.cols.file = file_.data();
  h.cols.offset = offset_.data();
  h.cols.size = size_.data();
  h.cols.count = count_.data();
  h.cols.tstart = tstart_.data();
  h.cols.tend = tend_.data();
  return h;
}

std::int16_t ColumnStore::max_fs() const {
  std::int16_t m = -1;
  for (const std::int16_t f : fs_) m = std::max(m, f);
  return m;
}

trace::Record ColumnStore::row(std::size_t i) const {
  trace::Record r;
  r.app = app_[i];
  r.rank = rank_[i];
  r.node = node_[i];
  r.iface = iface_[i];
  r.op = op_[i];
  r.file = {fs_[i], file_[i]};
  r.offset = offset_[i];
  r.size = size_[i];
  r.count = count_[i];
  r.tstart = tstart_[i];
  r.tend = tend_[i];
  return r;
}

}  // namespace wasp::analysis
