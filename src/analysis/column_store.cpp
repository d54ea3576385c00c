#include "analysis/column_store.hpp"

#include <algorithm>

#include "util/error.hpp"
#include "util/parallel.hpp"

namespace wasp::analysis {

void Columns::resize(std::size_t n) {
  each(*this, false, [n](auto& col, Id) { col.resize(n); });
}

void Columns::put(std::size_t at, std::span<const trace::Record> records) {
  if (records.empty()) return;
  // Fill through plain pointers so the loop never re-reads a vector's
  // bounds.
  std::uint16_t* app_p = app.data() + at;
  std::int32_t* rank_p = rank.data() + at;
  std::int32_t* node_p = node.data() + at;
  trace::Iface* iface_p = iface.data() + at;
  trace::Op* op_p = op.data() + at;
  std::int16_t* fs_p = fs.data() + at;
  fs::FileId* file_p = file.data() + at;
  fs::Bytes* offset_p = offset.data() + at;
  fs::Bytes* size_p = size.data() + at;
  std::uint32_t* count_p = count.data() + at;
  sim::Time* tstart_p = tstart.data() + at;
  sim::Time* tend_p = tend.data() + at;
  for (std::size_t i = 0; i < records.size(); ++i) {
    const trace::Record& r = records[i];
    app_p[i] = r.app;
    rank_p[i] = r.rank;
    node_p[i] = r.node;
    iface_p[i] = r.iface;
    op_p[i] = r.op;
    fs_p[i] = r.file.fs;
    file_p[i] = r.file.file;
    offset_p[i] = r.offset;
    size_p[i] = r.size;
    count_p[i] = r.count;
    tstart_p[i] = r.tstart;
    tend_p[i] = r.tend;
  }
}

void Columns::append(std::span<const trace::Record> records) {
  const std::size_t at = rows();
  resize(at + records.size());
  put(at, records);
}

void Columns::append(std::span<const trace::Record> records,
                     std::span<const std::uint32_t> path_idx_in,
                     std::span<const std::uint64_t> file_sizes) {
  WASP_CHECK_MSG(records.size() == path_idx_in.size() &&
                     records.size() == file_sizes.size(),
                 "aux columns must parallel the record span");
  append(records);
  path_idx.insert(path_idx.end(), path_idx_in.begin(), path_idx_in.end());
  file_size.insert(file_size.end(), file_sizes.begin(), file_sizes.end());
}

void Columns::clear() noexcept {
  each(*this, true, [](auto& col, Id) { col.clear(); });
}

std::int16_t Columns::max_fs() const noexcept {
  std::int16_t m = -1;
  for (const std::int16_t f : fs) m = std::max(m, f);
  return m;
}

ChunkColumns Columns::view(std::size_t base) const noexcept {
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
  if (!path_idx.empty()) v.path_idx = path_idx.data();
  if (!file_size.empty()) v.file_size = file_size.data();
  return v;
}

ColumnStore ColumnStore::from_records(const trace::RecordView& records,
                                      int jobs) {
  ColumnStore cs;
  cs.cols_.resize(records.size());
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
  util::parallel_for(
      jobs, records.size(), 1 << 17, [&](const util::ChunkRange& c) {
        std::size_t k = static_cast<std::size_t>(
            std::upper_bound(starts.begin(), starts.end(), c.begin) -
            starts.begin() - 1);
        for (std::size_t i = c.begin; i < c.end; ++k) {
          const std::size_t stop =
              std::min(c.end, starts[k] + pieces[k].size());
          cs.cols_.put(i, pieces[k].subspan(i - starts[k], stop - i));
          i = stop;
        }
      });
  return cs;
}

void ColumnStore::append(std::span<const trace::Record> records,
                         std::span<const std::uint32_t> path_idx,
                         std::span<const std::uint64_t> file_sizes) {
  WASP_CHECK_MSG(cols_.path_idx.size() == cols_.rows(),
                 "appending log rows to a store built from records");
  cols_.append(records, path_idx, file_sizes);
}

ChunkHandle ColumnStore::chunk(std::size_t chunk_index) const {
  const std::size_t base = chunk_index * chunk_rows_;
  WASP_CHECK_MSG(base < size(), "chunk index out of range");
  // The pin stays null: views borrow the store's own columns.
  return {cols_.view(0).slice(base, base + chunk_rows_), nullptr};
}

ChunkHandle ColumnStore::span_at(std::size_t row) const {
  WASP_CHECK_MSG(row < size(), "span row out of range");
  return {cols_.view(0), nullptr};
}

}  // namespace wasp::analysis
