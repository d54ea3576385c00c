#include "analysis/trace_store.hpp"

#include <algorithm>

#include "util/error.hpp"

namespace wasp::analysis {

ChunkColumns ChunkColumns::slice(std::size_t i,
                                 std::size_t limit) const noexcept {
  const std::size_t k = i - base;
  ChunkColumns s;
  s.base = i;
  s.rows = std::min(base + rows, limit) - i;
  s.app = app + k;
  s.rank = rank + k;
  s.node = node + k;
  s.iface = iface + k;
  s.op = op + k;
  s.fs = fs + k;
  s.file = file + k;
  s.offset = offset + k;
  s.size = size + k;
  s.count = count + k;
  s.tstart = tstart + k;
  s.tend = tend + k;
  if (path_idx != nullptr) s.path_idx = path_idx + k;
  if (file_size != nullptr) s.file_size = file_size + k;
  return s;
}

trace::Record TraceStore::row(std::size_t i) const {
  const ChunkHandle h = chunk(i / chunk_rows());
  const ChunkColumns& c = h.cols;
  const std::size_t k = i - c.base;
  trace::Record r;
  r.app = c.app[k];
  r.rank = c.rank[k];
  r.node = c.node[k];
  r.iface = c.iface[k];
  r.op = c.op[k];
  r.file = {c.fs[k], c.file[k]};
  r.offset = c.offset[k];
  r.size = c.size[k];
  r.count = c.count[k];
  r.tstart = c.tstart[k];
  r.tend = c.tend[k];
  return r;
}

std::uint32_t TraceStore::path_idx_at(std::size_t i) const {
  const ChunkHandle h = chunk(i / chunk_rows());
  WASP_CHECK_MSG(h.cols.path_idx != nullptr,
                 "trace store carries no path column");
  return h.cols.path_idx[i - h.cols.base];
}

fs::Bytes TraceStore::file_size_at(std::size_t i) const {
  const ChunkHandle h = chunk(i / chunk_rows());
  WASP_CHECK_MSG(h.cols.file_size != nullptr,
                 "trace store carries no file-size column");
  return h.cols.file_size[i - h.cols.base];
}

void Cursor::seek(std::size_t i) {
  // Drop the old pin before fetching: a bounded spill cache must never hold
  // two chunks on this cursor's account.
  handle_ = ChunkHandle{};
  handle_ = store_->span_at(i);
}

}  // namespace wasp::analysis
