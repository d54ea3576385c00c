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

namespace {

/// The storage chunk holding row i. chunk() checks only the chunk index,
/// and the last chunk's columns end at size(), so the row is checked here.
ChunkHandle chunk_of(const TraceStore& store, std::size_t i) {
  WASP_CHECK_MSG(i < store.size(), "trace store row out of range");
  return store.chunk(i / store.chunk_rows());
}

}  // namespace

trace::Record TraceStore::row(std::size_t i) const {
  const ChunkHandle h = chunk_of(*this, i);
  return h.cols.record(i - h.cols.base);
}

std::uint32_t TraceStore::path_idx_at(std::size_t i) const {
  const ChunkHandle h = chunk_of(*this, i);
  WASP_CHECK_MSG(h.cols.path_idx != nullptr,
                 "trace store carries no path column");
  return h.cols.path_idx[i - h.cols.base];
}

fs::Bytes TraceStore::file_size_at(std::size_t i) const {
  const ChunkHandle h = chunk_of(*this, i);
  WASP_CHECK_MSG(h.cols.file_size != nullptr,
                 "trace store carries no file-size column");
  return h.cols.file_size[i - h.cols.base];
}

void Cursor::seek(std::size_t i) {
  // Drop the old pin before fetching: a bounded spill cache must never hold
  // two chunks on this cursor's account.
  handle_ = ChunkHandle{};
  handle_ = chunk_of(*store_, i);
}

}  // namespace wasp::analysis
