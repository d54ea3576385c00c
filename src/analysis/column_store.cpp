#include "analysis/column_store.hpp"

#include <algorithm>

#include "util/error.hpp"

namespace wasp::analysis {

void Columns::append(std::span<const trace::Record> records) {
  // Grow once and write rows in place: a push_back per row would check
  // every column's capacity on every row.
  const std::size_t at = rows();
  each(*this, false, [&](auto& col, Id) { col.resize(at + records.size()); });
  for (std::size_t i = 0; i < records.size(); ++i) set(at + i, records[i]);
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

void ColumnStore::push_back(const trace::Record& r) {
  if (size_ % kBlockRows == 0) open_block(false);
  blocks_.back().push_back(r);
  bounds_.add(r);
  ++size_;
}

void ColumnStore::open_block(bool aux) {
  Columns::each(blocks_.emplace_back(), aux,
                [](auto& col, Columns::Id) { col.reserve(kBlockRows); });
}

void ColumnStore::append(std::span<const trace::Record> records,
                         std::span<const std::uint32_t> path_idx,
                         std::span<const std::uint64_t> file_sizes) {
  WASP_CHECK_MSG(records.size() == path_idx.size() &&
                     records.size() == file_sizes.size(),
                 "aux columns must parallel the record span");
  WASP_CHECK_MSG(blocks_.empty() || blocks_.back().view(0).path_idx != nullptr,
                 "appending log rows to a store of tracer records");
  bounds_.add(records);
  for (std::size_t i = 0; i < records.size();) {
    if (size_ % kBlockRows == 0) open_block(true);
    const std::size_t n =
        std::min(records.size() - i, kBlockRows - size_ % kBlockRows);
    blocks_.back().append(records.subspan(i, n), path_idx.subspan(i, n),
                          file_sizes.subspan(i, n));
    i += n;
    size_ += n;
  }
}

ChunkHandle ColumnStore::chunk(std::size_t chunk_index) const {
  WASP_CHECK_MSG(chunk_index < blocks_.size(), "chunk index out of range");
  // The pin stays null: views borrow the store's own blocks.
  return {blocks_[chunk_index].view(chunk_index * kBlockRows), nullptr};
}

}  // namespace wasp::analysis
