// Trace record storage and the read view every trace consumer walks.
//
// RecordBlocks is the tracer's buffer: records append into fixed blocks of
// kBlockRecords, so a growing trace never copies a record and every block
// is the same size (a freed block is an ordinary heap chunk the next run's
// tracer reuses). RecordView presents records as consecutive contiguous
// pieces — the tracer's blocks, or one span over a vector — and is what
// transposition (analysis::ColumnStore::from_records) and the spill
// store's record append read.
#pragma once

#include <cstddef>
#include <iterator>
#include <span>
#include <vector>

#include "trace/record.hpp"

namespace wasp::trace {

class RecordBlocks {
 public:
  static constexpr std::size_t kBlockShift = 16;
  static constexpr std::size_t kBlockRecords = std::size_t{1} << kBlockShift;

  class Iterator {
   public:
    using iterator_category = std::forward_iterator_tag;
    using value_type = Record;
    using difference_type = std::ptrdiff_t;
    using pointer = const Record*;
    using reference = const Record&;

    Iterator() = default;
    Iterator(const RecordBlocks* blocks, std::size_t i) noexcept
        : blocks_(blocks), i_(i) {}
    reference operator*() const noexcept { return (*blocks_)[i_]; }
    pointer operator->() const noexcept { return &(*blocks_)[i_]; }
    Iterator& operator++() noexcept {
      ++i_;
      return *this;
    }
    Iterator operator++(int) noexcept {
      Iterator old = *this;
      ++i_;
      return old;
    }
    bool operator==(const Iterator& o) const noexcept { return i_ == o.i_; }

   private:
    const RecordBlocks* blocks_ = nullptr;
    std::size_t i_ = 0;
  };

  void push_back(const Record& r) {
    if (blocks_.empty() || blocks_.back().size() == kBlockRecords) {
      blocks_.emplace_back().reserve(kBlockRecords);
    }
    blocks_.back().push_back(r);
    ++size_;
  }

  std::size_t size() const noexcept { return size_; }
  bool empty() const noexcept { return size_ == 0; }
  const Record& operator[](std::size_t i) const noexcept {
    return blocks_[i >> kBlockShift][i & (kBlockRecords - 1)];
  }
  Iterator begin() const noexcept { return {this, 0}; }
  Iterator end() const noexcept { return {this, size_}; }

  /// Filled blocks, in record order; every block but the last is full.
  std::size_t num_blocks() const noexcept { return blocks_.size(); }
  std::span<const Record> block(std::size_t b) const noexcept {
    return blocks_[b];
  }

 private:
  std::vector<std::vector<Record>> blocks_;
  std::size_t size_ = 0;
};

/// Records as consecutive contiguous pieces. Borrows the storage it views.
class RecordView {
 public:
  RecordView() = default;
  RecordView(std::span<const Record> records) { add(records); }
  RecordView(const std::vector<Record>& records)
      : RecordView(std::span<const Record>(records)) {}
  RecordView(const RecordBlocks& blocks) {
    pieces_.reserve(blocks.num_blocks());
    for (std::size_t b = 0; b < blocks.num_blocks(); ++b) add(blocks.block(b));
  }

  std::size_t size() const noexcept { return size_; }
  /// Non-empty pieces in record order.
  const std::vector<std::span<const Record>>& pieces() const noexcept {
    return pieces_;
  }

 private:
  void add(std::span<const Record> piece) {
    if (piece.empty()) return;
    pieces_.push_back(piece);
    size_ += piece.size();
  }

  std::vector<std::span<const Record>> pieces_;
  std::size_t size_ = 0;
};

}  // namespace wasp::trace
