// Dense keyed containers for the analyzer's hot loops: open-addressed
// variants of the small ordered containers the scan kernels would otherwise
// hammer row by row. All of them trade the ordered containers'
// per-row log(n) tree walks (and per-node allocations) for one hash probe,
// then let the caller sort the surviving keys once per chunk/cluster — which
// reproduces the exact iteration order the ordered container would have
// had, keeping profiles byte-identical.
#pragma once

#include <algorithm>
#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

namespace wasp::analysis::dense {

inline std::uint64_t mix64(std::uint64_t x) noexcept {
  // splitmix64 finalizer — cheap and well-distributed for interning keys.
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

/// Open-addressed set of int32 ids (ranks).
class IdSet {
 public:
  void insert(std::int32_t v) {
    if (slots_.empty()) {
      slots_.assign(16, kEmpty);
    } else if ((size_ + 1) * 4 > slots_.size() * 3) {
      rehash(slots_.size() * 2);
    }
    std::int32_t& slot = slots_[probe(v)];
    if (slot == kEmpty) {
      slot = v;
      ++size_;
    }
  }
  bool empty() const noexcept { return size_ == 0; }
  std::size_t size() const noexcept { return size_; }
  /// Forget the members but keep the capacity (for per-cluster reuse).
  void clear() noexcept {
    std::fill(slots_.begin(), slots_.end(), kEmpty);
    size_ = 0;
  }
  /// Members in ascending (signed) order.
  std::vector<std::int32_t> sorted() const {
    std::vector<std::int32_t> out;
    out.reserve(size_);
    for (const std::int32_t v : slots_) {
      if (v != kEmpty) out.push_back(v);
    }
    std::sort(out.begin(), out.end());
    return out;
  }

 private:
  static constexpr std::int32_t kEmpty =
      std::numeric_limits<std::int32_t>::min();
  std::size_t probe(std::int32_t v) const noexcept {
    const std::size_t mask = slots_.size() - 1;
    std::size_t i = mix64(static_cast<std::uint32_t>(v)) & mask;
    while (slots_[i] != kEmpty && slots_[i] != v) i = (i + 1) & mask;
    return i;
  }
  void rehash(std::size_t cap) {
    std::vector<std::int32_t> old = std::move(slots_);
    slots_.assign(cap, kEmpty);
    for (const std::int32_t v : old) {
      if (v != kEmpty) slots_[probe(v)] = v;
    }
  }
  std::vector<std::int32_t> slots_;
  std::size_t size_ = 0;
};

/// Open-addressed map from a uint64 key to V. Values accumulate in row
/// order per key (exactly like the std::map they replace); iteration order
/// is up to the caller, who sorts the items once per chunk.
template <typename V>
class FlatMap64 {
 public:
  /// Value slot for `key`, default-constructed on first touch.
  V& at_key(std::uint64_t key, bool& fresh) {
    if (slots_.empty()) {
      slots_.resize(16);
    } else if ((size_ + 1) * 4 > slots_.size() * 3) {
      rehash(slots_.size() * 2);
    }
    Slot& s = slots_[probe(key)];
    fresh = !s.used;
    if (!s.used) {
      s.used = true;
      s.key = key;
      s.value = V{};  // slots are recycled across clear()
      ++size_;
    }
    return s.value;
  }
  V& operator[](std::uint64_t key) {
    bool fresh;
    return at_key(key, fresh);
  }
  bool empty() const noexcept { return size_ == 0; }
  /// Forget the entries but keep the capacity (for per-cluster reuse).
  void clear() noexcept {
    for (Slot& s : slots_) s.used = false;
    size_ = 0;
  }
  /// All (key, value) items, unsorted.
  std::vector<std::pair<std::uint64_t, V>> items() const {
    std::vector<std::pair<std::uint64_t, V>> out;
    out.reserve(size_);
    for (const Slot& s : slots_) {
      if (s.used) out.emplace_back(s.key, s.value);
    }
    return out;
  }

 private:
  struct Slot {
    std::uint64_t key = 0;
    V value{};
    bool used = false;
  };
  std::size_t probe(std::uint64_t key) const noexcept {
    const std::size_t mask = slots_.size() - 1;
    std::size_t i = mix64(key) & mask;
    while (slots_[i].used && slots_[i].key != key) i = (i + 1) & mask;
    return i;
  }
  void rehash(std::size_t cap) {
    std::vector<Slot> old = std::move(slots_);
    slots_.clear();
    slots_.resize(cap);
    for (Slot& s : old) {
      if (s.used) slots_[probe(s.key)] = std::move(s);
    }
  }
  std::vector<Slot> slots_;
  std::size_t size_ = 0;
};

}  // namespace wasp::analysis::dense
