// Minimal YAML reader — parses the subset our yaml::Writer emits
// (indentation-nested maps, sequences of maps, scalar leaves, quoted
// strings). This is what lets a storage system load a characterization
// file produced by another run/tool and configure itself from it.
#pragma once

#include <map>
#include <memory>
#include <string>
#include <vector>

namespace wasp::util::yaml {

class Node {
 public:
  enum class Kind { kScalar, kMap, kSeq };

  Kind kind() const noexcept { return kind_; }
  bool is_scalar() const noexcept { return kind_ == Kind::kScalar; }
  bool is_map() const noexcept { return kind_ == Kind::kMap; }
  bool is_seq() const noexcept { return kind_ == Kind::kSeq; }

  /// Scalar value (throws on non-scalars).
  const std::string& scalar() const;

  /// Map access: nullptr when the key is absent or this is not a map.
  const Node* find(const std::string& key) const;

  /// Sequence elements (empty when not a sequence).
  const std::vector<Node>& items() const noexcept { return seq_; }
  /// Map entries in document order.
  const std::vector<std::pair<std::string, Node>>& entries() const noexcept {
    return map_;
  }

  // Construction (used by the parser and tests).
  static Node make_scalar(std::string value);
  static Node make_map();
  static Node make_seq();
  Node& add_entry(const std::string& key, Node value);
  Node& add_item(Node value);

 private:
  Kind kind_ = Kind::kScalar;
  std::string scalar_;
  std::vector<std::pair<std::string, Node>> map_;
  std::vector<Node> seq_;
};

/// Parse a document; throws SimError on input outside the supported subset.
Node parse(const std::string& text);

}  // namespace wasp::util::yaml
