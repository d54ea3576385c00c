// Minimal YAML emitter — enough to serialize the entity/attribute
// characterization the way the Vani Analyzer emits its YAML feature files.
// Only the subset we produce (nested maps, sequences, scalar leaves) is
// supported; no anchors, no flow style.
#pragma once

#include <cstdint>
#include <sstream>
#include <string>

namespace wasp::util::yaml {

class Writer {
 public:
  /// Begin a nested map under `key`.
  void begin_map(const std::string& key);
  void end_map();

  /// Begin a sequence under `key`; entries are added with seq_item_map /
  /// scalar_item.
  void begin_seq(const std::string& key);
  void end_seq();

  /// Begin a map that is an element of the current sequence.
  void begin_seq_item_map();

  void scalar(const std::string& key, const std::string& value);
  void scalar(const std::string& key, const char* value) {
    scalar(key, std::string(value));
  }
  void scalar(const std::string& key, std::int64_t value);
  void scalar(const std::string& key, std::uint64_t value);
  void scalar(const std::string& key, int value) {
    scalar(key, static_cast<std::int64_t>(value));
  }
  void scalar(const std::string& key, double value);
  void scalar(const std::string& key, bool value);

  /// Sequence element that is a plain scalar.
  void scalar_item(const std::string& value);

  std::string str() const { return out_.str(); }

 private:
  void indent();
  static std::string quote(const std::string& v);

  std::ostringstream out_;
  int depth_ = 0;
  // True when the next emitted line is a "- " sequence element.
  bool pending_item_ = false;
};

}  // namespace wasp::util::yaml
