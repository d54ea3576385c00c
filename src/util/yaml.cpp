#include "util/yaml.hpp"

#include <cctype>
#include <cstdio>
#include <vector>

#include "util/error.hpp"

namespace wasp::util::yaml {
namespace {

bool needs_quotes(const std::string& v) {
  if (v.empty()) return true;
  for (char c : v) {
    if (c == ':' || c == '#' || c == '\'' || c == '"' || c == '\n' ||
        c == '{' || c == '}' || c == '[' || c == ']') {
      return true;
    }
  }
  return std::isspace(static_cast<unsigned char>(v.front())) != 0 ||
         std::isspace(static_cast<unsigned char>(v.back())) != 0;
}

}  // namespace

// A writer's whole layout state is depth_ (two columns of indent per level)
// and pending_item_: the next line opens a sequence item, so the last two
// columns of its indent become "- ".

void Writer::indent() {
  for (int i = 0; i < depth_; ++i) out_ << "  ";
  if (pending_item_) {
    // Replace the last two spaces with the sequence marker.
    out_.seekp(-2, std::ios_base::cur);
    out_ << "- ";
    pending_item_ = false;
  }
}

std::string Writer::quote(const std::string& v) {
  if (!needs_quotes(v)) return v;
  std::string out = "\"";
  for (char c : v) {
    if (c == '"' || c == '\\') out += '\\';
    if (c == '\n') {
      out += "\\n";
      continue;
    }
    out += c;
  }
  out += '"';
  return out;
}

void Writer::begin_map(const std::string& key) {
  indent();
  out_ << key << ":\n";
  ++depth_;
}

void Writer::end_map() {
  WASP_CHECK(depth_ > 0);
  --depth_;
}

void Writer::begin_seq(const std::string& key) {
  indent();
  out_ << key << ":\n";
  ++depth_;
}

void Writer::end_seq() {
  WASP_CHECK(depth_ > 0);
  --depth_;
}

void Writer::begin_seq_item_map() {
  pending_item_ = true;
  ++depth_;
}

void Writer::scalar(const std::string& key, const std::string& value) {
  indent();
  out_ << key << ": " << quote(value) << '\n';
}

void Writer::scalar(const std::string& key, std::int64_t value) {
  indent();
  out_ << key << ": " << value << '\n';
}

void Writer::scalar(const std::string& key, std::uint64_t value) {
  indent();
  out_ << key << ": " << value << '\n';
}

void Writer::scalar(const std::string& key, double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6g", value);
  indent();
  out_ << key << ": " << buf << '\n';
}

void Writer::scalar(const std::string& key, bool value) {
  indent();
  out_ << key << ": " << (value ? "true" : "false") << '\n';
}

void Writer::scalar_item(const std::string& value) {
  indent();
  out_ << "- " << quote(value) << '\n';
}

}  // namespace wasp::util::yaml
