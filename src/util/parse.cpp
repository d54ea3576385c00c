#include "util/parse.hpp"

#include <cctype>
#include <cerrno>
#include <cstdlib>
#include <iostream>

namespace wasp::util {
namespace {

/// Split "<number><suffix>" -> (value, suffix); nullopt if no number.
std::optional<std::pair<double, std::string>> split_number(
    const std::string& text) {
  const char* begin = text.c_str();
  char* end = nullptr;
  const double v = std::strtod(begin, &end);
  if (end == begin) return std::nullopt;
  std::string suffix(end);
  // Trim surrounding whitespace from the suffix.
  while (!suffix.empty() && std::isspace(static_cast<unsigned char>(
                                suffix.front()))) {
    suffix.erase(suffix.begin());
  }
  while (!suffix.empty() &&
         std::isspace(static_cast<unsigned char>(suffix.back()))) {
    suffix.pop_back();
  }
  return std::make_pair(v, suffix);
}

}  // namespace

std::optional<Bytes> parse_bytes(const std::string& text) {
  auto parsed = split_number(text);
  if (!parsed) return std::nullopt;
  auto [v, suffix] = *parsed;
  double mult = 0;
  if (suffix == "B") {
    mult = 1;
  } else if (suffix == "KB") {
    mult = 1e3;
  } else if (suffix == "MB") {
    mult = 1e6;
  } else if (suffix == "GB") {
    mult = 1e9;
  } else if (suffix == "TB") {
    mult = 1e12;
  } else if (suffix == "PB") {
    mult = 1e15;
  } else {
    return std::nullopt;
  }
  // Negative, NaN, or too large for Bytes (the cast would be undefined).
  if (!(v >= 0) || v * mult >= 18446744073709551616.0) return std::nullopt;
  return static_cast<Bytes>(v * mult + 0.5);
}

std::optional<double> parse_seconds(const std::string& text) {
  auto parsed = split_number(text);
  if (!parsed) return std::nullopt;
  auto [v, suffix] = *parsed;
  if (suffix == "s" || suffix == "sec") return v;
  if (suffix == "ms") return v * 1e-3;
  if (suffix == "us") return v * 1e-6;
  if (suffix == "ns") return v * 1e-9;
  if (suffix == "min") return v * 60;
  if (suffix == "hr" || suffix == "h") return v * 3600;
  return std::nullopt;
}

std::optional<double> parse_percent(const std::string& text) {
  auto parsed = split_number(text);
  if (!parsed || parsed->second != "%") return std::nullopt;
  return parsed->first / 100.0;
}

std::optional<double> parse_rate(const std::string& text) {
  const auto slash = text.rfind("/s");
  if (slash == std::string::npos) return std::nullopt;
  auto bytes = parse_bytes(text.substr(0, slash));
  if (!bytes) return std::nullopt;
  return static_cast<double>(*bytes);
}

std::optional<double> parse_ops_dist(const std::string& text) {
  // "<p>% data, <q>% meta"
  const auto comma = text.find(',');
  if (comma == std::string::npos) return std::nullopt;
  const auto data_pos = text.find("data");
  if (data_pos == std::string::npos || data_pos > comma) {
    return std::nullopt;
  }
  return parse_percent(text.substr(0, text.find('%') + 1));
}

std::optional<std::pair<std::uint64_t, std::uint64_t>> parse_fpp_shared(
    const std::string& text) {
  const auto slash = text.find('/');
  if (slash == std::string::npos) return std::nullopt;
  const auto fpp = parse_uint(text.substr(0, slash));
  const auto shared = parse_uint(text.substr(slash + 1));
  if (!fpp || !shared) return std::nullopt;
  return std::make_pair(*fpp, *shared);
}

std::optional<long long> parse_int(const std::string& text) {
  // strtoll alone would also skip leading blanks and take a '+'.
  const std::size_t first = !text.empty() && text.front() == '-' ? 1 : 0;
  if (first >= text.size() ||
      std::isdigit(static_cast<unsigned char>(text[first])) == 0) {
    return std::nullopt;
  }
  errno = 0;
  char* end = nullptr;
  const long long v = std::strtoll(text.c_str(), &end, 10);
  if (end != text.c_str() + text.size() || errno == ERANGE) {
    return std::nullopt;
  }
  return v;
}

std::optional<unsigned long long> parse_uint(const std::string& text) {
  // strtoull alone would also take a sign and wrap " -1" to 2^64 - 1.
  if (text.empty() ||
      std::isdigit(static_cast<unsigned char>(text.front())) == 0) {
    return std::nullopt;
  }
  errno = 0;
  char* end = nullptr;
  const unsigned long long v = std::strtoull(text.c_str(), &end, 10);
  if (end != text.c_str() + text.size() || errno == ERANGE) {
    return std::nullopt;
  }
  return v;
}

namespace {

[[noreturn]] void bad_cli_value(const std::string& flag,
                                const std::string& text, void (*usage)()) {
  std::cerr << "bad value for " << flag << ": '" << text
            << "' (expected an integer)\n";
  if (usage != nullptr) usage();
  std::exit(2);
}

}  // namespace

long long cli_int(const std::string& flag, const std::string& text,
                  void (*usage)()) {
  const auto v = parse_int(text);
  if (!v) bad_cli_value(flag, text, usage);
  return *v;
}

unsigned long long cli_uint(const std::string& flag, const std::string& text,
                            void (*usage)()) {
  const auto v = parse_uint(text);
  if (!v) bad_cli_value(flag, text, usage);
  return *v;
}

}  // namespace wasp::util
