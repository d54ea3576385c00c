// Reverse parsers for the human-readable value formats the entity tables
// and YAML emitter produce ("16MB", "664s", "75% data, 25% meta", ...).
// Inverse of util/units.hpp formatters; round-trip is tested.
#pragma once

#include <optional>
#include <string>

#include "util/units.hpp"

namespace wasp::util {

/// "16MB" / "1.5TB" / "4.10KB" / "632B" -> bytes (decimal units).
std::optional<Bytes> parse_bytes(const std::string& text);

/// "664s" / "450ms" / "300us" / "2hr" -> seconds.
std::optional<double> parse_seconds(const std::string& text);

/// "75%" / "1.5%" -> fraction in [0,1].
std::optional<double> parse_percent(const std::string& text);

/// "64GB/s" -> bytes per second.
std::optional<double> parse_rate(const std::string& text);

/// "30% data, 70% meta" -> the data fraction.
std::optional<double> parse_ops_dist(const std::string& text);

/// "737/37" -> (fpp, shared).
std::optional<std::pair<std::uint64_t, std::uint64_t>> parse_fpp_shared(
    const std::string& text);

/// Strict base-10 integer parse: the whole string must be digits (after
/// one leading '-' for parse_int), no blanks, no '+', no trailing junk, no
/// overflow. Unlike std::stoi these never throw — CLIs use them to reject
/// "--jobs banana" gracefully.
std::optional<long long> parse_int(const std::string& text);
std::optional<unsigned long long> parse_uint(const std::string& text);

/// Checked CLI numeric parse: on malformed input prints
/// "bad value for <flag>: '<text>' (expected an integer)" to stderr,
/// invokes `usage` when given, and exits 2.
long long cli_int(const std::string& flag, const std::string& text,
                  void (*usage)() = nullptr);
unsigned long long cli_uint(const std::string& flag, const std::string& text,
                            void (*usage)() = nullptr);

}  // namespace wasp::util
