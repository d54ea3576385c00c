// Dependency-free per-column codecs for WSPCHK02 spill chunk files.
//
// Every column value is read as its canonical uint64 (bit pattern for
// signed types, underlying value for enums — lossless both ways), and the
// column is stored with one of three schemes, chosen per column by encoded
// size:
//
//   kRaw    — the original fixed-width array bytes (always available).
//   kDelta  — zigzag(varint) of consecutive differences; near-free for
//             monotone columns (tstart/tend) and offset runs.
//   kRle    — (varint run-length, varint value) pairs; collapses
//             low-cardinality columns (app/iface/op/fs) to almost nothing.
//
// The kernels work on the typed column itself: measure() sizes all three
// schemes in one pass without building a payload, the encoders then write
// only the chosen payload into caller memory, and the decoders write
// straight into the typed column. No widened copy of a column is made.
//
// Decoders are defensive: they validate against the expected row count and
// buffer bounds and throw util::SimError on any malformed input, so a
// corrupt chunk file fails loudly instead of mis-decoding.
#pragma once

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <type_traits>

namespace wasp::analysis::codec {

enum class Encoding : std::uint8_t { kRaw = 0, kDelta = 1, kRle = 2 };

/// Widen a column element to its canonical uint64 representation: enums go
/// through their underlying type, signed integers through the same-width
/// unsigned type (two's complement bit pattern), so narrow(widen(v)) == v.
template <typename T>
constexpr std::uint64_t widen(T v) noexcept {
  if constexpr (std::is_enum_v<T>) {
    using U = std::make_unsigned_t<std::underlying_type_t<T>>;
    return static_cast<std::uint64_t>(static_cast<U>(v));
  } else {
    static_assert(std::is_integral_v<T>);
    return static_cast<std::uint64_t>(static_cast<std::make_unsigned_t<T>>(v));
  }
}

template <typename T>
constexpr T narrow(std::uint64_t u) noexcept {
  if constexpr (std::is_enum_v<T>) {
    using U = std::make_unsigned_t<std::underlying_type_t<T>>;
    return static_cast<T>(
        static_cast<std::underlying_type_t<T>>(static_cast<U>(u)));
  } else {
    static_assert(std::is_integral_v<T>);
    return static_cast<T>(static_cast<std::make_unsigned_t<T>>(u));
  }
}

constexpr std::uint64_t zigzag(std::int64_t v) noexcept {
  return (static_cast<std::uint64_t>(v) << 1) ^
         static_cast<std::uint64_t>(v >> 63);
}
constexpr std::int64_t unzigzag(std::uint64_t u) noexcept {
  return static_cast<std::int64_t>(u >> 1) ^
         -static_cast<std::int64_t>(u & 1);
}

/// Longest LEB128 encoding of a uint64.
constexpr std::size_t kMaxVarintBytes = 10;

/// Bytes put_varint writes for v: one per started 7-bit group.
constexpr std::size_t varint_size(std::uint64_t v) noexcept {
  return 1 + (static_cast<std::size_t>(std::bit_width(v | 1)) - 1) / 7;
}

/// Write v as a LEB128 varint at p (room for varint_size(v) bytes); returns
/// one past its last byte.
inline std::uint8_t* put_varint(std::uint8_t* p, std::uint64_t v) noexcept {
  while (v >= 0x80) {
    *p++ = static_cast<std::uint8_t>(v) | 0x80;
    v >>= 7;
  }
  *p++ = static_cast<std::uint8_t>(v);
  return p;
}

namespace detail {
// Out-of-line throw paths, so the inlined decode loops stay small.
[[noreturn, gnu::cold]] void varint_past_end();
[[noreturn, gnu::cold]] void varint_overlong();
[[noreturn, gnu::cold]] void delta_trailing_bytes();
[[noreturn, gnu::cold]] void rle_run_out_of_range();
[[noreturn, gnu::cold]] void rle_trailing_bytes();
}  // namespace detail

/// Bounds-checked LEB128 read: throws SimError past `end` or on a >10-byte
/// encoding. Advances p past the varint.
inline std::uint64_t get_varint(const std::uint8_t*& p,
                                const std::uint8_t* end) {
  std::uint64_t v = 0;
  for (unsigned shift = 0; shift < 64; shift += 7) {
    if (p == end) detail::varint_past_end();
    const std::uint8_t b = *p++;
    v |= static_cast<std::uint64_t>(b & 0x7f) << shift;
    if (b < 0x80) return v;
  }
  detail::varint_overlong();
}

/// Payload bytes of one column under each encoding.
struct EncodedSizes {
  std::uint64_t raw = 0;
  std::uint64_t delta = 0;
  std::uint64_t rle = 0;

  /// The encoding a column is stored in: kDelta only when strictly smaller
  /// than kRaw, kRle only when strictly smaller than the best so far.
  Encoding smallest() const noexcept {
    Encoding enc = Encoding::kRaw;
    std::uint64_t best = raw;
    if (delta < best) {
      enc = Encoding::kDelta;
      best = delta;
    }
    if (rle < best) enc = Encoding::kRle;
    return enc;
  }
  std::uint64_t of(Encoding enc) const noexcept {
    return enc == Encoding::kDelta ? delta
                                   : enc == Encoding::kRle ? rle : raw;
  }
};

/// Size every encoding of vals[0, n) in one pass, building no payload.
template <typename T>
EncodedSizes measure(const T* vals, std::size_t n) noexcept {
  EncodedSizes s;
  s.raw = n * sizeof(T);
  if (n == 0) return s;
  std::uint64_t prev = 0;
  std::uint64_t run_value = widen(vals[0]);
  std::uint64_t run = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint64_t v = widen(vals[i]);
    s.delta += varint_size(zigzag(static_cast<std::int64_t>(v - prev)));
    prev = v;
    if (v != run_value) {
      s.rle += varint_size(run) + varint_size(run_value);
      run_value = v;
      run = 0;
    }
    ++run;
  }
  s.rle += varint_size(run) + varint_size(run_value);
  return s;
}

/// Write the kDelta payload of vals[0, n) at out, which has room for
/// measure(vals, n).delta bytes: zigzag varints of wrapping consecutive
/// differences, the first against 0. Returns one past the last byte.
template <typename T>
std::uint8_t* encode_delta(const T* vals, std::size_t n,
                           std::uint8_t* out) noexcept {
  std::uint64_t prev = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint64_t v = widen(vals[i]);
    out = put_varint(out, zigzag(static_cast<std::int64_t>(v - prev)));
    prev = v;
  }
  return out;
}

/// Write the kRle payload of vals[0, n) at out, which has room for
/// measure(vals, n).rle bytes: (run length, value) varint pairs. Returns one
/// past the last byte.
template <typename T>
std::uint8_t* encode_rle(const T* vals, std::size_t n,
                         std::uint8_t* out) noexcept {
  std::size_t i = 0;
  while (i < n) {
    std::size_t run = 1;
    while (i + run < n && vals[i + run] == vals[i]) ++run;
    out = put_varint(out, run);
    out = put_varint(out, widen(vals[i]));
    i += run;
  }
  return out;
}

/// Decode exactly n values of a kDelta payload into out; throws SimError on
/// truncation, overrun, or trailing bytes.
template <typename T>
void decode_delta(const std::uint8_t* data, std::size_t len, T* out,
                  std::size_t n) {
  const std::uint8_t* p = data;
  const std::uint8_t* const end = data + len;
  std::uint64_t prev = 0;
  for (std::size_t i = 0; i < n; ++i) {
    prev += static_cast<std::uint64_t>(unzigzag(get_varint(p, end)));
    out[i] = narrow<T>(prev);
  }
  if (p != end) detail::delta_trailing_bytes();
}

/// Decode exactly n values of a kRle payload into out; throws SimError on a
/// zero or overlong run, truncation, or trailing bytes.
template <typename T>
void decode_rle(const std::uint8_t* data, std::size_t len, T* out,
                std::size_t n) {
  const std::uint8_t* p = data;
  const std::uint8_t* const end = data + len;
  std::size_t produced = 0;
  while (produced < n) {
    const std::uint64_t run = get_varint(p, end);
    if (run == 0 || run > n - produced) detail::rle_run_out_of_range();
    const T v = narrow<T>(get_varint(p, end));
    std::fill_n(out + produced, run, v);
    produced += run;
  }
  if (p != end) detail::rle_trailing_bytes();
}

/// Upper bound on a well-formed kDelta/kRle payload for n rows — used to
/// reject absurd lengths from corrupt chunk headers before allocating, and
/// to size encode buffers.
constexpr std::uint64_t max_encoded_bytes(std::uint64_t n) noexcept {
  return 16 + 11 * n;
}

}  // namespace wasp::analysis::codec
