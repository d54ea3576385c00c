// Unit tests for the WSPCHK02 per-column codecs: widen/narrow round trips
// across signed and enum types, varint/zigzag edge values, delta and RLE
// encode/decode, measure() agreeing with the encoders on typed columns,
// the tie rules of the encoding choice, and defensive rejection of corrupt
// payloads.
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <vector>

#include "analysis/chunk_codec.hpp"
#include "trace/record.hpp"
#include "util/error.hpp"

namespace wasp::analysis::codec {
namespace {

void append_varint(std::vector<std::uint8_t>& out, std::uint64_t v) {
  std::uint8_t bytes[kMaxVarintBytes];
  out.insert(out.end(), bytes, put_varint(bytes, v));
}

std::vector<std::uint8_t> delta_payload(
    const std::vector<std::uint64_t>& vals) {
  std::vector<std::uint8_t> out(max_encoded_bytes(vals.size()));
  out.resize(static_cast<std::size_t>(
      encode_delta(vals.data(), vals.size(), out.data()) - out.data()));
  return out;
}

std::vector<std::uint8_t> rle_payload(
    const std::vector<std::uint64_t>& vals) {
  std::vector<std::uint8_t> out(max_encoded_bytes(vals.size()));
  out.resize(static_cast<std::size_t>(
      encode_rle(vals.data(), vals.size(), out.data()) - out.data()));
  return out;
}

TEST(ChunkCodec, WidenNarrowRoundTripsSignedAndEnums) {
  for (std::int32_t v : {0, 1, -1, 42, -12345,
                         std::numeric_limits<std::int32_t>::min(),
                         std::numeric_limits<std::int32_t>::max()}) {
    EXPECT_EQ(narrow<std::int32_t>(widen(v)), v);
  }
  for (std::int16_t v : {std::int16_t{-1}, std::int16_t{0}, std::int16_t{7},
                         std::numeric_limits<std::int16_t>::min()}) {
    EXPECT_EQ(narrow<std::int16_t>(widen(v)), v);
  }
  for (std::uint64_t v : {std::uint64_t{0}, std::uint64_t{1},
                          std::numeric_limits<std::uint64_t>::max()}) {
    EXPECT_EQ(narrow<std::uint64_t>(widen(v)), v);
  }
  EXPECT_EQ(narrow<trace::Op>(widen(trace::Op::kWrite)), trace::Op::kWrite);
  EXPECT_EQ(narrow<trace::Iface>(widen(trace::Iface::kMpiio)),
            trace::Iface::kMpiio);
  // Negative values widen to their bit pattern, never truncate.
  EXPECT_EQ(widen(std::int16_t{-1}), 0xffffull);
  EXPECT_EQ(widen(std::int32_t{-1}), 0xffffffffull);
}

TEST(ChunkCodec, VarintRoundTripsEdgeValues) {
  const std::uint64_t cases[] = {0,   1,    127,        128,
                                 255, 300,  16383,      16384,
                                 (1ull << 32) - 1,      1ull << 32,
                                 std::numeric_limits<std::uint64_t>::max()};
  std::vector<std::uint8_t> buf;
  for (std::uint64_t v : cases) append_varint(buf, v);
  const std::uint8_t* p = buf.data();
  const std::uint8_t* end = buf.data() + buf.size();
  for (std::uint64_t v : cases) {
    EXPECT_EQ(get_varint(p, end), v);
  }
  EXPECT_EQ(p, end);
  // One byte per value <= 127, ten bytes at the top end.
  std::vector<std::uint8_t> one;
  append_varint(one, 127);
  EXPECT_EQ(one.size(), 1u);
  std::vector<std::uint8_t> ten;
  append_varint(ten, std::numeric_limits<std::uint64_t>::max());
  EXPECT_EQ(ten.size(), 10u);
}

TEST(ChunkCodec, VarintRejectsTruncationAndOverlongEncodings) {
  std::vector<std::uint8_t> buf;
  append_varint(buf, 1ull << 40);  // multi-byte
  for (std::size_t cut = 0; cut < buf.size(); ++cut) {
    const std::uint8_t* p = buf.data();
    EXPECT_THROW(get_varint(p, p + cut), util::SimError) << "cut " << cut;
  }
  // Eleven continuation bytes can never be a valid 64-bit varint.
  const std::vector<std::uint8_t> overlong(11, 0x80);
  const std::uint8_t* p = overlong.data();
  EXPECT_THROW(get_varint(p, p + overlong.size()), util::SimError);
}

TEST(ChunkCodec, ZigzagOrdersSmallMagnitudesFirst) {
  EXPECT_EQ(zigzag(0), 0u);
  EXPECT_EQ(zigzag(-1), 1u);
  EXPECT_EQ(zigzag(1), 2u);
  EXPECT_EQ(zigzag(-2), 3u);
  for (std::int64_t v : {std::int64_t{0}, std::int64_t{-1}, std::int64_t{1},
                         std::numeric_limits<std::int64_t>::min(),
                         std::numeric_limits<std::int64_t>::max()}) {
    EXPECT_EQ(unzigzag(zigzag(v)), v);
  }
}

TEST(ChunkCodec, DeltaRoundTripsAndCompressesMonotoneColumns) {
  // A monotone "tstart"-like column with small steps.
  std::vector<std::uint64_t> vals;
  std::uint64_t t = 1ull << 50;
  for (int i = 0; i < 1000; ++i) {
    t += 17 + static_cast<std::uint64_t>(i % 5);
    vals.push_back(t);
  }
  const auto enc = delta_payload(vals);
  // ~2 bytes/value after the first: far below the 8-byte raw footprint.
  EXPECT_LT(enc.size(), vals.size() * 3);
  std::vector<std::uint64_t> out(vals.size());
  decode_delta(enc.data(), enc.size(), out.data(), out.size());
  EXPECT_EQ(out, vals);
}

TEST(ChunkCodec, DeltaHandlesWrapAndExtremes) {
  const std::vector<std::uint64_t> vals = {
      std::numeric_limits<std::uint64_t>::max(), 0, 5,
      std::numeric_limits<std::uint64_t>::max(), 1, 1};
  const auto enc = delta_payload(vals);
  std::vector<std::uint64_t> out(vals.size());
  decode_delta(enc.data(), enc.size(), out.data(), out.size());
  EXPECT_EQ(out, vals);
}

TEST(ChunkCodec, DeltaRejectsTruncatedAndTrailingPayloads) {
  const std::vector<std::uint64_t> vals = {10, 20, 30, 40};
  const auto enc = delta_payload(vals);
  std::vector<std::uint64_t> out(vals.size());
  // Truncated: fewer bytes than values.
  EXPECT_THROW(decode_delta(enc.data(), enc.size() - 1, out.data(), 4),
               util::SimError);
  // Trailing garbage after the expected count.
  auto padded = enc;
  padded.push_back(0);
  EXPECT_THROW(decode_delta(padded.data(), padded.size(), out.data(), 4),
               util::SimError);
}

TEST(ChunkCodec, RleRoundTripsAndCollapsesRuns) {
  std::vector<std::uint64_t> vals(5000, 3);
  for (std::size_t i = 2000; i < 3000; ++i) vals[i] = 7;
  const auto enc = rle_payload(vals);
  EXPECT_LT(enc.size(), 16u);  // three (run, value) pairs
  std::vector<std::uint64_t> out(vals.size());
  decode_rle(enc.data(), enc.size(), out.data(), out.size());
  EXPECT_EQ(out, vals);

  // Worst case (no runs) still round-trips.
  std::vector<std::uint64_t> mixed;
  for (std::uint64_t i = 0; i < 257; ++i) mixed.push_back(i * 1315423911u);
  const auto enc2 = rle_payload(mixed);
  std::vector<std::uint64_t> out2(mixed.size());
  decode_rle(enc2.data(), enc2.size(), out2.data(), out2.size());
  EXPECT_EQ(out2, mixed);
}

TEST(ChunkCodec, RleRejectsMalformedRuns) {
  std::vector<std::uint64_t> out(10);
  // Run length 0 is never produced by the encoder.
  std::vector<std::uint8_t> zero_run;
  append_varint(zero_run, 0);
  append_varint(zero_run, 42);
  EXPECT_THROW(decode_rle(zero_run.data(), zero_run.size(), out.data(), 10),
               util::SimError);
  // Run overflowing the expected row count.
  std::vector<std::uint8_t> too_long;
  append_varint(too_long, 11);
  append_varint(too_long, 42);
  EXPECT_THROW(decode_rle(too_long.data(), too_long.size(), out.data(), 10),
               util::SimError);
  // Payload ends before producing all rows.
  std::vector<std::uint8_t> short_payload;
  append_varint(short_payload, 4);
  append_varint(short_payload, 42);
  EXPECT_THROW(
      decode_rle(short_payload.data(), short_payload.size(), out.data(), 10),
      util::SimError);
}

/// measure() must agree byte for byte with what the encoders write (the
/// spill store sizes its payload from it), and both encodings must decode
/// straight back into the typed column.
template <typename T>
void expect_measure_matches(const std::vector<T>& col) {
  const EncodedSizes sizes = measure(col.data(), col.size());
  EXPECT_EQ(sizes.raw, col.size() * sizeof(T));
  std::vector<std::uint8_t> buf(max_encoded_bytes(col.size()));
  const std::uint8_t* end = encode_delta(col.data(), col.size(), buf.data());
  ASSERT_EQ(static_cast<std::uint64_t>(end - buf.data()), sizes.delta);
  std::vector<T> out(col.size());
  decode_delta(buf.data(), sizes.delta, out.data(), out.size());
  EXPECT_EQ(out, col);
  end = encode_rle(col.data(), col.size(), buf.data());
  ASSERT_EQ(static_cast<std::uint64_t>(end - buf.data()), sizes.rle);
  std::vector<T> out2(col.size());
  decode_rle(buf.data(), sizes.rle, out2.data(), out2.size());
  EXPECT_EQ(out2, col);
}

TEST(ChunkCodec, MeasureMatchesEncodersOnTypedColumns) {
  std::vector<std::uint16_t> apps(300, 4);
  for (std::size_t i = 100; i < 220; ++i) apps[i] = 1;
  expect_measure_matches(apps);
  expect_measure_matches(std::vector<std::int32_t>{
      -1, 0, 7, std::numeric_limits<std::int32_t>::min(),
      std::numeric_limits<std::int32_t>::max(), -1, -1, 12345});
  expect_measure_matches(std::vector<std::int16_t>{-1, -1, -1, 0, 1, -32768});
  expect_measure_matches(std::vector<trace::Op>{
      trace::Op::kOpen, trace::Op::kRead, trace::Op::kRead,
      trace::Op::kSendRecv, trace::Op::kClose});
  std::vector<std::uint64_t> wide;
  std::uint64_t x = 0x9e3779b97f4a7c15ull;
  for (int i = 0; i < 500; ++i) {
    x = x * 6364136223846793005ull + 1442695040888963407ull;
    wide.push_back(i % 50 == 0 ? std::numeric_limits<std::uint64_t>::max()
                               : x >> (i % 64));
  }
  expect_measure_matches(wide);
  expect_measure_matches(std::vector<std::uint32_t>{});
  for (const std::uint64_t v :
       {std::uint64_t{0}, std::uint64_t{127}, std::uint64_t{128},
        std::uint64_t{16383}, std::uint64_t{16384},
        (std::uint64_t{1} << 63) - 1, std::uint64_t{1} << 63,
        std::numeric_limits<std::uint64_t>::max()}) {
    std::uint8_t bytes[kMaxVarintBytes];
    EXPECT_EQ(varint_size(v),
              static_cast<std::size_t>(put_varint(bytes, v) - bytes))
        << v;
  }
}

// A column is stored raw unless delta is strictly smaller, and RLE only
// when strictly smaller than the best so far: ties keep the earlier one.
TEST(ChunkCodec, SmallestKeepsEarlierEncodingOnTies) {
  EXPECT_EQ((EncodedSizes{8, 8, 8}.smallest()), Encoding::kRaw);
  EXPECT_EQ((EncodedSizes{8, 7, 7}.smallest()), Encoding::kDelta);
  EXPECT_EQ((EncodedSizes{8, 7, 6}.smallest()), Encoding::kRle);
  EXPECT_EQ((EncodedSizes{8, 9, 8}.smallest()), Encoding::kRaw);
  EXPECT_EQ((EncodedSizes{8, 9, 7}.smallest()), Encoding::kRle);
  const EncodedSizes s{30, 20, 10};
  EXPECT_EQ(s.of(Encoding::kRaw), 30u);
  EXPECT_EQ(s.of(Encoding::kDelta), 20u);
  EXPECT_EQ(s.of(Encoding::kRle), 10u);
}

}  // namespace
}  // namespace wasp::analysis::codec
