#include "analysis/chunk_codec.hpp"

#include "util/error.hpp"

namespace wasp::analysis::codec::detail {

using util::raise_check_failure;

void varint_past_end() {
  raise_check_failure("p < end", __FILE__, __LINE__,
                      "varint runs past the encoded buffer");
}

void varint_overlong() {
  raise_check_failure("false", __FILE__, __LINE__,
                      "varint longer than 10 bytes");
}

void delta_trailing_bytes() {
  raise_check_failure("p == end", __FILE__, __LINE__,
                      "delta column has trailing bytes");
}

void rle_run_out_of_range() {
  raise_check_failure("run > 0 && run <= n - produced", __FILE__, __LINE__,
                      "RLE run length out of range");
}

void rle_trailing_bytes() {
  raise_check_failure("p == end", __FILE__, __LINE__,
                      "RLE column has trailing bytes");
}

}  // namespace wasp::analysis::codec::detail
