// STDIO (FILE*) interface: user-space buffering over POSIX.
//
// The buffer is why JAG and Montage issue millions of <4KB fread/fwrite
// calls yet the filesystem sees buffer-granularity requests: user ops are
// traced at their real size/count, while the underlying flushes/readaheads
// run at `buffer_size` granularity with tracing suppressed.
#pragma once

#include "io/posix.hpp"

namespace wasp::io {

struct StdioFile {
  File base;
  fs::Bytes logical_offset = 0;   ///< position the user sees
  fs::Bytes write_buffered = 0;   ///< dirty bytes not yet flushed
  fs::Bytes flush_offset = 0;     ///< where the next flush lands
  fs::Bytes read_ahead = 0;       ///< buffered bytes ahead of logical_offset
  fs::Bytes read_pos = 0;         ///< underlying read position
};

class Stdio {
 public:
  /// glibc's default stream buffer is 4KiB; the advisor can raise it
  /// (setvbuf) as one of its optimizations.
  explicit Stdio(runtime::Proc& proc, fs::Bytes buffer_size = 4 * util::kKiB)
      : posix_(proc, trace::Iface::kStdio), buffer_(buffer_size) {}

  runtime::Proc& proc() noexcept { return posix_.proc(); }
  fs::Bytes buffer_size() const noexcept { return buffer_; }

  sim::Task<StdioFile> fopen(const std::string& path, OpenMode mode);
  sim::Task<void> fclose(StdioFile& f);

  /// `count` user operations of `size` bytes each, sequential.
  sim::Task<void> fread(StdioFile& f, fs::Bytes size, std::uint32_t count = 1);
  sim::Task<void> fwrite(StdioFile& f, fs::Bytes size,
                         std::uint32_t count = 1);

  /// `count` user reads of `size` bytes whose sample order is shuffled:
  /// readahead is defeated and the filesystem serves ~`fetch_ops`
  /// synchronous buffer-sized fetches (AI input pipelines on npy files).
  sim::Task<void> fread_scattered(StdioFile& f, fs::Bytes size,
                                  std::uint32_t count,
                                  std::uint32_t fetch_ops);

  sim::Task<void> fseek(StdioFile& f, fs::Bytes offset);

  /// `count` short-range seeks that stay inside the stream buffer (sample
  /// hops within the readahead window): client-side cost only, but each is
  /// a metadata op in the trace — how NumPy-style readers become 70%
  /// metadata ops without metadata-service time.
  sim::Task<void> fseek_batch(StdioFile& f, std::uint32_t count);

 private:
  sim::Task<void> flush_writes(StdioFile& f);

  Posix posix_;
  fs::Bytes buffer_;
};

}  // namespace wasp::io
