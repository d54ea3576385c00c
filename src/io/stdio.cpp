#include "io/stdio.hpp"

#include <algorithm>

#include "util/error.hpp"

namespace wasp::io {

sim::Task<StdioFile> Stdio::fopen(const std::string& path, OpenMode mode) {
  StdioFile f;
  f.base = co_await posix_.open(path, mode);
  f.logical_offset = f.base.offset;
  f.flush_offset = f.base.offset;
  f.read_pos = f.base.offset;
  co_return f;
}

sim::Task<void> Stdio::flush_writes(StdioFile& f) {
  if (f.write_buffered == 0) co_return;
  runtime::Proc::Suppression mute(proc());
  co_await posix_.pwrite(f.base, f.flush_offset, f.write_buffered, 1);
  f.flush_offset += f.write_buffered;
  f.write_buffered = 0;
}

sim::Task<void> Stdio::fclose(StdioFile& f) {
  co_await flush_writes(f);
  co_await posix_.close(f.base);
}

sim::Task<void> Stdio::fwrite(StdioFile& f, fs::Bytes size,
                              std::uint32_t count) {
  WASP_CHECK_MSG(count > 0, "zero-count fwrite");
  const sim::Time t0 = proc().now();
  const fs::Bytes total = size * static_cast<fs::Bytes>(count);

  if (size >= buffer_) {
    // Large writes bypass the stream buffer (glibc behaviour).
    co_await flush_writes(f);
    runtime::Proc::Suppression mute(proc());
    co_await posix_.pwrite(f.base, f.flush_offset, size, count);
    f.flush_offset += total;
  } else {
    const fs::Bytes pending = f.write_buffered + total;
    const fs::Bytes flush_bytes = (pending / buffer_) * buffer_;
    f.write_buffered = pending % buffer_;
    if (flush_bytes > 0) {
      runtime::Proc::Suppression mute(proc());
      co_await posix_.pwrite(f.base, f.flush_offset, buffer_,
                             static_cast<std::uint32_t>(flush_bytes /
                                                        buffer_));
      f.flush_offset += flush_bytes;
    }
  }
  f.logical_offset += total;
  proc().record(trace::Iface::kStdio, trace::Op::kWrite, f.base.key(),
                f.logical_offset - total, size, count, t0);
}

sim::Task<void> Stdio::fread(StdioFile& f, fs::Bytes size,
                             std::uint32_t count) {
  WASP_CHECK_MSG(count > 0, "zero-count fread");
  const sim::Time t0 = proc().now();
  const fs::Bytes total = size * static_cast<fs::Bytes>(count);
  const fs::Bytes file_size = f.base.fs->ns(proc().site())
                                  .inode(f.base.id).size;
  WASP_CHECK_MSG(f.logical_offset + total <= file_size,
                 "fread past EOF: " +
                     f.base.fs->ns(proc().site()).inode(f.base.id).path +
                     " off=" + std::to_string(f.logical_offset) +
                     " total=" + std::to_string(total) +
                     " size=" + std::to_string(file_size));

  if (size >= buffer_) {
    // Large reads bypass the stream buffer and stream at user granularity.
    {
      runtime::Proc::Suppression mute(proc());
      co_await posix_.pread(f.base, f.logical_offset, size, count);
    }
    f.read_pos = std::max(f.read_pos, f.logical_offset + total);
    f.read_ahead = 0;
    f.logical_offset += total;
    proc().record(trace::Iface::kStdio, trace::Op::kRead, f.base.key(),
                  f.logical_offset - total, size, count, t0);
    co_return;
  }

  const fs::Bytes need = total > f.read_ahead ? total - f.read_ahead : 0;
  if (need > 0) {
    // Fetch in buffer-granularity chunks (readahead), clamped to EOF.
    const fs::Bytes fetch_end =
        std::min(file_size,
                 f.read_pos + ((need + buffer_ - 1) / buffer_) * buffer_);
    const fs::Bytes fetch = fetch_end - f.read_pos;
    const auto full = static_cast<std::uint32_t>(fetch / buffer_);
    const fs::Bytes tail = fetch % buffer_;
    runtime::Proc::Suppression mute(proc());
    if (full > 0) co_await posix_.pread(f.base, f.read_pos, buffer_, full);
    if (tail > 0) {
      co_await posix_.pread(f.base, f.read_pos + full * buffer_, tail, 1);
    }
    f.read_pos = fetch_end;
    f.read_ahead += fetch;
  }
  f.read_ahead -= total;
  f.logical_offset += total;
  proc().record(trace::Iface::kStdio, trace::Op::kRead, f.base.key(),
                f.logical_offset - total, size, count, t0);
}

sim::Task<void> Stdio::fseek_batch(StdioFile& f, std::uint32_t count) {
  WASP_CHECK_MSG(count > 0, "zero-count fseek batch");
  const sim::Time t0 = proc().now();
  co_await sim::Delay(proc().engine(), 60 * sim::kUs * count);
  proc().record(trace::Iface::kStdio, trace::Op::kSeek, f.base.key(),
                f.logical_offset, 0, count, t0);
}

sim::Task<void> Stdio::fread_scattered(StdioFile& f, fs::Bytes size,
                                        std::uint32_t count,
                                        std::uint32_t fetch_ops) {
  WASP_CHECK_MSG(count > 0, "zero-count fread");
  const sim::Time t0 = proc().now();
  const fs::Bytes total = size * static_cast<fs::Bytes>(count);
  const fs::Bytes file_size =
      f.base.fs->ns(proc().site()).inode(f.base.id).size;
  WASP_CHECK_MSG(f.logical_offset + total <= file_size,
                 "fread past EOF");
  const auto max_fetch = static_cast<std::uint32_t>(
      (file_size - f.logical_offset) / buffer_);
  const std::uint32_t fetches = std::min(fetch_ops, max_fetch);
  if (fetches > 0) {
    runtime::Proc::Suppression mute(proc());
    co_await posix_.pread_sync(f.base, f.logical_offset, buffer_, fetches);
  }
  f.read_ahead = 0;
  f.read_pos = f.logical_offset + total;
  f.logical_offset += total;
  proc().record(trace::Iface::kStdio, trace::Op::kRead, f.base.key(),
                f.logical_offset - total, size, count, t0);
}

sim::Task<void> Stdio::fseek(StdioFile& f, fs::Bytes offset) {
  co_await flush_writes(f);
  f.read_ahead = 0;
  f.read_pos = offset;
  f.logical_offset = offset;
  f.flush_offset = offset;
  // fseek itself is a cheap client-side op but shows up as a metadata op in
  // traces; reuse the POSIX seek (already labelled kStdio via iface).
  co_await posix_.seek(f.base, offset);
}

}  // namespace wasp::io
