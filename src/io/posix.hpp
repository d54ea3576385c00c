// POSIX-level interface: the thinnest traced layer over the mounted
// filesystems. File-per-process workloads (HACC, CM1 output) run here.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "fs/filesystem.hpp"
#include "runtime/proc.hpp"
#include "sim/task.hpp"
#include "trace/record.hpp"

namespace wasp::io {

enum class OpenMode : std::uint8_t { kRead, kWrite, kReadWrite, kAppend };

/// Open-file handle (the fd). Offset tracking lives here, client-side.
struct File {
  fs::FileSystemSim* fs = nullptr;
  std::int16_t fs_idx = -1;
  fs::FileId id = fs::kInvalidFile;
  fs::Bytes offset = 0;
  OpenMode mode = OpenMode::kRead;
  bool is_open = false;

  trace::FileKey key() const noexcept { return {fs_idx, id}; }
};

class Posix {
 public:
  /// `iface` lets STDIO-style wrappers reuse this machinery while recording
  /// under their own interface label.
  explicit Posix(runtime::Proc& proc,
                 trace::Iface iface = trace::Iface::kPosix)
      : p_(proc), iface_(iface) {}

  runtime::Proc& proc() noexcept { return p_; }

  /// Opens (creating when the mode writes) and pays the metadata cost.
  /// Opening a non-existent file for read throws SimError.
  sim::Task<File> open(const std::string& path, OpenMode mode);
  sim::Task<void> close(File& f);

  /// `count` sequential ops of `size` bytes from the current offset
  /// (coalesced into one simulated request; traced with exact op count).
  sim::Task<void> read(File& f, fs::Bytes size, std::uint32_t count = 1);
  sim::Task<void> write(File& f, fs::Bytes size, std::uint32_t count = 1);

  /// Positional variants (no offset state change beyond the request).
  sim::Task<void> pread(File& f, fs::Bytes offset, fs::Bytes size,
                        std::uint32_t count = 1);
  sim::Task<void> pwrite(File& f, fs::Bytes offset, fs::Bytes size,
                         std::uint32_t count = 1);

  sim::Task<void> seek(File& f, fs::Bytes offset);
  /// `count` client-side seeks (header hops, sample-wise repositioning).
  /// Seeks never leave the client, so a batch costs only CPU time; the
  /// trace still carries the exact op count — this is how CM1/JAG-style
  /// workloads end up 70% metadata *ops* without 70% metadata *time*.
  sim::Task<void> seek_batch(File& f, std::uint32_t count);

  /// Positional read where every op is a dependent synchronous round trip
  /// (random scattered access that defeats readahead and coalescing).
  sim::Task<void> pread_sync(File& f, fs::Bytes offset, fs::Bytes size,
                             std::uint32_t count = 1);

  /// Durable positional write (O_SYNC semantics): per-op server round
  /// trips, no writeback coalescing.
  sim::Task<void> pwrite_sync(File& f, fs::Bytes offset, fs::Bytes size,
                              std::uint32_t count = 1);
  sim::Task<void> stat(const std::string& path);
  sim::Task<void> sync(File& f);
  sim::Task<void> unlink(const std::string& path);
  sim::Task<std::vector<std::string>> readdir(const std::string& prefix);

  /// Current size without cost (used by workload logic, not traced).
  fs::Bytes size_of(const std::string& path);
  bool exists(const std::string& path);

 private:
  /// Per-call shape of the shared data path: direction, offset handling,
  /// request flags, and which mode checks the public entry point performs
  /// (pread_sync historically skips the read-mode check).
  struct DataOpSpec {
    fs::IoKind kind = fs::IoKind::kRead;
    bool advance_offset = false;
    bool sync_each_op = false;
    bool latency_each_op = false;
    bool check_read_mode = true;
  };

  /// The one data funnel: fault consultation + retry/backoff wrap the
  /// bookkeeping and the fs request. Every failed attempt is traced as an
  /// extra op; exhausting the retry policy throws sim::FaultError.
  sim::Task<void> data_op(File& f, fs::Bytes offset, fs::Bytes size,
                          std::uint32_t count, DataOpSpec spec);

  /// Metadata op with the same fault/retry semantics; records both failed
  /// attempts and the successful op under `top`/`key`. Exhausted retries
  /// name the op "<verb> <path>" (just the verb when `path` is null), a
  /// string built only then.
  sim::Task<void> faulted_meta(fs::FileSystemSim& fsys, fs::MetaOp mop,
                               fs::FileId id, trace::Op top,
                               trace::FileKey key, const char* verb,
                               const std::string* path);

  runtime::Proc& p_;
  trace::Iface iface_;
};

}  // namespace wasp::io
