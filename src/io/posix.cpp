#include "io/posix.hpp"

#include <algorithm>

#include "sim/faults.hpp"
#include "util/error.hpp"

namespace wasp::io {
namespace {

const char* op_verb(fs::IoKind kind) noexcept {
  return kind == fs::IoKind::kRead ? "read" : "write";
}

}  // namespace

sim::Task<File> Posix::open(const std::string& path, OpenMode mode) {
  auto& fs = p_.simulation().mounts().resolve(path);
  auto& ns = fs.ns(p_.site());

  File f;
  f.fs = &fs;
  f.fs_idx = p_.tracer().register_fs(fs);
  f.mode = mode;

  if (mode == OpenMode::kRead) {
    auto id = ns.lookup(path);
    WASP_CHECK_MSG(id.has_value(), "open for read: no such file: " + path);
    f.id = *id;
  } else {
    f.id = ns.create(path, p_.now(), p_.rank(), p_.node());
  }
  if (mode == OpenMode::kAppend) {
    f.offset = ns.inode(f.id).size;
  }
  f.is_open = true;

  co_await faulted_meta(fs, fs::MetaOp::kOpen, f.id, trace::Op::kOpen,
                        f.key(), "open", &path);
  co_return f;
}

sim::Task<void> Posix::close(File& f) {
  WASP_CHECK_MSG(f.is_open, "close on closed file");
  co_await faulted_meta(*f.fs, fs::MetaOp::kClose, f.id, trace::Op::kClose,
                        f.key(), "close", nullptr);
  f.is_open = false;
}

sim::Task<void> Posix::data_op(File& f, fs::Bytes offset, fs::Bytes size,
                               std::uint32_t count, DataOpSpec spec) {
  WASP_CHECK_MSG(f.is_open, "I/O on closed file");
  WASP_CHECK_MSG(count > 0, "zero-count I/O");
  const bool is_write = spec.kind == fs::IoKind::kWrite;
  if (is_write) {
    WASP_CHECK_MSG(f.mode != OpenMode::kRead, "write on read-only file");
  } else if (spec.check_read_mode) {
    WASP_CHECK_MSG(f.mode != OpenMode::kWrite && f.mode != OpenMode::kAppend,
                   "read on write-only file");
  }
  const fs::Bytes total = size * static_cast<fs::Bytes>(count);
  const trace::Op top = is_write ? trace::Op::kWrite : trace::Op::kRead;
  sim::FaultChannel* fc = f.fs->fault_channel();

  for (std::uint32_t attempt = 1;; ++attempt) {
    const sim::Time t0 = p_.now();
    // Fault consultation happens before any bookkeeping, so a failed
    // attempt leaves no inode/usage state to roll back.
    sim::FaultKind fail =
        fc != nullptr ? fc->data_fault(is_write, t0) : sim::FaultKind::kNone;

    if (fail == sim::FaultKind::kNone) {
      auto& ns = f.fs->ns(p_.site());
      fs::Inode& inode = ns.inode(f.id);
      if (!is_write) {
        WASP_CHECK_MSG(offset + total <= inode.size,
                       "read past EOF: " + inode.path);
      } else {
        const fs::Bytes new_size = std::max(inode.size, offset + total);
        const fs::Bytes growth = new_size - inode.size;
        if (growth > 0) {
          if (f.fs->free_bytes(p_.site()) < growth) {
            // Capacity exhaustion. With a fault channel active this is a
            // retryable condition like a real transient ENOSPC; without
            // one, the historical fatal diagnostic stands.
            WASP_CHECK_MSG(fc != nullptr, "ENOSPC on " + f.fs->mount() +
                                              " writing " + inode.path);
            fc->note_capacity_enospc();
            fail = sim::FaultKind::kEnospc;
          } else {
            f.fs->note_growth(p_.site(), static_cast<std::int64_t>(growth));
            inode.size = new_size;
          }
        }
        if (fail == sim::FaultKind::kNone) inode.modified = p_.now();
      }
    }

    if (fail == sim::FaultKind::kNone) {
      fs::IoRequest req;
      req.site = p_.site();
      req.file = f.id;
      req.offset = offset;
      req.size = size;
      req.op_count = count;
      req.kind = spec.kind;
      req.sync_each_op = spec.sync_each_op;
      req.latency_each_op = spec.latency_each_op;
      co_await f.fs->io(req);

      if (spec.advance_offset) f.offset = offset + total;
      p_.record(iface_, top, f.key(), offset, size, count, t0);
      co_return;
    }

    // Failed attempt: charge its latency, trace it as an extra op — the
    // retry re-enters the virtual clock exactly like a retrying runtime.
    if (fc->fail_latency() > 0) {
      co_await sim::Delay(p_.engine(), fc->fail_latency());
    }
    p_.record(iface_, top, f.key(), offset, size, count, t0);
    const sim::RetryPolicy& rp = fc->retry();
    if (attempt >= rp.max_attempts) {
      fc->note_exhausted();
      const std::string path = f.fs->ns(p_.site()).inode(f.id).path;
      throw sim::FaultError(
          fail, std::string(op_verb(spec.kind)) + " " + path + " on " +
                    f.fs->mount() + " failed after " +
                    std::to_string(attempt) + " attempts (" +
                    sim::to_string(fail) + ")");
    }
    fc->note_retry();
    const sim::Time backoff = rp.delay_for(attempt);
    if (backoff > 0) co_await sim::Delay(p_.engine(), backoff);
  }
}

sim::Task<void> Posix::faulted_meta(fs::FileSystemSim& fsys, fs::MetaOp mop,
                                    fs::FileId id, trace::Op top,
                                    trace::FileKey key, const char* verb,
                                    const std::string* path) {
  sim::FaultChannel* fc = fsys.fault_channel();
  for (std::uint32_t attempt = 1;; ++attempt) {
    const sim::Time t0 = p_.now();
    if (fc != nullptr && fc->meta_fault(t0) != sim::FaultKind::kNone) {
      if (fc->fail_latency() > 0) {
        co_await sim::Delay(p_.engine(), fc->fail_latency());
      }
      p_.record(iface_, top, key, 0, 0, 1, t0);
      const sim::RetryPolicy& rp = fc->retry();
      if (attempt >= rp.max_attempts) {
        fc->note_exhausted();
        const std::string what =
            path != nullptr ? std::string(verb) + " " + *path : verb;
        throw sim::FaultError(
            sim::FaultKind::kMetaError,
            what + " on " + fsys.mount() + " failed after " +
                std::to_string(attempt) + " attempts (metadata error)");
      }
      fc->note_retry();
      const sim::Time backoff = rp.delay_for(attempt);
      if (backoff > 0) co_await sim::Delay(p_.engine(), backoff);
      continue;
    }
    co_await fsys.meta(p_.site(), mop, id);
    p_.record(iface_, top, key, 0, 0, 1, t0);
    co_return;
  }
}

sim::Task<void> Posix::read(File& f, fs::Bytes size, std::uint32_t count) {
  DataOpSpec spec;
  spec.kind = fs::IoKind::kRead;
  spec.advance_offset = true;
  return data_op(f, f.offset, size, count, spec);
}

sim::Task<void> Posix::write(File& f, fs::Bytes size, std::uint32_t count) {
  DataOpSpec spec;
  spec.kind = fs::IoKind::kWrite;
  spec.advance_offset = true;
  return data_op(f, f.offset, size, count, spec);
}

sim::Task<void> Posix::pread(File& f, fs::Bytes offset, fs::Bytes size,
                             std::uint32_t count) {
  DataOpSpec spec;
  spec.kind = fs::IoKind::kRead;
  return data_op(f, offset, size, count, spec);
}

sim::Task<void> Posix::pwrite(File& f, fs::Bytes offset, fs::Bytes size,
                              std::uint32_t count) {
  DataOpSpec spec;
  spec.kind = fs::IoKind::kWrite;
  return data_op(f, offset, size, count, spec);
}

sim::Task<void> Posix::seek(File& f, fs::Bytes offset) {
  WASP_CHECK_MSG(f.is_open, "seek on closed file");
  const sim::Time t0 = p_.now();
  co_await f.fs->meta(p_.site(), fs::MetaOp::kSeek, f.id);
  f.offset = offset;
  p_.record(iface_, trace::Op::kSeek, f.key(), offset, 0, 1, t0);
}

sim::Task<void> Posix::seek_batch(File& f, std::uint32_t count) {
  WASP_CHECK_MSG(f.is_open, "seek on closed file");
  WASP_CHECK_MSG(count > 0, "zero-count seek batch");
  const sim::Time t0 = p_.now();
  // ~60us per seek: client VFS plus the I/O library bookkeeping around each
  // repositioning, calibrated against CM1's metadata-dominated write phases.
  co_await sim::Delay(p_.engine(), 60 * sim::kUs * count);
  p_.record(iface_, trace::Op::kSeek, f.key(), f.offset, 0, count, t0);
}

sim::Task<void> Posix::pread_sync(File& f, fs::Bytes offset, fs::Bytes size,
                                  std::uint32_t count) {
  DataOpSpec spec;
  spec.kind = fs::IoKind::kRead;
  spec.sync_each_op = true;
  spec.check_read_mode = false;
  return data_op(f, offset, size, count, spec);
}

sim::Task<void> Posix::pwrite_sync(File& f, fs::Bytes offset,
                                   fs::Bytes size, std::uint32_t count) {
  DataOpSpec spec;
  spec.kind = fs::IoKind::kWrite;
  spec.latency_each_op = true;
  return data_op(f, offset, size, count, spec);
}

sim::Task<void> Posix::stat(const std::string& path) {
  auto& fs = p_.simulation().mounts().resolve(path);
  auto id = fs.ns(p_.site()).lookup(path);
  trace::FileKey key;
  if (id) key = {p_.tracer().register_fs(fs), *id};
  co_await faulted_meta(fs, fs::MetaOp::kStat, id.value_or(fs::kInvalidFile),
                        trace::Op::kStat, key, "stat", &path);
}

sim::Task<void> Posix::sync(File& f) {
  WASP_CHECK_MSG(f.is_open, "sync on closed file");
  co_await faulted_meta(*f.fs, fs::MetaOp::kSync, f.id, trace::Op::kSync,
                        f.key(), "sync", nullptr);
}

sim::Task<void> Posix::unlink(const std::string& path) {
  auto& fs = p_.simulation().mounts().resolve(path);
  auto& ns = fs.ns(p_.site());
  auto id = ns.lookup(path);
  WASP_CHECK_MSG(id.has_value(), "unlink: no such file: " + path);
  const fs::Bytes size = ns.inode(*id).size;
  co_await faulted_meta(fs, fs::MetaOp::kUnlink, *id, trace::Op::kUnlink,
                        {p_.tracer().register_fs(fs), *id}, "unlink",
                        &path);
  ns.unlink(path);
  fs.note_growth(p_.site(), -static_cast<std::int64_t>(size));
}

sim::Task<std::vector<std::string>> Posix::readdir(const std::string& prefix) {
  auto& fs = p_.simulation().mounts().resolve(prefix);
  const sim::Time t0 = p_.now();
  co_await fs.meta(p_.site(), fs::MetaOp::kReaddir, fs::kInvalidFile);
  auto entries = fs.ns(p_.site()).list(prefix);
  std::sort(entries.begin(), entries.end());
  p_.record(iface_, trace::Op::kReaddir, {}, 0, 0, 1, t0);
  co_return entries;
}

fs::Bytes Posix::size_of(const std::string& path) {
  auto& fs = p_.simulation().mounts().resolve(path);
  auto& ns = fs.ns(p_.site());
  auto id = ns.lookup(path);
  WASP_CHECK_MSG(id.has_value(), "size_of: no such file: " + path);
  return ns.inode(*id).size;
}

bool Posix::exists(const std::string& path) {
  auto* fs = p_.simulation().mounts().try_resolve(path);
  return fs != nullptr && fs->ns(p_.site()).exists(path);
}

}  // namespace wasp::io
