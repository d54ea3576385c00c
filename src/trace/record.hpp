// Trace record schema — the simulated equivalent of Recorder 2.0's
// multi-level traces: every POSIX/STDIO/MPI-IO/HDF5 call plus CPU/GPU
// compute spans and MPI communication, per rank, with simulated timestamps.
#pragma once

#include <cstdint>
#include <string>

#include "fs/types.hpp"
#include "sim/engine.hpp"

namespace wasp::trace {

/// Which layer of the stack issued the call (Recorder traces each level).
enum class Iface : std::uint8_t {
  kPosix,
  kStdio,
  kMpiio,
  kHdf5,
  kCpu,
  kGpu,
  kMpi,
};

enum class Op : std::uint8_t {
  kRead,
  kWrite,
  kOpen,
  kClose,
  kStat,
  kSeek,
  kSync,
  kUnlink,
  kReaddir,
  kMetaAccess,  ///< library-internal metadata access (HDF5 b-tree, headers)
  kCompute,
  kBarrier,
  kBcast,
  kSendRecv,
};

const char* to_string(Iface iface) noexcept;
const char* to_string(Op op) noexcept;

/// True for operations the paper's analysis classes as "metadata ops".
constexpr bool is_meta(Op op) noexcept {
  switch (op) {
    case Op::kOpen:
    case Op::kClose:
    case Op::kStat:
    case Op::kSeek:
    case Op::kSync:
    case Op::kUnlink:
    case Op::kReaddir:
    case Op::kMetaAccess:
      return true;
    default:
      return false;
  }
}

constexpr bool is_data(Op op) noexcept {
  return op == Op::kRead || op == Op::kWrite;
}

constexpr bool is_io(Op op) noexcept { return is_meta(op) || is_data(op); }

/// Identifies a file across filesystems: (tracer fs registry index, inode).
struct FileKey {
  std::int16_t fs = -1;
  fs::FileId file = fs::kInvalidFile;
  bool valid() const noexcept { return fs >= 0 && file != fs::kInvalidFile; }
  bool operator==(const FileKey&) const = default;
};

struct Record {
  std::uint16_t app = 0;   ///< tracer app registry index
  std::int32_t rank = -1;
  std::int32_t node = -1;
  Iface iface = Iface::kPosix;
  Op op = Op::kRead;
  FileKey file;
  fs::Bytes offset = 0;
  fs::Bytes size = 0;           ///< per-operation granularity
  std::uint32_t count = 1;      ///< coalesced sequential ops in this record
  sim::Time tstart = 0;
  sim::Time tend = 0;

  bool operator==(const Record&) const = default;
};

}  // namespace wasp::trace
