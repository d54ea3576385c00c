#include "trace/log_io.hpp"

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <ostream>
#include <string_view>
#include <type_traits>
#include <unordered_map>

#include "obs/obs.hpp"
#include "util/error.hpp"

namespace wasp::trace {
namespace {

constexpr char kMagic[8] = {'W', 'A', 'S', 'P', 'T', 'R', 'C', '2'};

/// Delete a half-written output file so a disk-full run never leaves a
/// truncated log behind. Only regular files and symlinks are touched
/// (tests point outputs at /dev/full; never unlink a device node).
void remove_partial_output(const std::string& path) {
  std::error_code ec;
  const auto st = std::filesystem::symlink_status(path, ec);
  if (!ec && (std::filesystem::is_regular_file(st) ||
              std::filesystem::is_symlink(st))) {
    std::filesystem::remove(path, ec);
  }
}

/// Write-site failure detection: every write is checked so a short write
/// (disk full) is diagnosed here — with path, byte counts, and errno —
/// instead of surfacing as a confusing truncated-log error at read time.
class CheckedWriter {
 public:
  CheckedWriter(std::ostream& os, const std::string& path)
      : os_(os), path_(path) {}

  void write(const void* data, std::size_t n) {
    errno = 0;
    os_.write(static_cast<const char*>(data),
              static_cast<std::streamsize>(n));
    if (!os_.good()) fail();
    written_ += n;
  }

  void put_u64(std::uint64_t v) { write(&v, sizeof(v)); }

  void put_string(std::string_view s) {
    put_u64(s.size());
    write(s.data(), s.size());
  }

  void finish() {
    errno = 0;
    os_.flush();
    if (!os_.good()) fail();
  }

  std::uint64_t written() const noexcept { return written_; }

 private:
  [[noreturn]] void fail() {
    const int err = errno;
    remove_partial_output(path_);
    throw util::SimError(
        "short write to trace log: " + path_ + ": failed after " +
        std::to_string(written_) + " bytes (" +
        (err != 0 ? std::strerror(err) : "no errno") + ")");
  }

  std::ostream& os_;
  const std::string& path_;
  std::uint64_t written_ = 0;
};

std::uint64_t get_u64(std::istream& is, const std::string& path) {
  std::uint64_t v = 0;
  is.read(reinterpret_cast<char*>(&v), sizeof(v));
  WASP_CHECK_MSG(is.good(), "truncated trace log: " + path +
                                " (short read in header)");
  return v;
}

std::string get_string(std::istream& is, const std::string& path) {
  const std::uint64_t n = get_u64(is, path);
  WASP_CHECK_MSG(n < (1u << 20),
                 "implausible string length in trace log: " + path);
  std::string s(n, '\0');
  is.read(s.data(), static_cast<std::streamsize>(n));
  WASP_CHECK_MSG(is.good(), "truncated trace log: " + path +
                                " (short read in header)");
  return s;
}

// Fixed-width on-disk row. The pad fields name the struct's alignment
// holes, so every one of a row's 80 bytes is a field that is written (the
// pads as zero): uninitialized padding made "identical" runs produce
// different log bytes.
struct Row {
  std::uint16_t app;
  std::uint16_t pad0;
  std::int32_t rank;
  std::int32_t node;
  std::uint8_t iface;
  std::uint8_t op;
  std::int16_t fs;
  std::uint64_t file;
  std::uint64_t offset;
  std::uint64_t size;
  std::uint32_t count;
  std::uint32_t pad1;
  std::uint64_t tstart;
  std::uint64_t tend;
  std::uint32_t path_idx;
  std::uint32_t pad2;
  std::uint64_t file_size;
};
static_assert(sizeof(Row) == 80 &&
                  std::has_unique_object_representations_v<Row>,
              "a log row has no padding bytes");

/// Rows move between memory and the file this many at a time.
constexpr std::size_t kBlockRows = 4096;

Row to_row(const Record& r, std::uint32_t path_idx,
           std::uint64_t file_size) noexcept {
  Row row;
  row.app = r.app;
  row.pad0 = 0;
  row.rank = r.rank;
  row.node = r.node;
  row.iface = static_cast<std::uint8_t>(r.iface);
  row.op = static_cast<std::uint8_t>(r.op);
  row.fs = r.file.fs;
  row.file = r.file.file;
  row.offset = r.offset;
  row.size = r.size;
  row.count = r.count;
  row.pad1 = 0;
  row.tstart = r.tstart;
  row.tend = r.tend;
  row.path_idx = path_idx;
  row.pad2 = 0;
  row.file_size = file_size;
  return row;
}

Record from_row(const Row& row) noexcept {
  Record r;
  r.app = row.app;
  r.rank = row.rank;
  r.node = row.node;
  r.iface = static_cast<Iface>(row.iface);
  r.op = static_cast<Op>(row.op);
  r.file = {row.fs, row.file};
  r.offset = row.offset;
  r.size = row.size;
  r.count = row.count;
  r.tstart = row.tstart;
  r.tend = row.tend;
  return r;
}

/// Each record's file as the log stores it: an index into the deduplicated
/// path table (first-appearance order) and the file's end-of-run size.
/// A file is its namespace (one per node on node-local filesystems) plus
/// its inode id, so files resolve through one dense inode-indexed table per
/// namespace, reached by (filesystem, node). The tracer's namespaces must
/// outlive the table: paths() views their inode paths.
class FileTable {
 public:
  struct Entry {
    std::uint32_t path_idx = kUnseen;
    std::uint64_t size = 0;
  };

  explicit FileTable(const Tracer& tracer) : tracer_(tracer) {
    sites_.resize(tracer.num_filesystems());
    for (std::size_t f = 0; f < sites_.size(); ++f) {
      sites_[f].shared =
          tracer.filesystem(static_cast<std::int16_t>(f)).shared();
    }
  }

  /// The record's entry; the first sight of a path appends it to paths().
  Entry resolve(const Record& r) {
    if (!r.file.valid()) return {empty_path(), 0};
    NsTable& t = table_for(r);
    if (r.file.file >= t.entries.size()) return {empty_path(), 0};
    Entry& e = t.entries[r.file.file];
    if (e.path_idx == kUnseen) {
      const fs::Inode& inode = t.ns->inodes()[r.file.file];
      e = {path_index(inode.path), inode.size};
    }
    return e;
  }

  const std::vector<std::string_view>& paths() const noexcept {
    return paths_;
  }

 private:
  static constexpr std::uint32_t kUnseen = ~std::uint32_t{0};

  struct NsTable {
    const fs::Namespace* ns = nullptr;  ///< null until first bound
    /// One entry per inode id; path_idx is kUnseen until first resolved.
    std::vector<Entry> entries;
  };

  /// A filesystem's namespace tables: one per node, or one in slot 0 on a
  /// shared filesystem.
  struct Site {
    bool shared = false;
    std::vector<NsTable> by_node;
  };

  NsTable& table_for(const Record& r) {
    const auto f = static_cast<std::size_t>(r.file.fs);
    if (f < sites_.size()) {
      Site& site = sites_[f];
      // A negative node wraps past every slot and takes the checked path.
      const std::size_t slot =
          site.shared ? 0 : static_cast<std::size_t>(r.node);
      if (slot < site.by_node.size() && site.by_node[slot].ns != nullptr) {
        return site.by_node[slot];
      }
    }
    return bind(r);
  }

  /// First sight of a (filesystem, node) pair: look its namespace up the
  /// way Tracer::path_of does, throwing on a bad fs index or node.
  NsTable& bind(const Record& r) {
    fs::FileSystemSim& fsys = tracer_.filesystem(r.file.fs);
    const int node = fsys.shared() ? 0 : r.node;
    const fs::Namespace& ns = fsys.ns(fs::ProcSite{node, 0});
    std::vector<NsTable>& by_node =
        sites_[static_cast<std::size_t>(r.file.fs)].by_node;
    const auto slot = static_cast<std::size_t>(node);
    if (by_node.size() <= slot) by_node.resize(slot + 1);
    NsTable& t = by_node[slot];
    t.ns = &ns;
    t.entries.resize(ns.inodes().size());
    path_ids_.reserve(path_ids_.size() + ns.inodes().size());
    return t;
  }

  std::uint32_t empty_path() {
    if (empty_path_ == kUnseen) empty_path_ = path_index({});
    return empty_path_;
  }

  std::uint32_t path_index(std::string_view path) {
    const auto [it, fresh] = path_ids_.try_emplace(
        path, static_cast<std::uint32_t>(paths_.size()));
    if (fresh) paths_.push_back(path);
    return it->second;
  }

  const Tracer& tracer_;
  std::vector<Site> sites_;
  std::vector<std::string_view> paths_;
  std::unordered_map<std::string_view, std::uint32_t> path_ids_;
  std::uint32_t empty_path_ = kUnseen;
};

/// Calls f(record) on each of the tracer's records in trace order, reading
/// its store one chunk view at a time.
template <typename F>
void for_each_record(const Tracer& tracer, F&& f) {
  const analysis::ColumnStore& store = tracer.records();
  for (std::size_t c = 0; c < store.num_chunks(); ++c) {
    const analysis::ChunkColumns v = store.chunk(c).cols;
    for (std::size_t k = 0; k < v.rows; ++k) f(v.record(k));
  }
}

}  // namespace

void write_log(const std::string& filename, const Tracer& tracer) {
  std::ofstream os(filename, std::ios::binary | std::ios::trunc);
  WASP_CHECK_MSG(os.good(), "cannot open trace log for write: " + filename);
  const std::size_t num_records = tracer.records().size();

  // Resolve each distinct file once, in record order: its path goes into
  // the deduplicated path table (first-appearance order), which the header
  // carries ahead of the rows.
  FileTable files(tracer);
  for_each_record(tracer, [&files](const Record& r) { files.resolve(r); });

  CheckedWriter w(os, filename);
  w.write(kMagic, sizeof(kMagic));
  w.put_u64(tracer.num_apps());
  for (std::size_t a = 0; a < tracer.num_apps(); ++a) {
    w.put_string(tracer.app_name(static_cast<std::uint16_t>(a)));
  }
  w.put_u64(tracer.num_filesystems());
  for (std::size_t f = 0; f < tracer.num_filesystems(); ++f) {
    const auto& fsys = tracer.filesystem(static_cast<std::int16_t>(f));
    w.put_string(fsys.name());
    w.put_u64(fsys.shared() ? 1 : 0);
  }
  w.put_u64(files.paths().size());
  for (const std::string_view p : files.paths()) w.put_string(p);
  w.put_u64(num_records);
  std::vector<Row> block(std::min(num_records, kBlockRows));
  std::size_t staged = 0;
  for_each_record(tracer, [&](const Record& r) {
    const FileTable::Entry file = files.resolve(r);
    block[staged++] = to_row(r, file.path_idx, file.size);
    if (staged == block.size()) {
      w.write(block.data(), staged * sizeof(Row));
      staged = 0;
    }
  });
  if (staged > 0) w.write(block.data(), staged * sizeof(Row));
  w.finish();
}

LogReader::LogReader(const std::string& filename)
    : filename_(filename), is_(filename, std::ios::binary) {
  WASP_CHECK_MSG(is_.good(), "cannot open trace log: " + filename);
  char magic[8];
  is_.read(magic, sizeof(magic));
  WASP_CHECK_MSG(is_.good() && std::memcmp(magic, kMagic, 8) == 0,
                 "not a WASP trace log: " + filename);

  const std::uint64_t napps = get_u64(is_, filename);
  for (std::uint64_t i = 0; i < napps; ++i) {
    header_.apps.push_back(get_string(is_, filename));
  }
  const std::uint64_t nfs = get_u64(is_, filename);
  for (std::uint64_t i = 0; i < nfs; ++i) {
    header_.fs_names.push_back(get_string(is_, filename));
    header_.fs_shared.push_back(get_u64(is_, filename) != 0);
  }
  const std::uint64_t npaths = get_u64(is_, filename);
  for (std::uint64_t i = 0; i < npaths; ++i) {
    header_.path_table.push_back(get_string(is_, filename));
  }
  header_.num_records = get_u64(is_, filename);

  // Validate the declared count against what the file actually holds, so a
  // truncated or corrupt header fails here instead of driving a huge
  // reserve downstream.
  const std::streamoff data_pos = is_.tellg();
  is_.seekg(0, std::ios::end);
  const std::streamoff end_pos = is_.tellg();
  is_.seekg(data_pos);
  WASP_CHECK_MSG(is_.good() && end_pos >= data_pos,
                 "cannot size trace log: " + filename);
  const auto avail = static_cast<std::uint64_t>(end_pos - data_pos);
  WASP_CHECK_MSG(header_.num_records <= avail / sizeof(Row),
                 "trace log declares more records than the file holds: " +
                     filename);
  remaining_ = header_.num_records;
}

std::size_t LogReader::next_chunk(std::size_t max_rows,
                                  std::vector<Record>& records,
                                  std::vector<std::uint32_t>& path_idx,
                                  std::vector<std::uint64_t>& file_sizes) {
  WASP_OBS_SPAN("log.read_chunk");
  const auto n = static_cast<std::size_t>(
      std::min<std::uint64_t>(max_rows, remaining_));
  const std::uint64_t first = header_.num_records - remaining_;
  const std::size_t num_fs = header_.fs_names.size();
  std::vector<Row> block(std::min(n, kBlockRows));
  for (std::size_t done = 0; done < n;) {
    const std::size_t want = std::min(n - done, block.size());
    is_.read(reinterpret_cast<char*>(block.data()),
             static_cast<std::streamsize>(want * sizeof(Row)));
    const auto got = static_cast<std::size_t>(is_.gcount()) / sizeof(Row);
    for (std::size_t i = 0; i < got; ++i) {
      const Row& row = block[i];
      const std::uint64_t index = first + done + i;
      WASP_CHECK_MSG(row.path_idx < header_.path_table.size() ||
                         header_.path_table.empty(),
                     "bad path index in trace log: " + filename_);
      // The analyzer indexes per-interface and per-op arrays by these
      // bytes.
      WASP_CHECK_MSG(row.iface <= static_cast<std::uint8_t>(Iface::kMpi) &&
                         row.op <= static_cast<std::uint8_t>(Op::kSendRecv),
                     "bad interface or op code in trace log: " + filename_ +
                         " (record " + std::to_string(index) + ")");
      // Durations are unsigned: a reversed span would wrap to ~585 years.
      WASP_CHECK_MSG(row.tend >= row.tstart,
                     "trace log record ends before it starts: " + filename_ +
                         " (record " + std::to_string(index) + ")");
      // The analyzer keys files by (fs, inode), so a valid file key must
      // name one of the header's filesystems.
      WASP_CHECK_MSG(row.fs < 0 || row.file == fs::kInvalidFile ||
                         static_cast<std::size_t>(row.fs) < num_fs,
                     "bad filesystem index in trace log: " + filename_ +
                         " (record " + std::to_string(index) + ")");
      records.push_back(from_row(row));
      path_idx.push_back(row.path_idx);
      file_sizes.push_back(row.file_size);
    }
    WASP_CHECK_MSG(got == want,
                   "truncated trace log: " + filename_ +
                       " (short read at record " +
                       std::to_string(first + done + got) + " of " +
                       std::to_string(header_.num_records) + ")");
    done += want;
  }
  remaining_ -= n;
  return n;
}

void write_csv(std::ostream& os, const Tracer& tracer) {
  os << "app,rank,node,iface,op,path,offset,size,count,tstart_ns,tend_ns\n";
  for_each_record(tracer, [&](const Record& r) {
    os << tracer.app_name(r.app) << ',' << r.rank << ',' << r.node << ','
       << to_string(r.iface) << ',' << to_string(r.op) << ','
       << tracer.path_of(r.file, r.node) << ',' << r.offset << ',' << r.size
       << ',' << r.count << ',' << r.tstart << ',' << r.tend << '\n';
  });
}

}  // namespace wasp::trace
