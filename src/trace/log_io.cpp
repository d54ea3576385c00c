#include "trace/log_io.hpp"

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <unordered_map>
#include <ostream>

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

  void put_string(const std::string& s) {
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

// Fixed-width on-disk row (independent of struct padding).
struct Row {
  std::uint16_t app;
  std::int32_t rank;
  std::int32_t node;
  std::uint8_t iface;
  std::uint8_t op;
  std::int16_t fs;
  std::uint64_t file;
  std::uint64_t offset;
  std::uint64_t size;
  std::uint32_t count;
  std::uint64_t tstart;
  std::uint64_t tend;
  std::uint32_t path_idx;
  std::uint64_t file_size;
};

Row to_row(const Record& r, std::uint32_t path_idx,
           std::uint64_t file_size) {
  // memset, not just member init: the struct has padding holes (after app,
  // count, path_idx) and every byte lands on disk — uninitialized padding
  // made "identical" runs produce different log bytes.
  Row row;
  std::memset(&row, 0, sizeof(row));
  row.app = r.app;
  row.rank = r.rank;
  row.node = r.node;
  row.iface = static_cast<std::uint8_t>(r.iface);
  row.op = static_cast<std::uint8_t>(r.op);
  row.fs = r.file.fs;
  row.file = r.file.file;
  row.offset = r.offset;
  row.size = r.size;
  row.count = r.count;
  row.tstart = r.tstart;
  row.tend = r.tend;
  row.path_idx = path_idx;
  row.file_size = file_size;
  return row;
}

Record from_row(const Row& row) {
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

/// A file as the log sees it: its namespace (one per node on node-local
/// filesystems; null for file-less records) and inode id.
using FileSite = std::pair<const fs::Namespace*, fs::FileId>;

struct FileSiteHash {
  std::size_t operator()(const FileSite& f) const noexcept {
    return std::hash<const void*>{}(f.first) ^
           (f.second * 0x9E3779B97F4A7C15ULL);
  }
};

}  // namespace

void write_log(const std::string& filename, const Tracer& tracer) {
  std::ofstream os(filename, std::ios::binary | std::ios::trunc);
  WASP_CHECK_MSG(os.good(), "cannot open trace log for write: " + filename);
  const RecordBlocks& records = tracer.records();

  // Resolve each distinct file once, in record order: its path goes into
  // the deduplicated path table (first-appearance order), and its
  // end-of-run size is read from the inode.
  std::vector<std::string> path_table;
  std::unordered_map<std::string, std::uint32_t> path_ids;
  std::vector<std::pair<std::uint32_t, std::uint64_t>> files;  // path, size
  std::unordered_map<FileSite, std::uint32_t, FileSiteHash> file_ids;
  std::vector<std::uint32_t> file_of;
  file_of.reserve(records.size());
  for (const Record& r : records) {
    FileSite site{nullptr, fs::kInvalidFile};
    if (r.file.valid()) {
      auto& fsys = tracer.filesystem(r.file.fs);
      site = {&fsys.ns(fs::ProcSite{fsys.shared() ? 0 : r.node, 0}),
              r.file.file};
    }
    const auto [it, fresh] = file_ids.try_emplace(
        site, static_cast<std::uint32_t>(files.size()));
    if (fresh) {
      const fs::Inode* inode =
          site.first != nullptr && site.second < site.first->inodes().size()
              ? &site.first->inodes()[site.second]
              : nullptr;
      std::string path = inode != nullptr ? inode->path : "";
      const auto [pit, new_path] = path_ids.try_emplace(
          path, static_cast<std::uint32_t>(path_table.size()));
      if (new_path) path_table.push_back(std::move(path));
      files.emplace_back(pit->second, inode != nullptr ? inode->size : 0);
    }
    file_of.push_back(it->second);
  }

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
  w.put_u64(path_table.size());
  for (const auto& p : path_table) w.put_string(p);
  w.put_u64(records.size());
  std::size_t i = 0;
  for (const Record& r : records) {
    const auto& [path_idx, size] = files[file_of[i++]];
    const Row row = to_row(r, path_idx, size);
    w.write(&row, sizeof(row));
  }
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
  for (std::size_t i = 0; i < n; ++i) {
    Row row;
    is_.read(reinterpret_cast<char*>(&row), sizeof(row));
    const std::uint64_t index = header_.num_records - remaining_ + i;
    WASP_CHECK_MSG(is_.good(),
                   "truncated trace log: " + filename_ + " (short read at record " +
                       std::to_string(index) + " of " +
                       std::to_string(header_.num_records) + ")");
    WASP_CHECK_MSG(
        row.path_idx < header_.path_table.size() || header_.path_table.empty(),
        "bad path index in trace log: " + filename_);
    // The analyzer indexes per-interface and per-op arrays by these bytes.
    WASP_CHECK_MSG(row.iface <= static_cast<std::uint8_t>(Iface::kMpi) &&
                       row.op <= static_cast<std::uint8_t>(Op::kSendRecv),
                   "bad interface or op code in trace log: " + filename_ +
                       " (record " + std::to_string(index) + ")");
    records.push_back(from_row(row));
    path_idx.push_back(row.path_idx);
    file_sizes.push_back(row.file_size);
  }
  remaining_ -= n;
  return n;
}

LogData read_log(const std::string& filename) {
  LogReader reader(filename);
  const LogHeader& h = reader.header();
  LogData data;
  data.apps = h.apps;
  data.fs_names = h.fs_names;
  data.fs_shared = h.fs_shared;
  const auto n = static_cast<std::size_t>(h.num_records);
  data.records.reserve(n);
  data.paths.reserve(n);
  data.file_sizes.reserve(n);
  std::vector<std::uint32_t> path_idx;
  path_idx.reserve(n);
  while (reader.next_chunk(1u << 16, data.records, path_idx,
                           data.file_sizes) > 0) {
  }
  for (const std::uint32_t pi : path_idx) {
    data.paths.push_back(h.path_table.empty() ? "" : h.path_table[pi]);
  }
  return data;
}

void write_csv(std::ostream& os, const Tracer& tracer) {
  os << "app,rank,node,iface,op,path,offset,size,count,tstart_ns,tend_ns\n";
  for (const auto& r : tracer.records()) {
    os << tracer.app_name(r.app) << ',' << r.rank << ',' << r.node << ','
       << to_string(r.iface) << ',' << to_string(r.op) << ','
       << tracer.path_of(r.file, r.node) << ',' << r.offset << ',' << r.size
       << ',' << r.count << ',' << r.tstart << ',' << r.tend << '\n';
  }
}

}  // namespace wasp::trace
