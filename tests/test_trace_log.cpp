// Trace persistence: Recorder-style binary logs round-trip, CSV export, and
// malformed inputs fail loudly.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "analysis/analyzer.hpp"
#include "io/posix.hpp"
#include "sim_test_util.hpp"
#include "trace/log_io.hpp"
#include "util/error.hpp"

namespace wasp::trace {
namespace {

using runtime::Proc;
using runtime::Simulation;

std::string temp_path(const char* name) {
  return std::string(::testing::TempDir()) + "/" + name;
}

/// A whole log streamed into an in-memory store the way wasp_analyze loads
/// one; construction throws whatever reading the log throws.
struct LoadedLog {
  explicit LoadedLog(const std::string& path) : reader(path) {
    analysis::load_log(reader, store);
  }
  LogReader reader;
  analysis::ColumnStore store;
};

/// Produce a small but non-trivial trace.
void populate(Simulation& sim) {
  const auto app = sim.tracer().register_app("writer");
  auto prog = [](Simulation& s, std::uint16_t a) -> sim::Task<void> {
    Proc p(s, a, 3, 1);
    io::Posix posix(p);
    auto f = co_await posix.open("/p/gpfs1/log_t", io::OpenMode::kWrite);
    co_await posix.write(f, 4096, 16);
    co_await posix.close(f);
    auto g = co_await posix.open("/dev/shm/local_t", io::OpenMode::kWrite);
    co_await posix.write(g, 512, 2);
    co_await posix.close(g);
    co_await p.compute(5 * sim::kMs);
  };
  sim.engine().spawn(prog(sim, app));
  sim.engine().run();
}

TEST(TraceLog, BinaryRoundTripPreservesEverything) {
  Simulation sim(cluster::tiny(2));
  populate(sim);
  const std::string path = temp_path("roundtrip.wtrc");
  write_log(path, sim.tracer());
  const LoadedLog log(path);
  const LogHeader& header = log.reader.header();
  const auto input = analysis::log_input(header, log.store);

  const auto& original = sim.tracer().records();
  ASSERT_EQ(log.store.size(), original.size());
  for (std::size_t i = 0; i < original.size(); ++i) {
    const Record& a = original[i];
    const Record b = log.store.row(i);
    EXPECT_EQ(a.app, b.app);
    EXPECT_EQ(a.rank, b.rank);
    EXPECT_EQ(a.node, b.node);
    EXPECT_EQ(a.iface, b.iface);
    EXPECT_EQ(a.op, b.op);
    EXPECT_EQ(a.file, b.file);
    EXPECT_EQ(a.offset, b.offset);
    EXPECT_EQ(a.size, b.size);
    EXPECT_EQ(a.count, b.count);
    EXPECT_EQ(a.tstart, b.tstart);
    EXPECT_EQ(a.tend, b.tend);
    // Node-local paths resolve through the record's node.
    const std::string path_i = input.path_at(i);
    EXPECT_EQ(path_i, sim.tracer().path_of(a.file, a.node));
    // Every row carries its file's end-of-run size.
    if (path_i == "/p/gpfs1/log_t") {
      EXPECT_EQ(log.store.file_size_at(i), 4096u * 16);
    } else if (path_i == "/dev/shm/local_t") {
      EXPECT_EQ(log.store.file_size_at(i), 512u * 2);
    } else {
      EXPECT_EQ(log.store.file_size_at(i), 0u);
    }
  }
  EXPECT_EQ(header.apps.size(), sim.tracer().num_apps());
  EXPECT_EQ(header.fs_names.size(), sim.tracer().num_filesystems());
  std::remove(path.c_str());
}

TEST(TraceLog, CsvHasHeaderAndOneLinePerRecord) {
  Simulation sim(cluster::tiny(2));
  populate(sim);
  std::ostringstream os;
  write_csv(os, sim.tracer());
  const std::string out = os.str();
  EXPECT_EQ(out.find("app,rank,node,iface,op,path"), 0u);
  std::size_t lines = 0;
  for (char c : out) {
    if (c == '\n') ++lines;
  }
  EXPECT_EQ(lines, sim.tracer().records().size() + 1);
  EXPECT_NE(out.find("/p/gpfs1/log_t"), std::string::npos);
}

TEST(TraceLog, RejectsGarbageFile) {
  const std::string path = temp_path("garbage.wtrc");
  {
    std::ofstream os(path, std::ios::binary);
    os << "this is not a trace log at all";
  }
  EXPECT_THROW(LoadedLog{path}, util::SimError);
  std::remove(path.c_str());
}

TEST(TraceLog, RejectsTruncatedFile) {
  Simulation sim(cluster::tiny(2));
  populate(sim);
  const std::string path = temp_path("trunc.wtrc");
  write_log(path, sim.tracer());
  // Truncate to half.
  std::ifstream is(path, std::ios::binary);
  std::stringstream buf;
  buf << is.rdbuf();
  std::string content = buf.str();
  is.close();
  {
    std::ofstream os(path, std::ios::binary | std::ios::trunc);
    os.write(content.data(),
             static_cast<std::streamsize>(content.size() / 2));
  }
  EXPECT_THROW(LoadedLog{path}, util::SimError);
  std::remove(path.c_str());
}

TEST(TraceLog, MissingFileThrows) {
  EXPECT_THROW(LoadedLog{"/nonexistent/dir/x.wtrc"}, util::SimError);
}

TEST(TraceLog, RejectsOverstatedRecordCount) {
  // A structurally valid header whose declared record count exceeds what
  // the file can possibly hold must fail at header validation — before any
  // reserve() of the bogus count.
  const std::string path = temp_path("overstated.wtrc");
  {
    std::ofstream os(path, std::ios::binary);
    os.write("WASPTRC2", 8);
    const std::uint64_t zero = 0;
    os.write(reinterpret_cast<const char*>(&zero), 8);  // napps
    os.write(reinterpret_cast<const char*>(&zero), 8);  // nfs
    os.write(reinterpret_cast<const char*>(&zero), 8);  // npaths
    const std::uint64_t huge = 1000000000000000ull;
    os.write(reinterpret_cast<const char*>(&huge), 8);  // nrecords
  }
  EXPECT_THROW(LoadedLog{path}, util::SimError);
  EXPECT_THROW(LogReader{path}, util::SimError);
  std::remove(path.c_str());
}

TEST(TraceLog, RejectsRowSectionShorterThanDeclared) {
  // Chop exactly one row off a valid log: the header still parses, but the
  // count-vs-size check must reject it at open time.
  Simulation sim(cluster::tiny(2));
  populate(sim);
  const std::string path = temp_path("shortrows.wtrc");
  write_log(path, sim.tracer());
  std::ifstream is(path, std::ios::binary);
  std::stringstream buf;
  buf << is.rdbuf();
  std::string content = buf.str();
  is.close();
  {
    std::ofstream os(path, std::ios::binary | std::ios::trunc);
    os.write(content.data(), static_cast<std::streamsize>(content.size() - 4));
  }
  EXPECT_THROW(LogReader{path}, util::SimError);
  std::remove(path.c_str());
}

// A row whose interface or op byte lies past the last enumerator must be
// rejected when read: the analyzer indexes per-interface and per-op arrays
// by these bytes, so an unchecked one writes out of bounds.
TEST(TraceLog, RejectsOutOfRangeEnumBytes) {
  Simulation sim(cluster::tiny(2));
  populate(sim);
  const std::string path = temp_path("badenum.wtrc");
  write_log(path, sim.tracer());
  ASSERT_NO_THROW(LoadedLog{path});
  std::string content;
  {
    std::ifstream is(path, std::ios::binary);
    std::stringstream buf;
    buf << is.rdbuf();
    content = buf.str();
  }
  const std::string last_index =
      std::to_string(sim.tracer().records().size() - 1);
  // The last row starts one fixed-width on-disk row (80 bytes) from the
  // end; its iface byte is at offset 12 and its op byte at offset 13.
  const std::size_t last_row = content.size() - 80;
  for (const std::size_t field : {std::size_t{12}, std::size_t{13}}) {
    SCOPED_TRACE(field == 12 ? "iface" : "op");
    std::string patched = content;
    patched[last_row + field] = static_cast<char>(200);
    {
      std::ofstream os(path, std::ios::binary | std::ios::trunc);
      os.write(patched.data(), static_cast<std::streamsize>(patched.size()));
    }
    try {
      LoadedLog log(path);
      ADD_FAILURE() << "the log path accepted an out-of-range enum byte";
    } catch (const util::SimError& e) {
      const std::string msg = e.what();
      EXPECT_NE(msg.find(path), std::string::npos) << msg;
      EXPECT_NE(msg.find("record " + last_index), std::string::npos) << msg;
    }
    LogReader reader(path);
    std::vector<Record> records;
    std::vector<std::uint32_t> path_idx;
    std::vector<std::uint64_t> file_sizes;
    EXPECT_THROW(
        while (reader.next_chunk(3, records, path_idx, file_sizes) > 0) {},
        util::SimError);
  }
  std::remove(path.c_str());
}

std::string file_content(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  std::stringstream buf;
  buf << is.rdbuf();
  return buf.str();
}

/// Write `content` over `path`, then require that reading the log throws a
/// SimError whose message names the path and contains `what`.
void expect_rejected(const std::string& path, const std::string& content,
                     const std::string& what) {
  {
    std::ofstream os(path, std::ios::binary | std::ios::trunc);
    os.write(content.data(), static_cast<std::streamsize>(content.size()));
  }
  try {
    LoadedLog log(path);
    ADD_FAILURE() << "the log path accepted a row no tracer writes (" << what
                  << ")";
  } catch (const util::SimError& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find(path), std::string::npos) << msg;
    EXPECT_NE(msg.find(what), std::string::npos) << msg;
  }
}

// A record that ends before it starts has an unsigned duration that wraps
// to ~1.8e10 s, which the analyzer would fold into its I/O time shares.
TEST(TraceLog, RejectsRecordEndingBeforeItStarts) {
  Simulation sim(cluster::tiny(2));
  populate(sim);
  const std::string path = temp_path("reversed.wtrc");
  write_log(path, sim.tracer());
  const auto& records = sim.tracer().records();
  std::size_t victim = 0;
  while (records[victim].tstart == 0) ++victim;
  std::string content = file_content(path);
  // Rows are 80 bytes at the end of the file; tend is at row offset 56.
  const std::size_t row = content.size() - 80 * (records.size() - victim);
  const std::uint64_t tend = records[victim].tstart - 1;
  std::memcpy(content.data() + row + 56, &tend, sizeof(tend));
  expect_rejected(path, content, "record " + std::to_string(victim) + ")");
  std::remove(path.c_str());
}

// A valid file key must name a filesystem in the header's table: the
// analyzer keys its per-file state by (fs, inode), so a stray fs index
// silently invents a file.
TEST(TraceLog, RejectsFilesystemIndexPastHeader) {
  Simulation sim(cluster::tiny(2));
  populate(sim);
  const std::string path = temp_path("badfs.wtrc");
  write_log(path, sim.tracer());
  const auto& records = sim.tracer().records();
  std::size_t victim = 0;
  while (!records[victim].file.valid()) ++victim;
  std::string content = file_content(path);
  // The fs index is the int16 at row offset 14.
  const std::size_t row = content.size() - 80 * (records.size() - victim);
  const auto fs = static_cast<std::int16_t>(sim.tracer().num_filesystems());
  std::memcpy(content.data() + row + 14, &fs, sizeof(fs));
  expect_rejected(path, content, "record " + std::to_string(victim) + ")");
  std::remove(path.c_str());
}

// A log that shrinks after LogReader validated its size (a writer still
// truncating it, a full disk) is diagnosed at the first record the file no
// longer holds, even when that record is cut mid-row.
TEST(TraceLog, ShortReadNamesFirstMissingRecord) {
  Simulation sim(cluster::tiny(2));
  populate(sim);
  const std::string path = temp_path("shrunk.wtrc");
  write_log(path, sim.tracer());
  const std::size_t n = sim.tracer().records().size();
  ASSERT_GE(n, 3u);
  LogReader reader(path);
  // Cut two whole rows and 7 bytes of the one before them.
  std::filesystem::resize_file(path,
                               std::filesystem::file_size(path) - 2 * 80 - 7);
  std::vector<Record> records;
  std::vector<std::uint32_t> path_idx;
  std::vector<std::uint64_t> file_sizes;
  try {
    while (reader.next_chunk(2, records, path_idx, file_sizes) > 0) {
    }
    ADD_FAILURE() << "next_chunk read past the end of a truncated log";
  } catch (const util::SimError& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find(path), std::string::npos) << msg;
    EXPECT_NE(msg.find("short read at record " + std::to_string(n - 3) +
                       " of " + std::to_string(n)),
              std::string::npos)
        << msg;
  }
  EXPECT_EQ(records.size(), n - 3);
  std::remove(path.c_str());
}

// LogReader's own chunking (7 rows) against the whole log as the analyzer's
// log path loads it (one store chunk per read).
TEST(TraceLog, LogReaderStreamsSameRowsAsReadLog) {
  Simulation sim(cluster::tiny(2));
  populate(sim);
  const std::string path = temp_path("stream.wtrc");
  write_log(path, sim.tracer());
  const LoadedLog data(path);
  const auto input = analysis::log_input(data.reader.header(), data.store);

  LogReader reader(path);
  EXPECT_EQ(reader.header().num_records, data.store.size());
  EXPECT_EQ(reader.remaining(), data.store.size());
  std::vector<Record> records;
  std::vector<std::uint32_t> path_idx;
  std::vector<std::uint64_t> file_sizes;
  while (reader.next_chunk(7, records, path_idx, file_sizes) > 0) {
  }
  EXPECT_EQ(reader.remaining(), 0u);
  ASSERT_EQ(records.size(), data.store.size());
  ASSERT_EQ(path_idx.size(), records.size());
  ASSERT_EQ(file_sizes.size(), records.size());
  for (std::size_t i = 0; i < records.size(); ++i) {
    ASSERT_TRUE(records[i] == data.store.row(i)) << "record " << i;
    EXPECT_EQ(reader.header().path_table[path_idx[i]], input.path_at(i));
    EXPECT_EQ(file_sizes[i], data.store.file_size_at(i));
  }
  std::remove(path.c_str());
}

}  // namespace
}  // namespace wasp::trace
