// Golden digests of the bytes the offline trace path puts on disk: a trace
// log (WASPTRC2) and the WSPCHK02 chunk files a spill store writes, both
// from that log and from a synthetic trace. The round-trip tests elsewhere
// check only that what is read back equals what was written; these pin the
// bytes themselves, so a writer or encoder change that still round-trips
// but moves one byte fails here.
//
// A change that alters a format on purpose re-pins: the failure message
// prints the measured digest as a literal to paste over the old pin.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>
#include <set>
#include <string>
#include <vector>

#include "analysis/chunk_codec.hpp"
#include "profile_test_util.hpp"
#include "trace/log_io.hpp"
#include "trace/synthetic.hpp"
#include "workloads/registry.hpp"

namespace wasp {
namespace {

using analysis::SpillColumnStore;
using analysis::codec::Encoding;

/// {files, total bytes, FNV-1a over every byte of every file in order}.
struct BytesDigest {
  std::uint64_t files = 0;
  std::uint64_t bytes = 0;
  std::uint64_t fnv = 0xcbf29ce484222325ULL;
  bool operator==(const BytesDigest&) const = default;
};

std::string to_string(const BytesDigest& d) {
  char buf[96];
  std::snprintf(buf, sizeof(buf), "{%llu, %llu, 0x%016llxULL}",
                static_cast<unsigned long long>(d.files),
                static_cast<unsigned long long>(d.bytes),
                static_cast<unsigned long long>(d.fnv));
  return buf;
}

std::string file_bytes(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  EXPECT_TRUE(is.good()) << path;
  return {std::istreambuf_iterator<char>(is), std::istreambuf_iterator<char>()};
}

void add_file(BytesDigest& d, const std::string& path) {
  const std::string bytes = file_bytes(path);
  for (const unsigned char c : bytes) {
    d.fnv ^= c;
    d.fnv *= 0x100000001b3ULL;
  }
  d.bytes += bytes.size();
  ++d.files;
}

BytesDigest chunk_files_digest(const SpillColumnStore& store) {
  BytesDigest d;
  for (std::size_t c = 0; c < store.spilled_chunks(); ++c) {
    add_file(d, store.chunk_file_path(c));
  }
  return d;
}

void expect_pinned(const char* name, const BytesDigest& measured,
                   const BytesDigest& pin) {
  EXPECT_TRUE(measured == pin) << "\"" << name << "\" measured "
                               << to_string(measured) << "; pinned "
                               << to_string(pin);
}

/// The encoding tag of every column of every chunk file, read from the
/// WSPCHK02 layout (32-byte file header, then per column a u8 tag, a u64
/// payload length and the payload), so each test can show its input
/// reaches the encodings it claims to pin.
std::set<Encoding> encodings_used(const SpillColumnStore& store) {
  std::set<Encoding> used;
  for (std::size_t c = 0; c < store.spilled_chunks(); ++c) {
    const std::string bytes = file_bytes(store.chunk_file_path(c));
    std::size_t p = 32;
    while (p + 9 <= bytes.size()) {
      used.insert(static_cast<Encoding>(bytes[p]));
      std::uint64_t len = 0;
      std::memcpy(&len, bytes.data() + p + 1, sizeof(len));
      p += 9 + static_cast<std::size_t>(len);
    }
    EXPECT_EQ(p, bytes.size()) << store.chunk_file_path(c);
  }
  return used;
}

std::string temp_path(const std::string& name) {
  return ::testing::TempDir() + "/offline_golden_" + name;
}

/// Montage-MPI at test scale with its intermediates on node-local shm: its
/// log mixes files on the shared GPFS namespace with files in the
/// per-node shm namespaces of several nodes, and file-less rows.
std::string write_montage_log(const std::string& path) {
  auto spec = cluster::lassen(4);
  spec.node.cpu_cores = 8;
  advisor::RunConfig cfg;
  cfg.intermediates_to_node_local = true;
  cfg.stdio_buffer = 64 * util::kKiB;
  const workloads::Workload montage =
      workloads::paper_workloads()[static_cast<std::size_t>(
                                       workloads::find_workload("montage-mpi"))]
          .make_test();
  runtime::Simulation sim(spec);
  workloads::run_with(sim, montage, cfg, analysis::Analyzer::Options{});

  std::set<int> local_nodes;
  bool file_less = false;
  for (const trace::Record& r : sim.tracer().records()) {
    if (!r.file.valid()) {
      file_less = true;
    } else if (!sim.tracer().filesystem(r.file.fs).shared()) {
      local_nodes.insert(r.node);
    }
  }
  EXPECT_GE(local_nodes.size(), 2u);
  EXPECT_TRUE(file_less);
  trace::write_log(path, sim.tracer());
  return path;
}

TEST(OfflineGolden, TraceLogBytes) {
  const std::string log = write_montage_log(temp_path("log.wtrc"));
  BytesDigest d;
  add_file(d, log);
  expect_pinned("montage-mpi shm intermediates log", d,
                {1, 15973, 0x4ec004469af820cbULL});
  std::remove(log.c_str());
}

TEST(OfflineGolden, LogStreamedChunkFiles) {
  const std::string log = write_montage_log(temp_path("stream.wtrc"));
  SpillColumnStore store(
      {.dir = temp_path("stream.spill"), .chunk_rows = 64});
  (void)testutil::analyze_log(log, store);
  expect_pinned("montage-mpi log at chunk_rows=64", chunk_files_digest(store),
                {3, 3383, 0x95ded5d8a57f1654ULL});
  const auto used = encodings_used(store);
  EXPECT_TRUE(used.count(Encoding::kDelta) && used.count(Encoding::kRle));
  std::remove(log.c_str());
}

TEST(OfflineGolden, SyntheticChunkFiles) {
  const auto records = trace::synthetic_records(1000);
  std::vector<std::uint32_t> path_idx;
  std::vector<std::uint64_t> file_sizes;
  for (std::size_t i = 0; i < records.size(); ++i) {
    path_idx.push_back(static_cast<std::uint32_t>(i / 100));
    file_sizes.push_back(records[i].size);
  }
  SpillColumnStore store(
      {.dir = temp_path("synthetic.spill"), .chunk_rows = 256});
  store.append(records, path_idx, file_sizes);
  store.finalize();
  expect_pinned("synthetic_records(1000) with aux at chunk_rows=256",
                chunk_files_digest(store), {4, 28025, 0x3b550c07cad03b20ULL});
  const auto used = encodings_used(store);
  EXPECT_EQ(used, (std::set<Encoding>{Encoding::kRaw, Encoding::kDelta,
                                      Encoding::kRle}));
}

}  // namespace
}  // namespace wasp
