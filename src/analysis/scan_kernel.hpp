// The analyzer's map step: one chunk's pass over its row range, producing
// the ChunkState partial that Analyzer::analyze() merges in chunk-index
// order.
//
// Two implementations produce byte-identical ChunkStates:
//
//  - scan_chunk(): batched columnar kernels. The range is walked as
//    contiguous ChunkColumns spans (one residency resolution per storage
//    chunk) and each span goes through two tight passes: app bookkeeping
//    (time range, ranks, I/O row lists) over every record, then one fused
//    decode of the I/O records (op breakdowns, size histograms + interval
//    collection, file bookkeeping + sequentiality). Per-row state lives in
//    dense structures (apps indexed by id, files interned once per row into
//    an open-addressed FileTable, flat hash maps for rank/size keys) that
//    are sorted into ChunkState's key-ordered form once per chunk.
//
//  - scan_chunk_reference(): the scalar row-at-a-time loop, kept as the
//    equivalence oracle behind Analyzer::Options::reference_scan. Tests
//    assert the two produce byte-identical profiles across backends, job
//    counts, and chunk_rows values.
//
// The determinism argument: every aggregate is accumulated per key in row
// order in both paths (splitting the row loop into per-category passes
// reorders accumulation *across* independent accumulators, never within
// one), integer aggregates are order-free, and the dense->ordered sort at
// finalize reproduces exactly the key order the std::map/std::set path
// would have built up incrementally. Hence profiles stay byte-identical at
// any --jobs, any chunk_rows, and on both backends.
#pragma once

#include <array>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "analysis/profile.hpp"
#include "analysis/trace_store.hpp"
#include "util/parallel.hpp"

namespace wasp::analysis {

/// Analysis-scope file identity: node-local files with the same inode id on
/// different nodes are distinct.
struct ScopedFile {
  std::int16_t fs;
  int node_scope;  // -1 for shared filesystems
  fs::FileId file;
  bool operator<(const ScopedFile& o) const noexcept {
    return std::tie(fs, node_scope, file) <
           std::tie(o.fs, o.node_scope, o.file);
  }
  bool operator==(const ScopedFile& o) const noexcept {
    return fs == o.fs && node_scope == o.node_scope && file == o.file;
  }
};

/// Accumulate one decoded I/O row into an ops breakdown. Callers decode the
/// row once and pass the pieces — the scan paths and the phases pass share
/// this instead of re-reading columns per call-site.
inline void add_op(OpsBreakdown& b, trace::Op op, std::uint64_t n,
                   fs::Bytes total_bytes, double duration_sec) {
  if (op == trace::Op::kRead) {
    b.read_ops += n;
    b.read_bytes += total_bytes;
    b.data_sec += duration_sec;
  } else if (op == trace::Op::kWrite) {
    b.write_ops += n;
    b.write_bytes += total_bytes;
    b.data_sec += duration_sec;
  } else if (trace::is_meta(op)) {
    b.meta_ops += n;
    b.meta_sec += duration_sec;
  }
}

using Interval = std::pair<sim::Time, sim::Time>;

/// Per-(scoped file, rank) access-stream summary for the sequentiality
/// reduction. Whether a chunk's *first* op on a stream continues the
/// previous chunk's stream is only decidable at merge time, so the chunk
/// records the stream's entry offset and defers that single op's verdict.
struct StreamState {
  fs::Bytes first_offset = 0;
  fs::Bytes last_end = 0;
};

/// One (scoped file, rank) stream a chunk touched, in (sf, rank) key order.
struct StreamEntry {
  ScopedFile sf;
  std::int32_t rank;
  StreamState state;
};

/// Everything a chunk knows about one scoped file, in one record, so the
/// reduce step walks one sorted vector per chunk. `sf` is the merge key.
struct FileAgg {
  ScopedFile sf;
  FileStats stats;
  std::size_t first_row = 0;              ///< row whose path/size resolve it
  std::vector<std::int32_t> readers;      ///< distinct ranks, ascending
  std::vector<std::int32_t> writers;      ///< distinct ranks, ascending
};

constexpr std::size_t kNumIfaces = 8;  // > every trace::Iface value

/// Everything a chunk knows about one app, in one record.
struct AppPart {
  AppStats stats;
  std::vector<std::int32_t> ranks;  ///< distinct ranks, ascending
  /// Data-op count per interface (picks the dominant one).
  std::array<std::uint64_t, kNumIfaces> iface_ops{};
  std::vector<std::size_t> io_rows;  ///< I/O rows, ascending (phase input)
};

/// Everything one row chunk contributes; merged in chunk-index order.
///
/// Large keyed state (files, streams, transfer sizes) is carried as
/// key-sorted vectors, not maps: the map step emits each vector once
/// (already sorted), and the reduce step folds the chunks' vectors with one
/// k-way merge each — no per-key tree walks or node allocations on either
/// side. Apps are few, so they stay in a map.
struct ChunkState {
  sim::Time job_t0 = 0;
  sim::Time job_t1 = 0;
  OpsBreakdown totals;
  std::map<std::uint16_t, AppPart> apps;
  std::vector<FileAgg> files;  ///< sorted by ScopedFile
  std::vector<StreamEntry> streams;  ///< sorted by (sf, rank)
  std::uint64_t seq_ops = 0;  ///< excludes each stream's deferred first op
  std::uint64_t pattern_ops = 0;
  std::vector<std::pair<fs::Bytes, std::uint64_t>>
      size_counts;  ///< sorted by size
  std::vector<Interval> io_intervals;
  util::SizeHistogram read_hist = util::SizeHistogram::paper_buckets();
  util::SizeHistogram write_hist = util::SizeHistogram::paper_buckets();
  std::vector<std::vector<Interval>> read_iv;
  std::vector<std::vector<Interval>> write_iv;
};

/// The batched columnar map step (the default path).
ChunkState scan_chunk(const TraceStore& store, const util::ChunkRange& range,
                      const std::vector<std::string>& app_names,
                      const std::vector<char>& fs_is_shared);

/// The scalar row-at-a-time map step — the equivalence oracle for the
/// kernels, selected by Analyzer::Options::reference_scan.
ChunkState scan_chunk_reference(const TraceStore& store,
                                const util::ChunkRange& range,
                                const std::vector<std::string>& app_names,
                                const std::vector<char>& fs_is_shared);

}  // namespace wasp::analysis
