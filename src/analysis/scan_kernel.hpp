// The analyzer's map step: one chunk's pass over its row range, producing
// the ChunkState partial that Analyzer::analyze() merges in chunk-index
// order.
//
// Two implementations produce byte-identical ChunkStates:
//
//  - scan_chunk(): batched columnar kernels. The range is walked as
//    contiguous ChunkColumns spans (one residency resolution per storage
//    chunk) and each span goes through three tight passes: app bookkeeping
//    (first/last events, ranks) over every record, one fused decode of the
//    I/O records (op breakdowns, size histograms, union segments, phase
//    clusters, file bookkeeping + sequentiality), and the timeline binning
//    of the data rows. Per-row state lives in
//    dense structures (apps indexed by id, files interned once per row into
//    an open-addressed FileTable, flat hash maps for rank/size keys) that
//    are sorted into ChunkState's key-ordered form once per chunk. Union
//    segments and phase clusters build on stacks: rows a tracer wrote arrive
//    in nondecreasing end time, so each interval either extends the top
//    entry (absorbing any it bridges) or opens a new one, with no sort. A
//    row that ends before the top entry does is set aside, and finalize()
//    folds those in with sort_and_sweep().
//
//  - scan_chunk_reference(): the scalar row-at-a-time loop, kept as the
//    equivalence oracle behind Analyzer::Options::reference_scan. It builds
//    the segments and clusters by sort_and_sweep() over every row. Tests
//    assert the two produce byte-identical profiles across backends, job
//    counts, and chunk_rows values.
//
// The determinism argument: every aggregate is accumulated per key in row
// order in both paths (splitting the row loop into per-category passes
// reorders accumulation *across* independent accumulators, never within
// one), integer aggregates are order-free, and the dense->ordered sort at
// finalize reproduces exactly the key order the std::map/std::set path
// would have built up incrementally. Segments and clusters are a function
// of the set of intervals alone (the connected pieces of their union), and
// every tally a cluster carries is an integer or a set, so stack, sort and
// k-way merge all give the same ones in any row order. Hence profiles stay
// byte-identical at any --jobs, any chunk_rows, and on both backends.
#pragma once

#include <algorithm>
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
/// row once and pass the pieces.
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

/// Set-union of ascending id vectors, in place on `into`.
void union_ids(std::vector<std::int32_t>& into,
               const std::vector<std::int32_t>& from);

/// One connected piece [lo, hi] of a union of closed time intervals.
struct Segment {
  sim::Time lo = 0;
  sim::Time hi = 0;
  void absorb(Segment&& o) noexcept {
    lo = std::min(lo, o.lo);
    hi = std::max(hi, o.hi);
  }
  bool operator==(const Segment&) const = default;
};

/// Summed length of disjoint segments: the covered time.
sim::Time covered_time(const std::vector<Segment>& segs) noexcept;

/// One app's burst of I/O rows [lo, hi] (earliest start, latest end), kept
/// apart from its neighbours by more than the phase gap: a phase, or a
/// chunk's piece of one. Everything it tallies is order-free.
struct PhaseCluster {
  sim::Time lo = 0;
  sim::Time hi = 0;
  OpsBreakdown ops;  ///< counts and bytes; op times are not summed
  /// Data-op count per transfer size, ascending by size.
  std::vector<std::pair<fs::Bytes, std::uint64_t>> sizes;
  std::vector<std::int32_t> ranks;  ///< distinct, ascending

  /// A cluster of one I/O row.
  static PhaseCluster of_row(sim::Time t0, sim::Time t1, trace::Op op,
                             std::uint32_t cnt, fs::Bytes sz,
                             std::int32_t rank);
  /// Join `o` into this cluster: span, counts, sizes and ranks.
  void absorb(PhaseCluster&& o);
  bool operator==(const PhaseCluster&) const = default;
};

/// One step of a start-ordered sweep: `item` joins the last entry of `out`
/// when it starts at most `gap` after that entry ends, else it opens a new
/// one. Fed items ascending by `lo`, `out` stays disjoint and ascending.
template <typename T>
void sweep_step(std::vector<T>& out, T&& item, sim::Time gap) {
  if (!out.empty() && item.lo <= out.back().hi + gap) {
    out.back().absorb(std::move(item));
  } else {
    out.push_back(std::move(item));
  }
}

/// The sort-and-sweep: the connected pieces of `items` in any order, where
/// two pieces within `gap` of each other connect (gap 0 for union
/// segments, the phase gap for clusters). The oracle for the stacks, and
/// their fallback for rows out of end-time order.
template <typename T>
std::vector<T> sort_and_sweep(std::vector<T> items, sim::Time gap) {
  std::sort(items.begin(), items.end(),
            [](const T& a, const T& b) { return a.lo < b.lo; });
  std::vector<T> out;
  for (T& item : items) sweep_step(out, std::move(item), gap);
  return out;
}

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

/// The bandwidth timeline's bins, fixed before the scan from the store's
/// bounds: `count` bins of `width`, the first starting at the job's
/// earliest start `t0`.
struct TimelineGrid {
  sim::Time t0 = 0;
  sim::Time width = 1;
  std::size_t count = 1;
};

/// Bytes per timeline bin of one chunk's data rows, reads and writes.
struct TimelineBins {
  std::vector<double> read;
  std::vector<double> write;
};

/// Everything a chunk knows about one app, in one record.
struct AppPart {
  AppStats stats;
  std::vector<std::int32_t> ranks;  ///< distinct ranks, ascending
  /// Data-op count per interface (picks the dominant one).
  std::array<std::uint64_t, kNumIfaces> iface_ops{};
  /// Phase clusters of the app's I/O rows, disjoint and ascending.
  std::vector<PhaseCluster> clusters;
};

/// Everything one row chunk contributes; merged in chunk-index order.
///
/// Large keyed state (files, streams, transfer sizes) is carried as
/// key-sorted vectors, not maps: the map step emits each vector once
/// (already sorted), and the reduce step folds the chunks' vectors with one
/// k-way merge each — no per-key tree walks or node allocations on either
/// side; union segments and phase clusters merge the same way, by start.
/// Apps are few, so they stay in a map.
struct ChunkState {
  OpsBreakdown totals;
  std::map<std::uint16_t, AppPart> apps;
  std::vector<FileAgg> files;  ///< sorted by ScopedFile
  std::vector<StreamEntry> streams;  ///< sorted by (sf, rank)
  std::uint64_t seq_ops = 0;  ///< excludes each stream's deferred first op
  std::uint64_t pattern_ops = 0;
  std::vector<std::pair<fs::Bytes, std::uint64_t>>
      size_counts;  ///< sorted by size
  /// Union segments of the I/O rows, disjoint and ascending.
  std::vector<Segment> io_segments;
  util::SizeHistogram read_hist = util::SizeHistogram::paper_buckets();
  util::SizeHistogram write_hist = util::SizeHistogram::paper_buckets();
  /// Union segments of each histogram bucket's reads and writes.
  std::vector<std::vector<Segment>> read_segments;
  std::vector<std::vector<Segment>> write_segments;
  /// The chunk's data rows on `grid`, every lane's, compute lanes included.
  TimelineBins bins;
};

/// The batched columnar map step (the default path). I/O rows of one app
/// that start more than `phase_gap` after all earlier ones end open a new
/// phase cluster; data rows are binned on `grid`.
ChunkState scan_chunk(const TraceStore& store, const util::ChunkRange& range,
                      const std::vector<std::string>& app_names,
                      const std::vector<char>& fs_is_shared,
                      sim::Time phase_gap, const TimelineGrid& grid);

/// The scalar row-at-a-time map step — the equivalence oracle for the
/// kernels, selected by Analyzer::Options::reference_scan.
ChunkState scan_chunk_reference(const TraceStore& store,
                                const util::ChunkRange& range,
                                const std::vector<std::string>& app_names,
                                const std::vector<char>& fs_is_shared,
                                sim::Time phase_gap, const TimelineGrid& grid);

}  // namespace wasp::analysis
