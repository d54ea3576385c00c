#include "analysis/scan_kernel.hpp"

#include <algorithm>
#include <iterator>
#include <numeric>
#include <set>

#include "analysis/dense.hpp"

namespace wasp::analysis {
namespace {

// The dense per-chunk containers (dense.hpp) trade the ordered containers'
// per-row log(n) tree walks for one hash probe (or a direct index), then pay
// a single sort per chunk at finalize time to reproduce the exact key order
// the ordered containers would have produced.
using dense::FlatMap64;
using dense::IdSet;
using dense::mix64;

using SizeCounts = std::vector<std::pair<fs::Bytes, std::uint64_t>>;

/// Merge of size-ascending counts, in place on `into`; equal sizes add.
void merge_sizes(SizeCounts& into, const SizeCounts& from) {
  if (from.empty()) return;
  if (into.empty()) {
    into = from;
    return;
  }
  SizeCounts out;
  out.reserve(into.size() + from.size());
  auto i = into.begin();
  auto j = from.begin();
  while (i != into.end() && j != from.end()) {
    if (i->first < j->first) {
      out.push_back(*i++);
    } else if (j->first < i->first) {
      out.push_back(*j++);
    } else {
      out.emplace_back(i->first, i->second + j->second);
      ++i;
      ++j;
    }
  }
  out.insert(out.end(), i, into.end());
  out.insert(out.end(), j, from.end());
  into = std::move(out);
}

/// One interned file: FileStats plus the rank sets and stream states the
/// ordered path kept in four separate ScopedFile-keyed maps, carried inline
/// so a row resolves its file exactly once.
struct FileSlot {
  ScopedFile sf;
  FileStats stats;
  std::size_t first_row = 0;
  IdSet readers;
  IdSet writers;
  FlatMap64<StreamState> streams;  // keyed by rank
};

/// Open-addressed interning table: ScopedFile -> dense slot index. A
/// one-entry memo short-circuits the common run of consecutive rows hitting
/// the same file.
class FileTable {
 public:
  std::uint32_t intern(const ScopedFile& sf, bool& fresh) {
    if (memo_valid_ && slots_[memo_].sf == sf) {
      fresh = false;
      return memo_;
    }
    if (index_.empty()) {
      index_.assign(64, 0);
    } else if ((slots_.size() + 1) * 4 > index_.size() * 3) {
      rehash(index_.size() * 2);
    }
    std::uint32_t& entry = index_[probe(sf)];
    if (entry == 0) {
      entry = static_cast<std::uint32_t>(slots_.size() + 1);
      slots_.emplace_back();
      slots_.back().sf = sf;
      fresh = true;
    } else {
      fresh = false;
    }
    memo_ = entry - 1;
    memo_valid_ = true;
    return memo_;
  }
  FileSlot& slot(std::uint32_t idx) { return slots_[idx]; }
  std::vector<FileSlot>& slots() { return slots_; }

 private:
  static std::uint64_t hash(const ScopedFile& sf) noexcept {
    return mix64(sf.file ^
                 (static_cast<std::uint64_t>(static_cast<std::uint16_t>(
                      sf.fs))
                  << 48) ^
                 (static_cast<std::uint64_t>(static_cast<std::uint32_t>(
                      sf.node_scope))
                  << 16));
  }
  std::size_t probe(const ScopedFile& sf) const noexcept {
    const std::size_t mask = index_.size() - 1;
    std::size_t i = hash(sf) & mask;
    while (index_[i] != 0 && !(slots_[index_[i] - 1].sf == sf)) {
      i = (i + 1) & mask;
    }
    return i;
  }
  void rehash(std::size_t cap) {
    index_.assign(cap, 0);
    for (std::uint32_t s = 0; s < slots_.size(); ++s) {
      index_[probe(slots_[s].sf)] = s + 1;
    }
  }
  std::vector<std::uint32_t> index_;  // slot index + 1; 0 = empty
  std::vector<FileSlot> slots_;
  std::uint32_t memo_ = 0;
  bool memo_valid_ = false;
};

/// Where an interval lands on a stack of entries (Segment or PhaseCluster).
enum class Fold { kLate, kOpen, kJoin };

/// Fold [s, e] into `stack`: entries disjoint and ascending, each kept apart
/// from the next by more than `gap`. kLate: it ends before the top entry
/// does, so the stack cannot take it. kOpen: it starts more than `gap` after
/// the top ends; the caller pushes the new entry. kJoin: the top now spans
/// it, having absorbed every entry it bridges. Rows in nondecreasing end
/// time never come back kLate, and each entry is popped at most once.
template <typename T>
Fold fold(std::vector<T>& stack, sim::Time s, sim::Time e, sim::Time gap) {
  if (stack.empty()) return Fold::kOpen;
  T& top = stack.back();
  if (e < top.hi) return Fold::kLate;
  if (s > top.hi + gap) return Fold::kOpen;
  top.hi = e;
  if (s < top.lo) {
    top.lo = s;
    while (stack.size() > 1 && s <= stack[stack.size() - 2].hi + gap) {
      T bridged = std::move(stack.back());
      stack.pop_back();
      stack.back().absorb(std::move(bridged));
    }
  }
  return Fold::kJoin;
}

/// Union segments of one interval stream; touching intervals join.
struct SegmentStack {
  std::vector<Segment> segs;
  std::vector<Segment> late;  // intervals out of end-time order

  void add(sim::Time s, sim::Time e) {
    switch (fold(segs, s, e, 0)) {
      case Fold::kLate:
        late.push_back({s, e});
        break;
      case Fold::kOpen:
        segs.push_back({s, e});
        break;
      case Fold::kJoin:
        break;
    }
  }
  std::vector<Segment> finish() {
    if (late.empty()) return std::move(segs);
    late.insert(late.end(), segs.begin(), segs.end());
    return sort_and_sweep(std::move(late), 0);
  }
};

/// One app's phase clusters. The top cluster's size counts and ranks
/// collect in dense tables and sort into it only when a newer cluster opens
/// (or at finish), so a row that joins the top costs two hash probes.
struct ClusterStack {
  std::vector<PhaseCluster> clusters;
  FlatMap64<std::uint64_t> sizes;  // the top cluster's unsorted tallies
  IdSet ranks;
  std::vector<PhaseCluster> late;  // rows out of end-time order

  void add(sim::Time s, sim::Time e, trace::Op op, std::uint32_t cnt,
           fs::Bytes sz, std::int32_t rank, sim::Time gap) {
    switch (fold(clusters, s, e, gap)) {
      case Fold::kLate:
        late.push_back(PhaseCluster::of_row(s, e, op, cnt, sz, rank));
        return;
      case Fold::kOpen:
        seal();
        clusters.emplace_back();
        clusters.back().lo = s;
        clusters.back().hi = e;
        break;
      case Fold::kJoin:
        break;
    }
    add_op(clusters.back().ops, op, cnt, sz * static_cast<fs::Bytes>(cnt),
           0.0);
    if (trace::is_data(op)) sizes[sz] += cnt;
    ranks.insert(rank);
  }
  /// Sort the dense tallies into the top cluster.
  void seal() {
    if (clusters.empty()) return;
    PhaseCluster& top = clusters.back();
    if (!sizes.empty()) {
      auto items = sizes.items();
      std::sort(items.begin(), items.end(),
                [](const auto& a, const auto& b) { return a.first < b.first; });
      merge_sizes(top.sizes, items);
      sizes.clear();
    }
    if (!ranks.empty()) {
      union_ids(top.ranks, ranks.sorted());
      ranks.clear();
    }
  }
  std::vector<PhaseCluster> finish(sim::Time gap) {
    seal();
    if (late.empty()) return std::move(clusters);
    late.insert(late.end(), std::make_move_iterator(clusters.begin()),
                std::make_move_iterator(clusters.end()));
    return sort_and_sweep(std::move(late), gap);
  }
};

/// Dense per-app state, indexed directly by the uint16 app id. The ranks
/// collect in a hash set and land in `part` sorted at finalize(), as do the
/// phase clusters.
struct AppSlot {
  bool used = false;
  AppPart part;
  IdSet ranks;
  ClusterStack phases;
};

/// Everything the kernels accumulate for one analysis chunk. Fields that
/// already match ChunkState's layout are stored directly; the keyed state
/// lives in the dense tables above and is sorted into ordered form once, in
/// finalize().
struct DenseState {
  OpsBreakdown totals;
  std::vector<AppSlot> apps;
  FlatMap64<std::uint64_t> size_counts;
  FileTable files;
  std::uint64_t seq_ops = 0;
  std::uint64_t pattern_ops = 0;
  SegmentStack io;
  util::SizeHistogram read_hist = util::SizeHistogram::paper_buckets();
  util::SizeHistogram write_hist = util::SizeHistogram::paper_buckets();
  std::vector<SegmentStack> read;  // per histogram bucket
  std::vector<SegmentStack> write;
  sim::Time phase_gap = 0;
  TimelineGrid grid;
  TimelineBins bins;

  AppSlot& app(std::uint16_t id) {
    if (id >= apps.size()) apps.resize(static_cast<std::size_t>(id) + 1);
    return apps[id];
  }
};

/// True for the CPU/GPU compute interfaces. An I/O op on one counts toward
/// its app's phases but not toward the I/O breakdowns, unions or files.
inline bool is_compute(trace::Iface iface) noexcept {
  return iface == trace::Iface::kCpu || iface == trace::Iface::kGpu;
}

/// Zeroed read and write bins on `grid`.
TimelineBins empty_bins(const TimelineGrid& grid) {
  return {std::vector<double>(grid.count), std::vector<double>(grid.count)};
}

/// Add one row to a chunk's timeline: a data row's bytes, spread evenly
/// over the bins its interval touches (at least one), go to the read or the
/// write series. The kernel and the row loop both bin through here.
inline void bin_row(TimelineBins& bins, const TimelineGrid& grid,
                    trace::Op op, fs::Bytes sz, std::uint32_t cnt,
                    sim::Time start, sim::Time end) {
  if (!trace::is_data(op)) return;
  const double bytes = static_cast<double>(sz * static_cast<fs::Bytes>(cnt));
  if (bytes <= 0) return;
  const sim::Time t0 = start - grid.t0;
  const sim::Time t1 = std::max(end - grid.t0, t0 + 1);
  const auto b0 = static_cast<std::size_t>(t0 / grid.width);
  const auto b1 = std::min(static_cast<std::size_t>((t1 - 1) / grid.width),
                           grid.count - 1);
  const double per_bin = bytes / static_cast<double>(b1 - b0 + 1);
  std::vector<double>& series =
      op == trace::Op::kRead ? bins.read : bins.write;
  for (std::size_t b = b0; b <= b1; ++b) series[b] += per_bin;
}

// ---------------------------------------------------------------------------
// Kernels. Three passes per span, each touching a disjoint set of
// accumulators: one over every record (app bookkeeping), one over the I/O
// records (op breakdowns, histograms, file bookkeeping) — decoded once per
// row — and one binning the data rows on every lane into the timeline.
// Splitting the row loop this way never reorders any single accumulator's
// row-order accumulation, and fusing the I/O-side work into one pass reads
// its columns once instead of once per category (the spans are bigger than
// L2, so repeat passes re-read DRAM).

/// App bookkeeping over every record: first/last event and distinct ranks.
void k_apps(const ChunkColumns& s, DenseState& d,
            const std::vector<std::string>& app_names) {
  for (std::size_t k = 0; k < s.rows; ++k) {
    const std::uint16_t id = s.app[k];
    AppSlot& a = d.app(id);
    AppStats& st = a.part.stats;
    if (!a.used) {
      a.used = true;
      st.app = id;
      st.name = id < app_names.size() ? app_names[id] : std::to_string(id);
      st.first_event = s.tstart[k];
      st.last_event = s.tend[k];
    } else {
      st.first_event = std::min(st.first_event, s.tstart[k]);
      st.last_event = std::max(st.last_event, s.tend[k]);
    }
    a.ranks.insert(s.rank[k]);
  }
}

/// Everything keyed off I/O rows, in one decode: the app's phase clusters,
/// op breakdowns (per-app and chunk totals, per-interface data-op counts),
/// the union segments, the request-size histograms, and the file
/// bookkeeping — interning the scoped file once per row, then updating its
/// stats, rank sets, and access-stream state inline, plus the global
/// transfer-size frequencies and sequentiality counters.
void k_io(const ChunkColumns& s, DenseState& d,
          const std::vector<char>& fs_is_shared) {
  for (std::size_t k = 0; k < s.rows; ++k) {
    const trace::Op op = s.op[k];
    if (!trace::is_io(op)) continue;
    const sim::Time t0 = s.tstart[k];
    const sim::Time t1 = s.tend[k];
    const std::uint32_t cnt = s.count[k];
    const fs::Bytes sz = s.size[k];
    const std::int32_t rank = s.rank[k];
    AppSlot& slot = d.app(s.app[k]);
    slot.phases.add(t0, t1, op, cnt, sz, rank, d.phase_gap);
    const trace::Iface iface = s.iface[k];
    if (is_compute(iface)) continue;
    const fs::Bytes bytes = sz * static_cast<fs::Bytes>(cnt);
    const double dur = sim::to_seconds(t1 - t0);
    const bool data = trace::is_data(op);

    AppPart& a = slot.part;
    add_op(a.stats.ops, op, cnt, bytes, dur);
    add_op(d.totals, op, cnt, bytes, dur);
    d.io.add(t0, t1);
    if (data) {
      a.iface_ops[static_cast<std::size_t>(iface)] += cnt;
      if (op == trace::Op::kRead) {
        const std::size_t b = d.read_hist.bucket_index(sz);
        d.read_hist.add_at(b, cnt, bytes);
        d.read[b].add(t0, t1);
      } else {
        const std::size_t b = d.write_hist.bucket_index(sz);
        d.write_hist.add_at(b, cnt, bytes);
        d.write[b].add(t0, t1);
      }
    }

    const trace::FileKey key{s.fs[k], s.file[k]};
    if (!key.valid()) continue;
    const int scope =
        fs_is_shared[static_cast<std::size_t>(key.fs)] ? -1 : s.node[k];

    bool fnew = false;
    const std::uint32_t idx =
        d.files.intern(ScopedFile{key.fs, scope, key.file}, fnew);
    FileSlot& f = d.files.slot(idx);

    if (data) {
      d.size_counts[sz] += cnt;
      // A coalesced record is internally sequential; only its first op can
      // break the stream relative to the rank's previous access.
      bool first_touch = false;
      StreamState& stream =
          f.streams.at_key(static_cast<std::uint32_t>(rank), first_touch);
      d.pattern_ops += cnt;
      d.seq_ops += cnt - 1;  // uint32 wrap on cnt==0, as the row loop had
      if (first_touch) {
        stream.first_offset = s.offset[k];
      } else if (stream.last_end == s.offset[k]) {
        ++d.seq_ops;
      }
      stream.last_end = s.offset[k] + bytes;
    }

    FileStats& fstat = f.stats;
    if (fnew) f.first_row = s.base + k;
    add_op(fstat.ops, op, cnt, bytes, dur);
    if (op == trace::Op::kRead) {
      f.readers.insert(rank);
      if (std::find(fstat.consumer_apps.begin(), fstat.consumer_apps.end(),
                    s.app[k]) == fstat.consumer_apps.end()) {
        fstat.consumer_apps.push_back(s.app[k]);
      }
    } else if (op == trace::Op::kWrite) {
      f.writers.insert(rank);
      if (std::find(fstat.producer_apps.begin(), fstat.producer_apps.end(),
                    s.app[k]) == fstat.producer_apps.end()) {
        fstat.producer_apps.push_back(s.app[k]);
      }
    }
  }
}

/// The timeline over every record: each data row's bytes go to the bins its
/// interval touches. Unlike k_io, it counts the compute lanes' rows too.
void k_timeline(const ChunkColumns& s, DenseState& d) {
  for (std::size_t k = 0; k < s.rows; ++k) {
    bin_row(d.bins, d.grid, s.op[k], s.size[k], s.count[k], s.tstart[k],
            s.tend[k]);
  }
}

/// Sort the dense tables into ChunkState's key-ordered vectors — linear in
/// the number of *distinct keys* (plus the sorts), paid once per chunk, not
/// per row. The resulting ChunkState is byte-identical to the one the
/// ordered row loop builds.
ChunkState finalize(DenseState&& d) {
  ChunkState st;
  st.totals = d.totals;
  st.seq_ops = d.seq_ops;
  st.pattern_ops = d.pattern_ops;
  st.io_segments = d.io.finish();
  st.read_hist = std::move(d.read_hist);
  st.write_hist = std::move(d.write_hist);
  for (SegmentStack& b : d.read) st.read_segments.push_back(b.finish());
  for (SegmentStack& b : d.write) st.write_segments.push_back(b.finish());
  st.bins = std::move(d.bins);

  for (std::size_t id = 0; id < d.apps.size(); ++id) {
    AppSlot& a = d.apps[id];
    if (!a.used) continue;
    a.part.ranks = a.ranks.sorted();
    a.part.clusters = a.phases.finish(d.phase_gap);
    st.apps.emplace_hint(st.apps.end(), static_cast<std::uint16_t>(id),
                         std::move(a.part));
  }
  st.size_counts = d.size_counts.items();
  std::sort(st.size_counts.begin(), st.size_counts.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });

  // Files (and their streams) in ScopedFile order.
  std::vector<FileSlot>& slots = d.files.slots();
  std::vector<std::uint32_t> order(slots.size());
  std::iota(order.begin(), order.end(), 0u);
  std::sort(order.begin(), order.end(),
            [&slots](std::uint32_t a, std::uint32_t b) {
              return slots[a].sf < slots[b].sf;
            });
  st.files.reserve(slots.size());
  for (const std::uint32_t idx : order) {
    FileSlot& f = slots[idx];
    FileAgg fa;
    fa.sf = f.sf;
    fa.stats = std::move(f.stats);
    fa.first_row = f.first_row;
    fa.readers = f.readers.sorted();
    fa.writers = f.writers.sorted();
    st.files.push_back(std::move(fa));
    // Stream keys are (file, rank) pairs: file-major order with ranks
    // ascending inside a file reproduces the pair-keyed map's order.
    auto streams = f.streams.items();
    std::sort(streams.begin(), streams.end(), [](const auto& a,
                                                 const auto& b) {
      return static_cast<std::int32_t>(a.first) <
             static_cast<std::int32_t>(b.first);
    });
    for (const auto& [rank, stream] : streams) {
      st.streams.push_back(
          {f.sf, static_cast<std::int32_t>(rank), stream});
    }
  }
  return st;
}

}  // namespace

void union_ids(std::vector<std::int32_t>& into,
               const std::vector<std::int32_t>& from) {
  if (from.empty()) return;
  if (into.empty()) {
    into = from;
    return;
  }
  std::vector<std::int32_t> out;
  out.reserve(into.size() + from.size());
  std::set_union(into.begin(), into.end(), from.begin(), from.end(),
                 std::back_inserter(out));
  into = std::move(out);
}

sim::Time covered_time(const std::vector<Segment>& segs) noexcept {
  sim::Time covered = 0;
  for (const Segment& s : segs) covered += s.hi - s.lo;
  return covered;
}

PhaseCluster PhaseCluster::of_row(sim::Time t0, sim::Time t1, trace::Op op,
                                  std::uint32_t cnt, fs::Bytes sz,
                                  std::int32_t rank) {
  PhaseCluster c;
  c.lo = t0;
  c.hi = t1;
  add_op(c.ops, op, cnt, sz * static_cast<fs::Bytes>(cnt), 0.0);
  if (trace::is_data(op)) c.sizes.emplace_back(sz, cnt);
  c.ranks.push_back(rank);
  return c;
}

void PhaseCluster::absorb(PhaseCluster&& o) {
  lo = std::min(lo, o.lo);
  hi = std::max(hi, o.hi);
  ops.merge(o.ops);
  merge_sizes(sizes, o.sizes);
  union_ids(ranks, o.ranks);
}

ChunkState scan_chunk(const TraceStore& store, const util::ChunkRange& range,
                      const std::vector<std::string>& app_names,
                      const std::vector<char>& fs_is_shared,
                      sim::Time phase_gap, const TimelineGrid& grid) {
  Cursor cs(store);
  DenseState d;
  d.read.resize(d.read_hist.num_buckets());
  d.write.resize(d.write_hist.num_buckets());
  d.phase_gap = phase_gap;
  d.grid = grid;
  d.bins = empty_bins(grid);
  for (std::size_t pos = range.begin; pos < range.end;) {
    const ChunkColumns s = cs.span(pos, range.end);
    k_apps(s, d, app_names);
    k_io(s, d, fs_is_shared);
    k_timeline(s, d);
    pos += s.rows;
  }
  return finalize(std::move(d));
}

ChunkState scan_chunk_reference(const TraceStore& store,
                                const util::ChunkRange& range,
                                const std::vector<std::string>& app_names,
                                const std::vector<char>& fs_is_shared,
                                sim::Time phase_gap,
                                const TimelineGrid& grid) {
  Cursor cs(store);
  ChunkState st;
  st.bins = empty_bins(grid);

  // The oracle accumulates into the classic ordered containers row by row —
  // the structure the kernels' determinism argument is stated against — and
  // converts to ChunkState's key-sorted vectors once at the end. The
  // conversion copies values without re-associating any floating-point sum.
  std::map<ScopedFile, FileStats> files;
  std::map<ScopedFile, std::size_t> file_first_row;
  std::map<ScopedFile, std::set<std::int32_t>> file_readers;
  std::map<ScopedFile, std::set<std::int32_t>> file_writers;
  std::map<std::uint16_t, std::set<std::int32_t>> app_ranks;
  std::map<std::pair<ScopedFile, std::int32_t>, StreamState> streams;
  std::map<fs::Bytes, std::uint64_t> size_counts;
  // Every interval and every app's I/O rows, as they come; sorted and swept
  // into segments and clusters at the end.
  std::vector<Segment> io_spans;
  std::vector<std::vector<Segment>> read_spans(st.read_hist.num_buckets());
  std::vector<std::vector<Segment>> write_spans(st.write_hist.num_buckets());
  std::map<std::uint16_t, std::vector<PhaseCluster>> phase_rows;

  for (std::size_t i = range.begin; i < range.end; ++i) {
    // Decode the row once; every consumer below takes the held values.
    const trace::Op op = cs.op(i);
    const trace::Iface iface = cs.iface(i);
    const std::uint16_t app_id = cs.app(i);
    const std::int32_t rank = cs.rank(i);
    const sim::Time t0 = cs.tstart(i);
    const sim::Time t1 = cs.tend(i);

    // App bookkeeping (all records).
    auto [ait, fresh] = st.apps.try_emplace(app_id);
    AppPart& part = ait->second;
    AppStats& app = part.stats;
    if (fresh) {
      app.app = app_id;
      app.name = app_id < app_names.size() ? app_names[app_id]
                                           : std::to_string(app_id);
      app.first_event = t0;
      app.last_event = t1;
    } else {
      app.first_event = std::min(app.first_event, t0);
      app.last_event = std::max(app.last_event, t1);
    }
    app_ranks[app_id].insert(rank);
    if (!trace::is_io(op)) continue;

    const std::uint32_t cnt = cs.count(i);
    const fs::Bytes sz = cs.size_col(i);
    bin_row(st.bins, grid, op, sz, cnt, t0, t1);
    phase_rows[app_id].push_back(
        PhaseCluster::of_row(t0, t1, op, cnt, sz, rank));
    if (is_compute(iface)) continue;

    const fs::Bytes bytes = sz * static_cast<fs::Bytes>(cnt);
    const double dur = sim::to_seconds(t1 - t0);
    add_op(app.ops, op, cnt, bytes, dur);
    add_op(st.totals, op, cnt, bytes, dur);
    io_spans.push_back({t0, t1});
    if (trace::is_data(op)) {
      part.iface_ops[static_cast<std::size_t>(iface)] += cnt;
    }

    // Histograms + interval collections (data ops only).
    if (op == trace::Op::kRead) {
      st.read_hist.add(sz, cnt, bytes, 0.0);
      read_spans[st.read_hist.bucket_index(sz)].push_back({t0, t1});
    } else if (op == trace::Op::kWrite) {
      st.write_hist.add(sz, cnt, bytes, 0.0);
      write_spans[st.write_hist.bucket_index(sz)].push_back({t0, t1});
    }

    // File bookkeeping — node-local files are scoped by the row's node.
    const trace::FileKey key = cs.file(i);
    if (!key.valid()) continue;
    const int scope =
        fs_is_shared[static_cast<std::size_t>(key.fs)] ? -1 : cs.node(i);
    const ScopedFile sf{key.fs, scope, key.file};

    if (trace::is_data(op)) {
      size_counts[sz] += cnt;
      // A coalesced record is internally sequential; only its first op can
      // break the stream relative to the rank's previous access.
      const fs::Bytes off = cs.offset(i);
      auto [sit, first_touch] =
          streams.try_emplace({sf, rank}, StreamState{off, off});
      st.pattern_ops += cnt;
      st.seq_ops += cnt - 1;
      if (!first_touch && sit->second.last_end == off) {
        ++st.seq_ops;
      }
      sit->second.last_end = off + bytes;
    }
    auto [fit, fnew] = files.try_emplace(sf);
    FileStats& fstat = fit->second;
    if (fnew) file_first_row.emplace(sf, i);
    add_op(fstat.ops, op, cnt, bytes, dur);
    if (op == trace::Op::kRead) {
      file_readers[sf].insert(rank);
      if (std::find(fstat.consumer_apps.begin(), fstat.consumer_apps.end(),
                    app_id) == fstat.consumer_apps.end()) {
        fstat.consumer_apps.push_back(app_id);
      }
    } else if (op == trace::Op::kWrite) {
      file_writers[sf].insert(rank);
      if (std::find(fstat.producer_apps.begin(), fstat.producer_apps.end(),
                    app_id) == fstat.producer_apps.end()) {
        fstat.producer_apps.push_back(app_id);
      }
    }
  }

  st.files.reserve(files.size());
  for (auto& [sf, fstat] : files) {
    FileAgg fa;
    fa.sf = sf;
    fa.stats = std::move(fstat);
    fa.first_row = file_first_row.at(sf);
    if (const auto it = file_readers.find(sf); it != file_readers.end()) {
      fa.readers.assign(it->second.begin(), it->second.end());
    }
    if (const auto it = file_writers.find(sf); it != file_writers.end()) {
      fa.writers.assign(it->second.begin(), it->second.end());
    }
    st.files.push_back(std::move(fa));
  }
  for (auto& [id, ranks] : app_ranks) {
    st.apps[id].ranks.assign(ranks.begin(), ranks.end());
  }
  for (auto& [id, rows] : phase_rows) {
    st.apps[id].clusters = sort_and_sweep(std::move(rows), phase_gap);
  }
  st.io_segments = sort_and_sweep(std::move(io_spans), 0);
  for (auto& iv : read_spans) {
    st.read_segments.push_back(sort_and_sweep(std::move(iv), 0));
  }
  for (auto& iv : write_spans) {
    st.write_segments.push_back(sort_and_sweep(std::move(iv), 0));
  }
  st.size_counts.assign(size_counts.begin(), size_counts.end());
  st.streams.reserve(streams.size());
  for (const auto& [key2, state] : streams) {
    st.streams.push_back({key2.first, key2.second, state});
  }
  return st;
}

}  // namespace wasp::analysis
