#include "analysis/scan_kernel.hpp"

#include <algorithm>
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

/// Dense per-app state, indexed directly by the uint16 app id. The ranks
/// collect in a hash set and land in `part` sorted at finalize().
struct AppSlot {
  bool used = false;
  AppPart part;
  IdSet ranks;
};

/// Everything the kernels accumulate for one analysis chunk. Fields that
/// already match ChunkState's layout are stored directly; the keyed state
/// lives in the dense tables above and is sorted into ordered form once, in
/// finalize().
struct DenseState {
  bool time_init = false;
  sim::Time job_t0 = 0;
  sim::Time job_t1 = 0;
  OpsBreakdown totals;
  std::vector<AppSlot> apps;
  FlatMap64<std::uint64_t> size_counts;
  FileTable files;
  std::uint64_t seq_ops = 0;
  std::uint64_t pattern_ops = 0;
  std::vector<Interval> io_intervals;
  util::SizeHistogram read_hist = util::SizeHistogram::paper_buckets();
  util::SizeHistogram write_hist = util::SizeHistogram::paper_buckets();
  std::vector<std::vector<Interval>> read_iv;
  std::vector<std::vector<Interval>> write_iv;

  AppSlot& app(std::uint16_t id) {
    if (id >= apps.size()) apps.resize(static_cast<std::size_t>(id) + 1);
    return apps[id];
  }
};

/// True for rows the row loop classified as I/O: not a CPU/GPU compute
/// span, and an I/O op.
inline bool is_io_row(trace::Iface iface, trace::Op op) noexcept {
  return iface != trace::Iface::kCpu && iface != trace::Iface::kGpu &&
         trace::is_io(op);
}

// ---------------------------------------------------------------------------
// Kernels. Two passes per span, each touching a disjoint set of
// accumulators: one over every record (app bookkeeping + job time range),
// one over the I/O records (op breakdowns, histograms, file bookkeeping) —
// decoded once per row. Splitting the row loop this way never reorders any
// single accumulator's row-order accumulation, and fusing the I/O-side
// work into one pass reads each span's columns once instead of once per
// category (the spans are bigger than L2, so repeat passes re-read DRAM).

/// App bookkeeping over every record: first/last event, distinct ranks, the
/// per-app I/O row lists the phase pass consumes, and the job's time range.
void k_apps(const ChunkColumns& s, DenseState& d,
            const std::vector<std::string>& app_names) {
  if (!d.time_init) {
    d.time_init = true;
    d.job_t0 = s.tstart[0];
    d.job_t1 = s.tend[0];
  }
  sim::Time t0 = d.job_t0;
  sim::Time t1 = d.job_t1;
  for (std::size_t k = 0; k < s.rows; ++k) {
    t0 = std::min(t0, s.tstart[k]);
    t1 = std::max(t1, s.tend[k]);
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
    if (trace::is_io(s.op[k])) a.part.io_rows.push_back(s.base + k);
  }
  d.job_t0 = t0;
  d.job_t1 = t1;
}

/// Everything keyed off I/O rows, in one decode: op breakdowns (per-app and
/// chunk totals, the interval collections, per-interface data-op counts),
/// the request-size histograms, and the file bookkeeping — interning the
/// scoped file once per row, then updating its stats, rank sets, and
/// access-stream state inline, plus the global transfer-size frequencies
/// and sequentiality counters.
void k_io(const ChunkColumns& s, DenseState& d,
          const std::vector<char>& fs_is_shared) {
  for (std::size_t k = 0; k < s.rows; ++k) {
    const trace::Op op = s.op[k];
    const trace::Iface iface = s.iface[k];
    if (!is_io_row(iface, op)) continue;
    const std::uint32_t cnt = s.count[k];
    const fs::Bytes sz = s.size[k];
    const fs::Bytes bytes = sz * static_cast<fs::Bytes>(cnt);
    const double dur = sim::to_seconds(s.tend[k] - s.tstart[k]);
    const bool data = trace::is_data(op);

    AppPart& a = d.app(s.app[k]).part;
    add_op(a.stats.ops, op, cnt, bytes, dur);
    add_op(d.totals, op, cnt, bytes, dur);
    d.io_intervals.emplace_back(s.tstart[k], s.tend[k]);
    if (data) {
      a.iface_ops[static_cast<std::size_t>(iface)] += cnt;
      if (op == trace::Op::kRead) {
        const std::size_t b = d.read_hist.bucket_index(sz);
        d.read_hist.add_at(b, cnt, bytes);
        d.read_iv[b].emplace_back(s.tstart[k], s.tend[k]);
      } else {
        const std::size_t b = d.write_hist.bucket_index(sz);
        d.write_hist.add_at(b, cnt, bytes);
        d.write_iv[b].emplace_back(s.tstart[k], s.tend[k]);
      }
    }

    const trace::FileKey key{s.fs[k], s.file[k]};
    if (!key.valid()) continue;
    const std::int32_t rank = s.rank[k];
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

/// Sort the dense tables into ChunkState's key-ordered vectors — linear in
/// the number of *distinct keys* (plus the sorts), paid once per chunk, not
/// per row. The resulting ChunkState is byte-identical to the one the
/// ordered row loop builds.
ChunkState finalize(DenseState&& d) {
  ChunkState st;
  st.job_t0 = d.job_t0;
  st.job_t1 = d.job_t1;
  st.totals = d.totals;
  st.seq_ops = d.seq_ops;
  st.pattern_ops = d.pattern_ops;
  st.io_intervals = std::move(d.io_intervals);
  st.read_hist = std::move(d.read_hist);
  st.write_hist = std::move(d.write_hist);
  st.read_iv = std::move(d.read_iv);
  st.write_iv = std::move(d.write_iv);

  for (std::size_t id = 0; id < d.apps.size(); ++id) {
    AppSlot& a = d.apps[id];
    if (!a.used) continue;
    a.part.ranks = a.ranks.sorted();
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

ChunkState scan_chunk(const TraceStore& store, const util::ChunkRange& range,
                      const std::vector<std::string>& app_names,
                      const std::vector<char>& fs_is_shared) {
  Cursor cs(store);
  DenseState d;
  d.read_iv.resize(d.read_hist.num_buckets());
  d.write_iv.resize(d.write_hist.num_buckets());
  for (std::size_t pos = range.begin; pos < range.end;) {
    const ChunkColumns s = cs.span(pos, range.end);
    k_apps(s, d, app_names);
    k_io(s, d, fs_is_shared);
    pos += s.rows;
  }
  return finalize(std::move(d));
}

ChunkState scan_chunk_reference(const TraceStore& store,
                                const util::ChunkRange& range,
                                const std::vector<std::string>& app_names,
                                const std::vector<char>& fs_is_shared) {
  Cursor cs(store);
  ChunkState st;
  st.read_iv.resize(st.read_hist.num_buckets());
  st.write_iv.resize(st.write_hist.num_buckets());
  st.job_t0 = cs.tstart(range.begin);
  st.job_t1 = cs.tend(range.begin);

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

  for (std::size_t i = range.begin; i < range.end; ++i) {
    // Decode the row once; every consumer below takes the held values.
    const trace::Op op = cs.op(i);
    const trace::Iface iface = cs.iface(i);
    const std::uint16_t app_id = cs.app(i);
    const std::int32_t rank = cs.rank(i);
    const sim::Time t0 = cs.tstart(i);
    const sim::Time t1 = cs.tend(i);

    st.job_t0 = std::min(st.job_t0, t0);
    st.job_t1 = std::max(st.job_t1, t1);

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
    if (trace::is_io(op)) part.io_rows.push_back(i);
    if (!is_io_row(iface, op)) continue;

    const std::uint32_t cnt = cs.count(i);
    const fs::Bytes sz = cs.size_col(i);
    const fs::Bytes bytes = sz * static_cast<fs::Bytes>(cnt);
    const double dur = sim::to_seconds(t1 - t0);
    add_op(app.ops, op, cnt, bytes, dur);
    add_op(st.totals, op, cnt, bytes, dur);
    st.io_intervals.emplace_back(t0, t1);
    if (trace::is_data(op)) {
      part.iface_ops[static_cast<std::size_t>(iface)] += cnt;
    }

    // Histograms + interval collections (data ops only).
    if (op == trace::Op::kRead) {
      st.read_hist.add(sz, cnt, bytes, 0.0);
      st.read_iv[st.read_hist.bucket_index(sz)].push_back({t0, t1});
    } else if (op == trace::Op::kWrite) {
      st.write_hist.add(sz, cnt, bytes, 0.0);
      st.write_iv[st.write_hist.bucket_index(sz)].push_back({t0, t1});
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
  st.size_counts.assign(size_counts.begin(), size_counts.end());
  st.streams.reserve(streams.size());
  for (const auto& [key2, state] : streams) {
    st.streams.push_back({key2.first, key2.second, state});
  }
  return st;
}

}  // namespace wasp::analysis
