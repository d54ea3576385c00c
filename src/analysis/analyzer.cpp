#include "analysis/analyzer.hpp"

#include <algorithm>
#include <map>
#include <queue>

#include "analysis/scan_kernel.hpp"
#include "obs/obs.hpp"
#include "util/error.hpp"
#include "util/parallel.hpp"
#include "util/units.hpp"

// The analyze() pipeline is a deterministic map-reduce, mirroring the
// paper's parquet + DASK task-parallel analysis: the trace is split into
// fixed row chunks (boundaries depend only on trace size and chunk_rows,
// never on the job count), each chunk is scanned independently into a
// ChunkState, and the partials are merged on one thread in chunk-index
// order. Integer aggregates are order-insensitive anyway; floating-point
// sums get a fixed association order from the chunk-ordered merge, so the
// profile is bit-identical at jobs=1 and jobs=N.
//
// It is one scan and one reduce: the store's bounds fix the timeline's
// bins before the scan, so each chunk bins its own rows, and only the file
// resolution callbacks read the store again, one row per file.
//
// The scan reads the trace through a TraceStore Cursor, never through raw
// vectors: the analysis chunking above is independent of the store's
// storage chunking, so the in-memory and spill backends walk identical
// value sequences and produce byte-identical profiles.

namespace wasp::analysis {
namespace {

/// Analyzer telemetry: per-pass wall time (TimerGuard — timing-gated) plus
/// the rows-processed counter that rows/sec derives from. Spans with the
/// same names mark the passes on the trace timeline.
struct AnalyzerMetrics {
  obs::Counter rows = obs::Registry::instance().counter("analyze.rows");
  obs::Counter total_ns = obs::Registry::instance().counter("analyze.ns");
  obs::Counter scan_ns =
      obs::Registry::instance().counter("analyze.scan_ns");
  obs::Counter merge_ns =
      obs::Registry::instance().counter("analyze.merge_ns");
  obs::Counter resolve_ns =
      obs::Registry::instance().counter("analyze.resolve_ns");
  obs::Counter unions_ns =
      obs::Registry::instance().counter("analyze.unions_ns");
  obs::Counter phases_ns =
      obs::Registry::instance().counter("analyze.phases_ns");
};

const AnalyzerMetrics& analyzer_metrics() {
  static const AnalyzerMetrics m;
  return m;
}

/// Cap on timeline bins: long jobs get coarser bins instead.
constexpr std::size_t kMaxTimelineBins = 2048;

/// Append ids from `from` that `into` lacks, preserving first-seen order.
void merge_app_ids(std::vector<std::uint16_t>& into,
                   const std::vector<std::uint16_t>& from) {
  for (const auto id : from) {
    if (std::find(into.begin(), into.end(), id) == into.end()) {
      into.push_back(id);
    }
  }
}

// ---------------------------------------------------------------------------
// Sorted-vector reduction. ChunkState carries its large keyed state as
// key-sorted vectors, so the reduce combines the chunks' vectors with one
// k-way merge each — no per-key tree walks, no node allocations. Colliding
// keys combine their per-chunk values in chunk-index order, so
// floating-point sums keep a fixed association order and the profile stays
// bit-identical.

/// Size of the union of two ascending id vectors, without materializing it.
std::size_t union_size(const std::vector<std::int32_t>& a,
                       const std::vector<std::int32_t>& b) {
  std::size_t n = 0;
  auto i = a.begin();
  auto j = b.begin();
  while (i != a.end() && j != b.end()) {
    if (*i < *j) {
      ++i;
    } else if (*j < *i) {
      ++j;
    } else {
      ++i;
      ++j;
    }
    ++n;
  }
  return n + static_cast<std::size_t>(a.end() - i) +
         static_cast<std::size_t>(b.end() - j);
}

/// K-way heap merge over sorted lists, one per chunk in chunk-index order.
/// `key(entry)` orders entries; ties pop in list order, so `consume(entry)`
/// sees every key's entries left-to-right across chunks — exactly the order
/// a chunk-by-chunk fold would feed them in, but each global entry is built
/// once instead of being re-moved on every fold step.
template <typename T, typename KeyFn, typename Consume>
void kway_merge(std::vector<std::vector<T>>& lists, KeyFn key,
                Consume consume) {
  struct Head {
    std::size_t list;
    std::size_t pos;
  };
  auto cmp = [&](const Head& a, const Head& b) {
    // priority_queue pops the *greatest*, so invert: smallest key first,
    // then smallest list index.
    const auto& ka = key(lists[a.list][a.pos]);
    const auto& kb = key(lists[b.list][b.pos]);
    if (kb < ka) return true;
    if (ka < kb) return false;
    return a.list > b.list;
  };
  std::priority_queue<Head, std::vector<Head>, decltype(cmp)> heap(cmp);
  for (std::size_t i = 0; i < lists.size(); ++i) {
    if (!lists[i].empty()) heap.push({i, 0});
  }
  while (!heap.empty()) {
    Head h = heap.top();
    heap.pop();
    consume(lists[h.list][h.pos]);
    if (++h.pos < lists[h.list].size()) heap.push(h);
  }
}

/// Every chunk's `field` vector, moved out in chunk-index order.
template <typename T>
std::vector<std::vector<T>> take(std::vector<ChunkState>& parts,
                                 std::vector<T> ChunkState::*field) {
  std::vector<std::vector<T>> lists;
  lists.reserve(parts.size());
  for (ChunkState& c : parts) lists.push_back(std::move(c.*field));
  return lists;
}

/// The file reduce: every chunk's files, k-way merged by ScopedFile. Each
/// file is finished as soon as the next one starts: its path and size
/// resolve from its first row, its ranks are counted, it adds to the
/// workload's and each owning app's shared or file-per-process count (an
/// app that wrote and read it counts once) and to the app edges, and its
/// stats move into the profile. Serial and in ScopedFile order: the path
/// and size callbacks may touch lazily-built filesystem state.
void reduce_files(std::vector<std::vector<FileAgg>> lists,
                  const TraceInput& input,
                  std::map<std::uint16_t, AppPart>& apps,
                  WorkloadProfile& p) {
  // No more files than chunk entries: reserved once, the file vector never
  // regrows, and a big one touches no page past its last file.
  std::size_t entries = 0;
  for (const auto& l : lists) entries += l.size();
  p.files.reserve(entries);
  std::map<std::pair<std::uint16_t, std::uint16_t>, AppEdge> edges;
  const auto finish = [&](FileAgg& fa) {
    FileStats& f = fa.stats;
    f.path = input.path_at(fa.first_row);
    f.size = input.size_at(fa.first_row);
    // The rank vectors are ascending, so the accessor count is a
    // two-pointer union size — no set materialization.
    f.reader_ranks = static_cast<std::uint32_t>(fa.readers.size());
    f.writer_ranks = static_cast<std::uint32_t>(fa.writers.size());
    f.accessor_ranks =
        static_cast<std::uint32_t>(union_size(fa.readers, fa.writers));
    const bool shared = f.shared();
    ++(shared ? p.shared_files : p.fpp_files);
    const auto count = [&](std::uint16_t id) {
      AppStats& app = apps.at(id).stats;
      ++(shared ? app.shared_files : app.fpp_files);
    };
    for (const auto id : f.producer_apps) count(id);
    for (const auto id : f.consumer_apps) {
      if (std::find(f.producer_apps.begin(), f.producer_apps.end(), id) ==
          f.producer_apps.end()) {
        count(id);
      }
    }
    for (const auto prod : f.producer_apps) {
      for (const auto cons : f.consumer_apps) {
        if (prod == cons) continue;
        AppEdge& e = edges[{prod, cons}];
        e.producer = prod;
        e.consumer = cons;
        e.bytes += f.size;
        ++e.files;
      }
    }
    p.files.push_back(std::move(f));
  };
  // The file being merged: its first chunk's entry, which later chunks'
  // entries fold into (the first chunk touching the file keeps first_row).
  FileAgg* cur = nullptr;
  kway_merge(
      lists, [](const FileAgg& fa) -> const ScopedFile& { return fa.sf; },
      [&](FileAgg& fa) {
        if (cur == nullptr || cur->sf < fa.sf) {
          if (cur != nullptr) finish(*cur);
          cur = &fa;
          return;
        }
        FileStats& gs = cur->stats;
        const FileStats& cs = fa.stats;
        gs.ops.merge(cs.ops);
        merge_app_ids(gs.producer_apps, cs.producer_apps);
        merge_app_ids(gs.consumer_apps, cs.consumer_apps);
        union_ids(cur->readers, fa.readers);
        union_ids(cur->writers, fa.writers);
      });
  if (cur != nullptr) finish(*cur);
  for (const auto& edge : edges) p.app_edges.push_back(edge.second);
}

using StreamKey = std::pair<ScopedFile, std::int32_t>;

/// Settle every stream's deferred head ops across chunks: the first chunk
/// to touch a stream counts its head op as sequential, each later chunk
/// counts its head if it continues where the previous chunk's tail left
/// off. Consumes each stream's chunk entries in chunk order; nothing else
/// reads the stream state, so no global table is kept.
std::uint64_t settle_streams(std::vector<std::vector<StreamEntry>> lists) {
  std::uint64_t seq_ops = 0;
  bool have_prev = false;
  StreamKey prev_key{};
  fs::Bytes prev_end = 0;
  kway_merge(
      lists, [](const StreamEntry& e) { return StreamKey{e.sf, e.rank}; },
      [&](const StreamEntry& e) {
        const StreamKey k{e.sf, e.rank};
        if (!have_prev || prev_key < k) {
          ++seq_ops;  // stream's first touch across all chunks
        } else if (prev_end == e.state.first_offset) {
          ++seq_ops;
        }
        have_prev = true;
        prev_key = k;
        prev_end = e.state.last_end;
      });
  return seq_ops;
}

using SizeCount = std::pair<fs::Bytes, std::uint64_t>;

/// Merge every chunk's transfer-size counts into one list, ascending by size.
std::vector<SizeCount> merge_size_counts(
    std::vector<std::vector<SizeCount>> lists) {
  std::vector<SizeCount> out;
  kway_merge(
      lists, [](const SizeCount& e) { return e.first; },
      [&out](const SizeCount& e) {
        if (!out.empty() && out.back().first == e.first) {
          out.back().second += e.second;
        } else {
          out.push_back(e);
        }
      });
  return out;
}

/// Covered time of the union of every chunk's segments (each list disjoint
/// and ascending): one start-ordered sweep over the k-way merge.
sim::Time merged_cover(std::vector<std::vector<Segment>>& lists) {
  std::vector<Segment> merged;
  kway_merge(
      lists, [](const Segment& seg) { return seg.lo; },
      [&merged](Segment& seg) { sweep_step(merged, std::move(seg), 0); });
  return covered_time(merged);
}

/// One app's phases from every chunk's clusters (each list disjoint and
/// ascending), in start order: a cluster starting at most `gap` after the
/// phase so far ends joins it.
void merge_phases(std::uint16_t app,
                  std::vector<std::vector<PhaseCluster>>& lists,
                  sim::Time gap, std::vector<Phase>& out) {
  std::vector<PhaseCluster> merged;
  kway_merge(
      lists, [](const PhaseCluster& c) { return c.lo; },
      [&](PhaseCluster& c) { sweep_step(merged, std::move(c), gap); });
  for (const PhaseCluster& c : merged) {
    Phase ph;
    ph.app = app;
    ph.t0 = c.lo;
    ph.t1 = c.hi;
    ph.ops = c.ops;
    // The most frequent nonzero size; ties go to the smaller.
    std::uint64_t dom_n = 0;
    for (const auto& [sz, n] : c.sizes) {
      if (n > dom_n && sz > 0) {
        dom_n = n;
        ph.dominant_size = sz;
      }
    }
    ph.ops_per_rank = c.ranks.empty()
                          ? 0.0
                          : static_cast<double>(c.ops.total_ops()) /
                                static_cast<double>(c.ranks.size());
    out.push_back(ph);
  }
}

}  // namespace

void OpsBreakdown::merge(const OpsBreakdown& o) noexcept {
  read_ops += o.read_ops;
  write_ops += o.write_ops;
  meta_ops += o.meta_ops;
  read_bytes += o.read_bytes;
  write_bytes += o.write_bytes;
  data_sec += o.data_sec;
  meta_sec += o.meta_sec;
}

std::string Phase::frequency_label() const {
  const std::string gran = util::format_bytes(dominant_size);
  if (ops_per_rank <= 1.5) return "1 op";
  if (ops_per_rank < 20.0) {
    return std::to_string(static_cast<int>(ops_per_rank + 0.5)) + " ops/rank";
  }
  // Long phases with ops spread through them are iterative input pipelines;
  // short dense phases are bulk transfers.
  if (runtime_sec() > 60.0) return "Iterative (" + gran + ")";
  return "Bulk (" + gran + ")";
}

const AppStats* WorkloadProfile::app_by_name(const std::string& name) const {
  for (const auto& a : apps) {
    if (a.name == name) return &a;
  }
  return nullptr;
}

const AppStats* WorkloadProfile::app_by_id(std::uint16_t app) const {
  for (const auto& a : apps) {
    if (a.app == app) return &a;
  }
  return nullptr;
}

const std::string& WorkloadProfile::app_name(std::uint16_t app) const {
  static const std::string kUnknown = "?";
  const AppStats* a = app_by_id(app);
  return a != nullptr ? a->name : kUnknown;
}

const Phase* WorkloadProfile::first_phase(std::uint16_t app) const {
  const Phase* best = nullptr;
  for (const auto& ph : phases) {
    if (ph.app == app && (best == nullptr || ph.t0 < best->t0)) best = &ph;
  }
  return best;
}

TraceInput tracer_input(const trace::Tracer& tracer) {
  TraceInput input;
  input.store = &tracer.records();
  for (std::size_t a = 0; a < tracer.num_apps(); ++a) {
    input.app_names.push_back(tracer.app_name(static_cast<std::uint16_t>(a)));
  }
  input.path_at = [&tracer](std::size_t i) {
    const trace::Record r = tracer.records()[i];
    return tracer.path_of(r.file, r.node);
  };
  input.size_at = [&tracer](std::size_t i) -> fs::Bytes {
    const trace::Record r = tracer.records()[i];
    if (!r.file.valid()) return 0;
    auto& fsys = tracer.filesystem(r.file.fs);
    auto& ns = fsys.ns(fs::ProcSite{fsys.shared() ? 0 : r.node, 0});
    if (r.file.file < ns.inodes().size()) {
      return ns.inodes()[r.file.file].size;
    }
    return 0;
  };
  input.fs_shared = [&tracer](std::int16_t idx) {
    return tracer.filesystem(idx).shared();
  };
  return input;
}

void load_log(trace::LogReader& reader, TraceStore& store) {
  std::vector<trace::Record> records;
  std::vector<std::uint32_t> path_idx;
  std::vector<std::uint64_t> file_sizes;
  // The store's clamped chunk size: a 0-row read would end the loop before
  // the first chunk.
  while (reader.next_chunk(store.chunk_rows(), records, path_idx,
                           file_sizes) > 0) {
    store.append(records, path_idx, file_sizes);
    records.clear();
    path_idx.clear();
    file_sizes.clear();
  }
  store.finalize();
}

TraceInput log_input(const trace::LogHeader& header, const TraceStore& store) {
  TraceInput input;
  input.store = &store;
  input.app_names = header.apps;
  input.path_at = [&header, &store](std::size_t i) {
    return header.path_table.empty()
               ? std::string()
               : header.path_table[store.path_idx_at(i)];
  };
  input.size_at = [&store](std::size_t i) { return store.file_size_at(i); };
  input.fs_shared = [&header](std::int16_t idx) {
    const auto u = static_cast<std::size_t>(idx);
    return u >= header.fs_shared.size() || header.fs_shared[u];
  };
  return input;
}

WorkloadProfile Analyzer::analyze(const trace::Tracer& tracer) const {
  return analyze(tracer_input(tracer));
}

WorkloadProfile Analyzer::analyze(const TraceInput& input) const {
  if (input.store == nullptr) {
    throw util::SimError("analyzer input has no trace store");
  }
  const TraceStore& store = *input.store;
  WorkloadProfile p;
  const int jobs = util::resolve_jobs(opts_.jobs);
  const std::size_t grain = opts_.chunk_rows > 0 ? opts_.chunk_rows : 65536;
  if (store.size() == 0) return p;
  WASP_OBS_SPAN("analyze");
  const AnalyzerMetrics& om = analyzer_metrics();
  obs::TimerGuard total_timer(om.total_ns);
  om.rows.add(store.size());
  util::ThreadPool pool(jobs - 1);

  // Filesystem-shared lookup table, resolved up front on this thread: the
  // callback may touch lazily-built filesystem namespaces, which must not
  // happen concurrently from chunk workers. The store's bounds, kept as its
  // rows were written, size it and the timeline without a pass over them.
  const RowBounds& bounds = store.bounds();
  const std::int16_t max_fs = bounds.max_fs;
  std::vector<char> fs_is_shared(static_cast<std::size_t>(max_fs + 1), 1);
  for (std::int16_t f = 0; f <= max_fs; ++f) {
    fs_is_shared[static_cast<std::size_t>(f)] =
        input.fs_shared(f) ? 1 : 0;
  }
  const sim::Time span = bounds.t1 - bounds.t0;
  p.job_runtime_sec = sim::to_seconds(span);
  sim::Time bin = opts_.timeline_bin;
  if (span / bin + 1 > kMaxTimelineBins) bin = span / kMaxTimelineBins + 1;
  const TimelineGrid grid{bounds.t0, bin,
                          static_cast<std::size_t>(span / bin) + 1};

  // --- Map: scan chunks in parallel -------------------------------------
  // The batched columnar kernels (scan_chunk) are the default; the scalar
  // row loop (scan_chunk_reference) is the equivalence oracle tests pit
  // against them — both produce byte-identical ChunkStates.
  std::vector<ChunkState> parts;
  {
    WASP_OBS_SPAN("analyze.scan");
    obs::TimerGuard t(om.scan_ns);
    const bool ref = opts_.reference_scan;
    parts = pool.map_chunks(
        store.size(), grain, [&](const util::ChunkRange& range) {
          return ref ? scan_chunk_reference(store, range, input.app_names,
                                            fs_is_shared, opts_.phase_gap,
                                            grid)
                     : scan_chunk(store, range, input.app_names, fs_is_shared,
                                  opts_.phase_gap, grid);
        });
  }

  // --- Reduce: merge partials in chunk-index order ----------------------
  // Every key-sorted partial folds through one k-way merge over the chunks'
  // vectors (see the helpers above); apps merge by id, timeline bins add.
  // Segments, phase clusters and files are only gathered here, one list
  // per chunk, and merged by the passes below.
  std::map<std::uint16_t, AppPart> apps;
  std::vector<std::vector<FileAgg>> files;  // per chunk, by ScopedFile
  std::uint64_t seq_ops = 0;
  std::uint64_t pattern_ops = 0;
  const std::size_t nb = p.read_hist.num_buckets();
  std::vector<std::vector<Segment>> io_segments;
  std::vector<std::vector<std::vector<Segment>>> read_segments(nb);
  std::vector<std::vector<std::vector<Segment>>> write_segments(nb);
  std::map<std::uint16_t, std::vector<std::vector<PhaseCluster>>> clusters;
  p.timeline.bin_width = bin;
  p.timeline.read_bps.assign(grid.count, 0.0);
  p.timeline.write_bps.assign(grid.count, 0.0);

  {
  WASP_OBS_SPAN("analyze.merge");
  obs::TimerGuard t(om.merge_ns);
  for (ChunkState& c : parts) {
    p.totals.merge(c.totals);
    for (auto& [id, part] : c.apps) {
      clusters[id].push_back(std::move(part.clusters));
      auto [it, fresh] = apps.try_emplace(id);
      AppPart& g = it->second;
      if (fresh) {
        g = std::move(part);
        continue;
      }
      g.stats.first_event =
          std::min(g.stats.first_event, part.stats.first_event);
      g.stats.last_event = std::max(g.stats.last_event, part.stats.last_event);
      g.stats.ops.merge(part.stats.ops);
      union_ids(g.ranks, part.ranks);
      for (std::size_t f = 0; f < kNumIfaces; ++f) {
        g.iface_ops[f] += part.iface_ops[f];
      }
    }
    seq_ops += c.seq_ops;
    pattern_ops += c.pattern_ops;
    p.read_hist.merge(c.read_hist);
    p.write_hist.merge(c.write_hist);
    io_segments.push_back(std::move(c.io_segments));
    for (std::size_t b = 0; b < nb; ++b) {
      read_segments[b].push_back(std::move(c.read_segments[b]));
      write_segments[b].push_back(std::move(c.write_segments[b]));
    }
    for (std::size_t b = 0; b < grid.count; ++b) {
      p.timeline.read_bps[b] += c.bins.read[b];
      p.timeline.write_bps[b] += c.bins.write[b];
    }
  }
  const double bin_sec = sim::to_seconds(bin);
  for (auto& v : p.timeline.read_bps) v /= bin_sec;
  for (auto& v : p.timeline.write_bps) v /= bin_sec;
  files = take(parts, &ChunkState::files);
  seq_ops += settle_streams(take(parts, &ChunkState::streams));
  p.size_frequencies = merge_size_counts(take(parts, &ChunkState::size_counts));
  parts.clear();
  }

  {
    WASP_OBS_SPAN("analyze.resolve");
    obs::TimerGuard t(om.resolve_ns);
    reduce_files(std::move(files), input, apps, p);
  }

  // I/O-time fraction: wall-clock coverage (Table I), and each histogram
  // bucket's active seconds: the union of the chunks' segments.
  {
    WASP_OBS_SPAN("analyze.unions");
    obs::TimerGuard t(om.unions_ns);
    const double io_sec = sim::to_seconds(merged_cover(io_segments));
    if (p.job_runtime_sec > 0) {
      p.io_time_fraction = io_sec / p.job_runtime_sec;
    }
    for (std::size_t b = 0; b < nb; ++b) {
      p.read_hist.add_seconds(b,
                              sim::to_seconds(merged_cover(read_segments[b])));
      p.write_hist.add_seconds(
          b, sim::to_seconds(merged_cover(write_segments[b])));
    }
  }

  // --- Phases: each app's chunk clusters, joined across chunks -----------
  // Apps in id order, each app's phases by start; the final sort orders
  // them all by start.
  {
    WASP_OBS_SPAN("analyze.phases");
    obs::TimerGuard t(om.phases_ns);
    for (auto& [id, lists] : clusters) {
      merge_phases(id, lists, opts_.phase_gap, p.phases);
    }
    std::sort(p.phases.begin(), p.phases.end(),
              [](const Phase& a, const Phase& b) { return a.t0 < b.t0; });
  }

  // Sequentiality + global size frequencies.
  p.sequential_fraction =
      pattern_ops > 0
          ? static_cast<double>(seq_ops) / static_cast<double>(pattern_ops)
          : 1.0;
  std::sort(p.size_frequencies.begin(), p.size_frequencies.end(),
            [](const auto& a, const auto& b) { return a.second > b.second; });

  // The apps in id order, with proc counts and the dominant interface.
  p.apps.reserve(apps.size());
  for (auto& [id, part] : apps) {
    (void)id;
    AppStats& app = part.stats;
    app.num_procs = static_cast<int>(part.ranks.size());
    std::uint64_t best = 0;
    for (std::size_t f = 0; f < kNumIfaces; ++f) {
      if (part.iface_ops[f] > best) {
        best = part.iface_ops[f];
        app.interface = static_cast<trace::Iface>(f);
      }
    }
    p.num_procs += app.num_procs;
    p.apps.push_back(std::move(app));
  }
  return p;
}

}  // namespace wasp::analysis
