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
// All passes read the trace through a TraceStore Cursor, never through raw
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
  obs::Counter timeline_ns =
      obs::Registry::instance().counter("analyze.timeline_ns");
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

/// Merge every chunk's FileAgg vector into one global sorted vector.
std::vector<FileAgg> merge_files(std::vector<std::vector<FileAgg>> lists) {
  std::vector<FileAgg> out;
  std::size_t widest = 0;
  for (const auto& l : lists) widest = std::max(widest, l.size());
  out.reserve(widest);
  kway_merge(
      lists, [](const FileAgg& fa) -> const ScopedFile& { return fa.sf; },
      [&out](FileAgg& fa) {
        if (out.empty() || out.back().sf < fa.sf) {
          out.push_back(std::move(fa));
          return;
        }
        FileAgg& g = out.back();
        FileStats& gs = g.stats;
        const FileStats& cs = fa.stats;
        gs.ops.merge(cs.ops);
        merge_app_ids(gs.producer_apps, cs.producer_apps);
        merge_app_ids(gs.consumer_apps, cs.consumer_apps);
        // first_row: the first chunk touching the file wins — keep global's.
        union_ids(g.readers, fa.readers);
        union_ids(g.writers, fa.writers);
      });
  return out;
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
  // happen concurrently from chunk workers. Backends that track the max fs
  // index during append answer in O(1); for a spill store that avoids a
  // full serial pass over every chunk file.
  const std::int16_t max_fs = store.max_fs();
  std::vector<char> fs_is_shared(static_cast<std::size_t>(max_fs + 1), 1);
  for (std::int16_t f = 0; f <= max_fs; ++f) {
    fs_is_shared[static_cast<std::size_t>(f)] =
        input.fs_shared(f) ? 1 : 0;
  }

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
                                            fs_is_shared, opts_.phase_gap)
                     : scan_chunk(store, range, input.app_names, fs_is_shared,
                                  opts_.phase_gap);
        });
  }

  // --- Reduce: merge partials in chunk-index order ----------------------
  // Every key-sorted partial folds through one k-way merge over the chunks'
  // vectors (see the helpers above); apps merge by id. Segments and phase
  // clusters are only gathered here, one list per chunk, and merged by the
  // unions and phases passes below.
  sim::Time job_t0 = parts.front().job_t0;
  sim::Time job_t1 = parts.front().job_t1;
  std::map<std::uint16_t, AppPart> apps;
  std::vector<FileAgg> files;  // sorted by ScopedFile
  std::uint64_t seq_ops = 0;
  std::uint64_t pattern_ops = 0;
  const std::size_t nb = p.read_hist.num_buckets();
  std::vector<std::vector<Segment>> io_segments;
  std::vector<std::vector<std::vector<Segment>>> read_segments(nb);
  std::vector<std::vector<std::vector<Segment>>> write_segments(nb);
  std::map<std::uint16_t, std::vector<std::vector<PhaseCluster>>> clusters;

  {
  WASP_OBS_SPAN("analyze.merge");
  obs::TimerGuard t(om.merge_ns);
  for (ChunkState& c : parts) {
    job_t0 = std::min(job_t0, c.job_t0);
    job_t1 = std::max(job_t1, c.job_t1);
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
  }
  files = merge_files(take(parts, &ChunkState::files));
  seq_ops += settle_streams(take(parts, &ChunkState::streams));
  p.size_frequencies = merge_size_counts(take(parts, &ChunkState::size_counts));
  parts.clear();
  }
  p.job_runtime_sec = sim::to_seconds(job_t1 - job_t0);
  // The apps in id order; each per-app pass below runs one task per app.
  std::vector<AppPart*> app_parts;
  app_parts.reserve(apps.size());
  for (auto& [id, part] : apps) {
    (void)id;
    app_parts.push_back(&part);
  }

  {
  WASP_OBS_SPAN("analyze.resolve");
  obs::TimerGuard t(om.resolve_ns);
  // Resolve per-file paths and sizes from each file's first record — these
  // callbacks may touch lazily-built filesystem state, so they run here,
  // serially, not in the chunk workers.
  for (FileAgg& fa : files) {
    fa.stats.path = input.path_at(fa.first_row);
    fa.stats.size = std::max(fa.stats.size, input.size_at(fa.first_row));
  }

  // Resolve per-file sharing. The rank vectors are ascending, so the
  // accessor count is a two-pointer union size — no set materialization.
  for (FileAgg& fa : files) {
    FileStats& fstat = fa.stats;
    fstat.reader_ranks = static_cast<std::uint32_t>(fa.readers.size());
    fstat.writer_ranks = static_cast<std::uint32_t>(fa.writers.size());
    fstat.accessor_ranks =
        static_cast<std::uint32_t>(union_size(fa.readers, fa.writers));
    if (fstat.shared()) {
      ++p.shared_files;
    } else {
      ++p.fpp_files;
    }
  }

  // Per-app proc and file sharing counts + dominant interface: each task
  // writes only its own app and reads the (now frozen) file list.
  pool.run(app_parts.size(), [&](std::size_t a) {
    AppPart& part = *app_parts[a];
    AppStats& app = part.stats;
    const std::uint16_t id = app.app;
    app.num_procs = static_cast<int>(part.ranks.size());
    for (const FileAgg& fa : files) {
      const FileStats& fstat = fa.stats;
      const bool touches =
          std::find(fstat.producer_apps.begin(), fstat.producer_apps.end(),
                    id) != fstat.producer_apps.end() ||
          std::find(fstat.consumer_apps.begin(), fstat.consumer_apps.end(),
                    id) != fstat.consumer_apps.end();
      if (!touches) continue;
      if (fstat.shared()) {
        ++app.shared_files;
      } else {
        ++app.fpp_files;
      }
    }
    std::uint64_t best = 0;
    for (std::size_t f = 0; f < kNumIfaces; ++f) {
      if (part.iface_ops[f] > best) {
        best = part.iface_ops[f];
        app.interface = static_cast<trace::Iface>(f);
      }
    }
  });
  for (const AppPart* part : app_parts) p.num_procs += part->stats.num_procs;
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

  // --- App dependency edges ---------------------------------------------
  {
    std::map<std::pair<std::uint16_t, std::uint16_t>, AppEdge> edges;
    for (const FileAgg& fa : files) {
      const FileStats& fstat = fa.stats;
      for (auto prod : fstat.producer_apps) {
        for (auto cons : fstat.consumer_apps) {
          if (prod == cons) continue;
          auto& e = edges[{prod, cons}];
          e.producer = prod;
          e.consumer = cons;
          e.bytes += fstat.size;
          ++e.files;
        }
      }
    }
    for (auto& [k, e] : edges) {
      (void)k;
      p.app_edges.push_back(e);
    }
  }

  // --- Timeline ----------------------------------------------------------
  // Needs the job extent, so it is a second chunked pass: per-chunk bin
  // vectors, added together in chunk-index order.
  {
    WASP_OBS_SPAN("analyze.timeline");
    obs::TimerGuard t(om.timeline_ns);
    sim::Time bin = opts_.timeline_bin;
    const sim::Time span = job_t1 - job_t0;
    if (span / bin + 1 > kMaxTimelineBins) bin = span / kMaxTimelineBins + 1;
    const auto nbins = static_cast<std::size_t>(span / bin) + 1;
    p.timeline.bin_width = bin;
    p.timeline.read_bps.assign(nbins, 0.0);
    p.timeline.write_bps.assign(nbins, 0.0);
    using Bins = std::pair<std::vector<double>, std::vector<double>>;
    const std::vector<Bins> chunk_bins = pool.map_chunks(
        store.size(), grain, [&](const util::ChunkRange& range) {
          Cursor cs(store);
          Bins local{std::vector<double>(nbins, 0.0),
                     std::vector<double>(nbins, 0.0)};
          // Span walk: one residency resolution per storage chunk, raw
          // column reads per row. Same arithmetic as the row-at-a-time
          // loop, so the bins stay byte-identical.
          for (std::size_t pos = range.begin; pos < range.end;) {
            const ChunkColumns s = cs.span(pos, range.end);
            for (std::size_t k = 0; k < s.rows; ++k) {
              const trace::Op op = s.op[k];
              if (!trace::is_data(op)) continue;
              const double bytes = static_cast<double>(
                  s.size[k] * static_cast<fs::Bytes>(s.count[k]));
              if (bytes <= 0) continue;
              const sim::Time t0 = s.tstart[k] - job_t0;
              const sim::Time t1 = std::max(s.tend[k] - job_t0, t0 + 1);
              const auto b0 = static_cast<std::size_t>(t0 / bin);
              const auto b1 = std::min(
                  static_cast<std::size_t>((t1 - 1) / bin), nbins - 1);
              const double per_bin =
                  bytes / static_cast<double>(b1 - b0 + 1);
              auto& series = op == trace::Op::kRead ? local.first
                                                    : local.second;
              for (std::size_t b = b0; b <= b1; ++b) series[b] += per_bin;
            }
            pos += s.rows;
          }
          return local;
        });
    for (const Bins& local : chunk_bins) {
      for (std::size_t b = 0; b < nbins; ++b) {
        p.timeline.read_bps[b] += local.first[b];
        p.timeline.write_bps[b] += local.second[b];
      }
    }
    const double bin_sec = sim::to_seconds(bin);
    for (auto& v : p.timeline.read_bps) v /= bin_sec;
    for (auto& v : p.timeline.write_bps) v /= bin_sec;
  }

  // Sequentiality + global size frequencies.
  p.sequential_fraction =
      pattern_ops > 0
          ? static_cast<double>(seq_ops) / static_cast<double>(pattern_ops)
          : 1.0;
  std::sort(p.size_frequencies.begin(), p.size_frequencies.end(),
            [](const auto& a, const auto& b) { return a.second > b.second; });

  // Materialize app/file vectors in stable order.
  p.apps.reserve(app_parts.size());
  for (AppPart* part : app_parts) p.apps.push_back(std::move(part->stats));
  p.files.reserve(files.size());
  for (FileAgg& fa : files) {
    p.files.push_back(std::move(fa.stats));
  }
  return p;
}

}  // namespace wasp::analysis
