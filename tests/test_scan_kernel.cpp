// The batched columnar scan kernels vs the scalar reference row loop: the
// two map steps must produce byte-identical profiles — same doubles, same
// ordering, same everything — on both store backends, at every job count,
// and for analysis chunk sizes that deliberately misalign with the storage
// chunking (so spans get clipped at both kinds of boundary). The kernel's
// union segments and phase clusters, built on stacks, must also equal the
// sort-and-sweep's in any row order.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <random>
#include <string>
#include <vector>

#include "analysis/analyzer.hpp"
#include "analysis/scan_kernel.hpp"
#include "analysis/spill_store.hpp"
#include "profile_test_util.hpp"
#include "trace/synthetic.hpp"
#include "workloads/registry.hpp"

namespace wasp {
namespace {

using testutil::expect_profiles_identical;

std::string spill_dir(const char* name) {
  return std::string(::testing::TempDir()) + "/" + name;
}

/// Synthetic records that hit every kernel path: all interfaces (CPU/GPU
/// compute spans included), all ops (data, meta, compute, communication),
/// and file-less rows.
std::vector<trace::Record> kernel_coverage_records(std::size_t n) {
  trace::SyntheticOpts o;
  o.ifaces = 7;
  o.ops = 14;
  o.files_per_invalid = 5;
  return trace::synthetic_records(n, o);
}

/// TraceInput over a store with row-dependent path/size callbacks: a
/// file's resolved path and size depend on its *first* row, so a kernel
/// that gets file_first_row wrong produces a visibly different profile
/// instead of silently resolving the same constant string.
analysis::TraceInput synthetic_input(const analysis::TraceStore& store) {
  analysis::TraceInput input;
  input.store = &store;
  input.app_names = {"alpha", "beta", "gamma", "delta", "epsilon"};
  input.path_at = [](std::size_t i) { return "/row/" + std::to_string(i); };
  input.size_at = [](std::size_t i) -> fs::Bytes { return (i * 131) + 1; };
  // fs 0 shared, fs 1 node-local: both ScopedFile scoping branches run.
  input.fs_shared = [](std::int16_t f) { return f == 0; };
  return input;
}

analysis::WorkloadProfile profile_of(const analysis::TraceInput& input,
                                     int jobs, std::size_t chunk_rows,
                                     bool reference) {
  analysis::Analyzer::Options opts;
  opts.jobs = jobs;
  opts.chunk_rows = chunk_rows;
  opts.reference_scan = reference;
  return analysis::Analyzer(opts).analyze(input);
}

TEST(ScanKernel, MatchesReferenceOnMemoryBackend) {
  const auto records = kernel_coverage_records(10007);
  analysis::ColumnStore memory;
  for (const trace::Record& r : records) memory.push_back(r);
  const auto input = synthetic_input(memory);

  // chunk_rows values chosen to misalign with everything: 1000 splits the
  // trace mid-pattern, 97 makes every analysis chunk straddle boundaries.
  for (const std::size_t chunk_rows : {1000ul, 97ul}) {
    for (const int jobs : {1, 4}) {
      const auto ref = profile_of(input, jobs, chunk_rows, true);
      const auto ker = profile_of(input, jobs, chunk_rows, false);
      SCOPED_TRACE("jobs=" + std::to_string(jobs) +
                   " chunk_rows=" + std::to_string(chunk_rows));
      expect_profiles_identical(ref, ker);
    }
  }

  // And the kernels stay bit-identical to themselves across job counts /
  // chunkings that share chunk_rows (the existing determinism contract).
  expect_profiles_identical(profile_of(input, 1, 1000, false),
                            profile_of(input, 4, 1000, false));
}

TEST(ScanKernel, MatchesReferenceOnSpillBackend) {
  const auto records = kernel_coverage_records(10007);

  // Storage chunks of 128 rows vs analysis chunks of 1000/97 rows: spans
  // clip at storage boundaries mid-analysis-chunk and vice versa.
  analysis::SpillColumnStore store({.dir = spill_dir("scan_kernel.spill"),
                                    .chunk_rows = 128,
                                    .max_resident_chunks = 3});
  store.append(records);
  store.finalize();
  ASSERT_GT(store.num_chunks(), 3u);

  const auto input = synthetic_input(store);

  analysis::ColumnStore memory;
  for (const trace::Record& r : records) memory.push_back(r);
  const auto mem_ref = profile_of(synthetic_input(memory), 1, 1000, true);
  for (const std::size_t chunk_rows : {1000ul, 97ul}) {
    for (const int jobs : {1, 4}) {
      SCOPED_TRACE("jobs=" + std::to_string(jobs) +
                   " chunk_rows=" + std::to_string(chunk_rows));
      const auto ker = profile_of(input, jobs, chunk_rows, false);
      expect_profiles_identical(profile_of(input, jobs, chunk_rows, true),
                                ker);
      if (chunk_rows == 1000) {
        // Same rows => same profile as the in-memory reference too.
        expect_profiles_identical(mem_ref, ker);
      }
    }
  }
}

TEST(ScanKernel, MatchesReferenceOnSimulatedWorkload) {
  // A real multi-app trace (shared + fpp files, CPU spans, barriers) rather
  // than synthetic noise: the montage test workload.
  runtime::Simulation sim(cluster::lassen(4));
  workloads::run_with(
      sim, workloads::make_montage_mpi(workloads::MontageMpiParams::test()),
      advisor::RunConfig{}, analysis::Analyzer::Options{});

  for (const int jobs : {1, 4}) {
    analysis::Analyzer::Options ref_opts;
    ref_opts.jobs = jobs;
    ref_opts.chunk_rows = 23;  // many tiny chunks, lots of merge traffic
    analysis::Analyzer::Options ker_opts = ref_opts;
    ref_opts.reference_scan = true;
    SCOPED_TRACE("jobs=" + std::to_string(jobs));
    expect_profiles_identical(
        analysis::Analyzer(ref_opts).analyze(sim.tracer()),
        analysis::Analyzer(ker_opts).analyze(sim.tracer()));
  }
}

// ---------------------------------------------------------------------------
// Union segments and phase clusters: the kernel's stacks against the
// sort-and-sweep, in end-time order, shuffled and reversed.

/// Rows on a short integer time axis, so coverage can be counted cell by
/// cell: zero-length intervals, intervals touching their predecessor, every
/// data and a few metadata ops, non-I/O rows and I/O ops on a CPU lane.
std::vector<trace::Record> interval_rows(std::size_t n, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::vector<trace::Record> rows(n);
  sim::Time prev_end = 0;
  for (trace::Record& r : rows) {
    r.app = static_cast<std::uint16_t>(rng() % 3);
    r.rank = static_cast<std::int32_t>(rng() % 5);
    r.node = r.rank % 2;
    r.iface = rng() % 8 == 0 ? trace::Iface::kCpu : trace::Iface::kPosix;
    constexpr trace::Op kOps[] = {trace::Op::kRead, trace::Op::kWrite,
                                  trace::Op::kOpen, trace::Op::kStat,
                                  trace::Op::kBarrier};
    r.op = kOps[rng() % 5];
    r.file = {0, static_cast<fs::FileId>(rng() % 7)};
    r.size = (rng() % 3) * 4096;  // 0 included
    r.count = static_cast<std::uint32_t>(1 + rng() % 3);
    const std::uint64_t shape = rng() % 4;
    r.tstart = shape == 0 ? prev_end : rng() % 400;
    r.tend = r.tstart + (shape == 1 ? 0 : rng() % 30);
    prev_end = r.tend;
  }
  return rows;
}

/// The rows in end-time order, shuffled, and in reverse end-time order.
std::vector<std::vector<trace::Record>> row_orders(
    std::vector<trace::Record> rows, std::uint64_t seed) {
  std::stable_sort(rows.begin(), rows.end(),
                   [](const trace::Record& a, const trace::Record& b) {
                     return a.tend < b.tend;
                   });
  std::vector<trace::Record> shuffled = rows;
  std::mt19937_64 rng(seed);
  std::shuffle(shuffled.begin(), shuffled.end(), rng);
  std::vector<trace::Record> reversed(rows.rbegin(), rows.rend());
  return {rows, shuffled, reversed};
}

analysis::ChunkState scan_rows(const std::vector<trace::Record>& rows,
                               sim::Time gap, bool reference) {
  analysis::ColumnStore store;
  for (const trace::Record& r : rows) store.push_back(r);
  const std::vector<std::string> names = {"a", "b", "c"};
  const std::vector<char> shared = {1};
  const util::ChunkRange all{0, rows.size(), 0};
  const analysis::RowBounds& b = store.bounds();
  const analysis::TimelineGrid grid{b.t0, 1, b.t1 - b.t0 + 1};
  return reference ? analysis::scan_chunk_reference(store, all, names, shared,
                                                    gap, grid)
                   : analysis::scan_chunk(store, all, names, shared, gap,
                                          grid);
}

bool on_io_lane(const trace::Record& r) {
  return trace::is_io(r.op) && r.iface != trace::Iface::kCpu;
}

/// Covered time counted one time unit at a time.
sim::Time brute_cover(const std::vector<analysis::Segment>& iv) {
  sim::Time end = 0;
  for (const analysis::Segment& s : iv) end = std::max(end, s.hi);
  std::vector<char> cell(end, 0);
  for (const analysis::Segment& s : iv) {
    for (sim::Time t = s.lo; t < s.hi; ++t) cell[t] = 1;
  }
  return static_cast<sim::Time>(std::count(cell.begin(), cell.end(), 1));
}

TEST(UnionSegments, StackMatchesSortAndSweepInAnyOrder) {
  const auto buckets = util::SizeHistogram::paper_buckets();
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    for (const std::size_t n : {1ul, 2ul, 40ul, 300ul}) {
      const auto rows = interval_rows(n, seed);
      std::vector<analysis::Segment> io;
      std::vector<std::vector<analysis::Segment>> reads(buckets.num_buckets());
      std::vector<std::vector<analysis::Segment>> writes(buckets.num_buckets());
      for (const trace::Record& r : rows) {
        if (!on_io_lane(r)) continue;
        io.push_back({r.tstart, r.tend});
        const std::size_t b = buckets.bucket_index(r.size);
        if (r.op == trace::Op::kRead) reads[b].push_back({r.tstart, r.tend});
        if (r.op == trace::Op::kWrite) writes[b].push_back({r.tstart, r.tend});
      }
      const auto want = analysis::sort_and_sweep(io, 0);
      ASSERT_EQ(analysis::covered_time(want), brute_cover(io));
      for (std::size_t i = 1; i < want.size(); ++i) {
        ASSERT_GT(want[i].lo, want[i - 1].hi);  // disjoint, ascending
      }
      int order = 0;
      for (const auto& ordered : row_orders(rows, seed)) {
        SCOPED_TRACE("seed=" + std::to_string(seed) + " n=" +
                     std::to_string(n) + " order=" + std::to_string(order++));
        for (const bool reference : {false, true}) {
          const auto st = scan_rows(ordered, 0, reference);
          EXPECT_EQ(st.io_segments, want);
          for (std::size_t b = 0; b < reads.size(); ++b) {
            EXPECT_EQ(st.read_segments[b],
                      analysis::sort_and_sweep(reads[b], 0));
            EXPECT_EQ(st.write_segments[b],
                      analysis::sort_and_sweep(writes[b], 0));
            EXPECT_EQ(analysis::covered_time(st.read_segments[b]),
                      brute_cover(reads[b]));
          }
        }
      }
    }
  }
}

/// The cluster definition checked directly: clusters ascending and more
/// than `gap` apart, every row inside exactly one, each cluster's bounds
/// those of its rows, and no gap wider than `gap` inside one.
void expect_clusters_partition(const std::vector<analysis::PhaseCluster>& cs,
                               const std::vector<trace::Record>& rows,
                               sim::Time gap) {
  for (std::size_t i = 1; i < cs.size(); ++i) {
    EXPECT_GT(cs[i].lo, cs[i - 1].hi + gap);
  }
  std::vector<std::vector<const trace::Record*>> members(cs.size());
  for (const trace::Record& r : rows) {
    std::size_t hits = 0;
    for (std::size_t i = 0; i < cs.size(); ++i) {
      if (cs[i].lo <= r.tstart && r.tend <= cs[i].hi) {
        members[i].push_back(&r);
        ++hits;
      }
    }
    EXPECT_EQ(hits, 1u);
  }
  for (std::size_t i = 0; i < cs.size(); ++i) {
    auto& m = members[i];
    ASSERT_FALSE(m.empty());
    std::sort(m.begin(), m.end(), [](const auto* a, const auto* b) {
      return a->tstart < b->tstart;
    });
    EXPECT_EQ(m.front()->tstart, cs[i].lo);
    sim::Time reach = m.front()->tend;
    std::uint64_t ops = 0;
    for (const trace::Record* r : m) {
      EXPECT_LE(r->tstart, reach + gap);
      reach = std::max(reach, r->tend);
      ops += r->count;
    }
    EXPECT_EQ(reach, cs[i].hi);
    EXPECT_EQ(cs[i].ops.total_ops(), ops);
  }
}

TEST(PhaseClusters, StackMatchesSortAndSweepInAnyOrder) {
  for (const sim::Time gap : {sim::Time{0}, sim::Time{5}, sim::Time{40}}) {
    for (std::uint64_t seed = 1; seed <= 12; ++seed) {
      for (const std::size_t n : {1ul, 2ul, 40ul, 300ul}) {
        const auto rows = interval_rows(n, seed);
        std::map<std::uint16_t, std::vector<analysis::PhaseCluster>> singles;
        std::map<std::uint16_t, std::vector<trace::Record>> app_rows;
        for (const trace::Record& r : rows) {
          if (!trace::is_io(r.op)) continue;
          singles[r.app].push_back(analysis::PhaseCluster::of_row(
              r.tstart, r.tend, r.op, r.count, r.size, r.rank));
          app_rows[r.app].push_back(r);
        }
        int order = 0;
        for (const auto& ordered : row_orders(rows, seed)) {
          SCOPED_TRACE("gap=" + std::to_string(gap) + " seed=" +
                       std::to_string(seed) + " n=" + std::to_string(n) +
                       " order=" + std::to_string(order++));
          for (const bool reference : {false, true}) {
            const auto st = scan_rows(ordered, gap, reference);
            for (const auto& [app, part] : st.apps) {
              const auto it = singles.find(app);
              if (it == singles.end()) {
                EXPECT_TRUE(part.clusters.empty());
                continue;
              }
              EXPECT_EQ(part.clusters,
                        analysis::sort_and_sweep(it->second, gap));
              expect_clusters_partition(part.clusters, app_rows[app], gap);
            }
          }
        }
      }
    }
  }
}

TEST(RowOrder, ReversedTraceGivesTheSameUnionsAndPhases) {
  // A real trace is in end-time order, so only the stacks run on it;
  // reversed, every row but each stack's first takes the out-of-order path.
  runtime::Simulation sim(cluster::lassen(4));
  workloads::run_with(
      sim, workloads::make_montage_mpi(workloads::MontageMpiParams::test()),
      advisor::RunConfig{}, analysis::Analyzer::Options{});
  const std::vector<trace::Record> rows(sim.tracer().records().begin(),
                                        sim.tracer().records().end());
  ASSERT_TRUE(std::is_sorted(rows.begin(), rows.end(),
                             [](const trace::Record& a,
                                const trace::Record& b) {
                               return a.tend < b.tend;
                             }));
  analysis::ColumnStore forward;
  for (const trace::Record& r : rows) forward.push_back(r);
  analysis::ColumnStore backward;
  for (auto it = rows.rbegin(); it != rows.rend(); ++it) {
    backward.push_back(*it);
  }

  analysis::Analyzer::Options opts;
  opts.chunk_rows = 97;  // clusters and segments cross chunk boundaries
  const auto a = analysis::Analyzer(opts).analyze(synthetic_input(forward));
  const auto b = analysis::Analyzer(opts).analyze(synthetic_input(backward));

  EXPECT_GT(a.io_time_fraction, 0.0);
  EXPECT_EQ(a.io_time_fraction, b.io_time_fraction);
  testutil::expect_hist_identical(a.read_hist, b.read_hist);
  testutil::expect_hist_identical(a.write_hist, b.write_hist);
  ASSERT_GT(a.phases.size(), 1u);
  ASSERT_EQ(a.phases.size(), b.phases.size());
  for (std::size_t i = 0; i < a.phases.size(); ++i) {
    EXPECT_EQ(a.phases[i].app, b.phases[i].app);
    EXPECT_EQ(a.phases[i].t0, b.phases[i].t0);
    EXPECT_EQ(a.phases[i].t1, b.phases[i].t1);
    testutil::expect_ops_identical(a.phases[i].ops, b.phases[i].ops);
    EXPECT_EQ(a.phases[i].dominant_size, b.phases[i].dominant_size);
    EXPECT_EQ(a.phases[i].ops_per_rank, b.phases[i].ops_per_rank);
  }
}

}  // namespace
}  // namespace wasp
