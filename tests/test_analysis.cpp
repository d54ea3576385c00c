// Analyzer tests: phases, histograms, dependency graphs, timelines,
// sequentiality and the I/O-time metrics — driven through real simulated
// I/O so the records carry realistic timing.
#include <gtest/gtest.h>

#include <algorithm>
#include <span>
#include <vector>

#include "analysis/analyzer.hpp"
#include "analysis/scan_kernel.hpp"
#include "io/posix.hpp"
#include "sim_test_util.hpp"
#include "trace/synthetic.hpp"
#include "util/error.hpp"

namespace wasp::analysis {
namespace {

using runtime::Proc;
using runtime::Simulation;
using sim::Task;

TEST(UnionSeconds, MergesOverlapsAndGaps) {
  // Covered seconds of the union: the shared sort-and-sweep, gap 0.
  const auto union_seconds = [](std::vector<Segment> iv) {
    return sim::to_seconds(covered_time(sort_and_sweep(std::move(iv), 0)));
  };
  EXPECT_DOUBLE_EQ(union_seconds({}), 0.0);
  EXPECT_DOUBLE_EQ(
      union_seconds({{0, sim::kSec}, {2 * sim::kSec, 3 * sim::kSec}}), 2.0);
  EXPECT_DOUBLE_EQ(
      union_seconds({{0, 2 * sim::kSec}, {sim::kSec, 3 * sim::kSec}}), 3.0);
  // Nested interval adds nothing.
  EXPECT_DOUBLE_EQ(
      union_seconds({{0, 4 * sim::kSec}, {sim::kSec, 2 * sim::kSec}}), 4.0);
}

TEST(ColumnStore, RoundTripsRecords) {
  trace::Record r;
  r.app = 2;
  r.rank = 7;
  r.node = 1;
  r.iface = trace::Iface::kStdio;
  r.op = trace::Op::kWrite;
  r.file = {0, 42};
  r.offset = 100;
  r.size = 4096;
  r.count = 8;
  r.tstart = 5;
  r.tend = 15;
  ColumnStore cs;
  cs.push_back(r);
  ASSERT_EQ(cs.size(), 1u);
  const auto back = cs.row(0);
  EXPECT_EQ(back.app, r.app);
  EXPECT_EQ(back.rank, r.rank);
  EXPECT_EQ(back.file, r.file);
  EXPECT_EQ(back.count, r.count);
  Cursor cur(cs);
  EXPECT_EQ(cur.size_col(0) * cur.count(0), 4096u * 8);
}

TEST(ColumnStore, SelectFilters) {
  ColumnStore cs;
  for (std::size_t i = 0; i < 5; ++i) {
    trace::Record r;
    r.rank = static_cast<std::int32_t>(i);
    cs.push_back(r);
  }
  Cursor c(cs);
  std::vector<std::size_t> idx;
  for (std::size_t i = 0; i < cs.size(); ++i) {
    if (c.rank(i) >= 3) idx.push_back(i);
  }
  EXPECT_EQ(idx, (std::vector<std::size_t>{3, 4}));
}

// A store of tracer records has no aux columns: asking for them, or
// appending log rows after the records, is diagnosed. So is a read at or
// past size() — a row that would still fall inside the last block — and an
// analyzer input without a store.
TEST(ColumnStore, MisuseFailsLoudly) {
  const std::vector<trace::Record> one(1);
  const std::vector<std::uint32_t> idx(1, 0);
  const std::vector<std::uint64_t> sz(1, 0);
  ColumnStore cs;
  cs.push_back(one[0]);
  EXPECT_THROW(cs.path_idx_at(0), util::SimError);
  EXPECT_THROW(cs.file_size_at(0), util::SimError);
  EXPECT_THROW(cs.append(one, idx, sz), util::SimError);
  EXPECT_THROW(cs.row(cs.size()), util::SimError);
  EXPECT_THROW(Cursor(cs).tstart(cs.size()), util::SimError);

  ColumnStore log;
  log.append(one, idx, sz);
  EXPECT_EQ(log.path_idx_at(0), 0u);
  EXPECT_THROW(log.append(one, idx, {}), util::SimError);
  EXPECT_THROW(log.row(log.size()), util::SimError);
  EXPECT_THROW(log.path_idx_at(log.size()), util::SimError);
  EXPECT_THROW(log.file_size_at(log.size()), util::SimError);

  EXPECT_THROW(Analyzer().analyze(TraceInput{}), util::SimError);
}

// The store grows in fixed blocks, one storage chunk each, whether its rows
// come as tracer pushes or as log rows in batches that straddle a block
// boundary. Every read path serves the input rows across the boundary, and
// a block's columns stay where they are while later rows append.
TEST(ColumnStore, BlocksServeRowsAcrossBoundaryAndNeverMove) {
  constexpr std::size_t kBlock = ColumnStore::kBlockRows;
  const auto records = trace::synthetic_records(kBlock + 5);
  std::vector<std::uint32_t> idx(records.size());
  std::vector<std::uint64_t> sizes(records.size());
  for (std::size_t i = 0; i < records.size(); ++i) {
    idx[i] = static_cast<std::uint32_t>(i);
    sizes[i] = 3 * i;
  }

  trace::Tracer tracer;
  for (const trace::Record& r : records) tracer.add(r);
  ColumnStore log;
  const std::span<const trace::Record> all(records);
  for (std::size_t i = 0; i < records.size();) {
    const std::size_t n = std::min<std::size_t>(4099, records.size() - i);
    log.append(all.subspan(i, n), std::span(idx).subspan(i, n),
               std::span(sizes).subspan(i, n));
    i += n;
  }

  const auto expect_rows = [&](const ColumnStore& store) {
    ASSERT_EQ(store.size(), records.size());
    ASSERT_EQ(store.num_chunks(), 2u);
    for (std::size_t i = 0; i < records.size(); ++i) {
      ASSERT_TRUE(store.row(i) == records[i]) << "row " << i;
    }
    // A span stops at the block boundary; each one serves its rows.
    Cursor cursor(store);
    std::vector<std::size_t> span_rows;
    for (std::size_t pos = 0; pos < records.size();) {
      const ChunkColumns s = cursor.span(pos, records.size());
      for (std::size_t k = 0; k < s.rows; ++k) {
        ASSERT_TRUE(s.record(k) == records[pos + k]) << "row " << pos + k;
      }
      span_rows.push_back(s.rows);
      pos += s.rows;
    }
    EXPECT_EQ(span_rows, (std::vector<std::size_t>{kBlock, 5}));
    for (std::size_t c = 0; c < store.num_chunks(); ++c) {
      const ChunkColumns v = store.chunk(c).cols;
      EXPECT_EQ(v.base, c * kBlock);
      for (std::size_t k = 0; k < v.rows; ++k) {
        ASSERT_TRUE(v.record(k) == records[v.base + k]) << "row " << v.base + k;
      }
    }
  };
  expect_rows(tracer.records());
  expect_rows(log);
  EXPECT_EQ(log.path_idx_at(kBlock + 4), kBlock + 4);
  EXPECT_EQ(log.file_size_at(kBlock + 4), 3 * (kBlock + 4));

  const std::uint16_t* tracer_app = tracer.records().chunk(0).cols.app;
  const std::uint16_t* log_app = log.chunk(0).cols.app;
  for (std::size_t i = 0; i < 2 * kBlock; ++i) tracer.add(records[i % 7]);
  for (std::size_t i = 0; i < 2 * kBlock; i += records.size()) {
    log.append(records, idx, sizes);
  }
  EXPECT_EQ(tracer.records().chunk(0).cols.app, tracer_app);
  EXPECT_EQ(log.chunk(0).cols.app, log_app);
  EXPECT_TRUE(tracer.records().row(kBlock) == records[kBlock]);
  EXPECT_TRUE(log.row(kBlock) == records[kBlock]);
}

struct AnalysisFixture : ::testing::Test {
  AnalysisFixture() : sim(cluster::tiny(2)) {}

  WorkloadProfile analyze(Analyzer::Options opts = {}) {
    return Analyzer(opts).analyze(sim.tracer());
  }

  Simulation sim;
};

Task<void> two_phase_prog(Simulation& s, std::uint16_t a) {
  Proc p(s, a, 0, 0);
  io::Posix posix(p);
  // Phase 1: write.
  auto f = co_await posix.open("/p/gpfs1/a", io::OpenMode::kWrite);
  co_await posix.write(f, util::kMiB, 4);
  co_await posix.close(f);
  // Long compute gap.
  co_await p.compute(10 * sim::kSec);
  // Phase 2: read back.
  auto g = co_await posix.open("/p/gpfs1/a", io::OpenMode::kRead);
  co_await posix.read(g, util::kMiB, 4);
  co_await posix.close(g);
}

TEST_F(AnalysisFixture, PhaseDetectionSplitsOnGaps) {
  const auto app = sim.tracer().register_app("t");
  sim.engine().spawn(two_phase_prog(sim, app));
  sim.engine().run();
  Analyzer::Options opts;
  opts.phase_gap = 1 * sim::kSec;
  auto profile = analyze(opts);
  ASSERT_EQ(profile.phases.size(), 2u);
  EXPECT_GT(profile.phases[0].ops.write_bytes, 0u);
  EXPECT_GT(profile.phases[1].ops.read_bytes, 0u);
  EXPECT_LT(profile.phases[0].t1, profile.phases[1].t0);
}

TEST_F(AnalysisFixture, SinglePhaseWhenGapThresholdLarge) {
  const auto app = sim.tracer().register_app("t");
  sim.engine().spawn(two_phase_prog(sim, app));
  sim.engine().run();
  Analyzer::Options opts;
  opts.phase_gap = 60 * sim::kSec;
  auto profile = analyze(opts);
  EXPECT_EQ(profile.phases.size(), 1u);
}

TEST_F(AnalysisFixture, OpsBreakdownAndBytes) {
  const auto app = sim.tracer().register_app("t");
  sim.engine().spawn(two_phase_prog(sim, app));
  sim.engine().run();
  auto profile = analyze();
  EXPECT_EQ(profile.totals.write_ops, 4u);
  EXPECT_EQ(profile.totals.read_ops, 4u);
  EXPECT_EQ(profile.totals.meta_ops, 4u);  // 2x open + 2x close
  EXPECT_EQ(profile.totals.write_bytes, 4 * util::kMiB);
  EXPECT_EQ(profile.totals.read_bytes, 4 * util::kMiB);
  EXPECT_EQ(profile.num_procs, 1);
}

TEST_F(AnalysisFixture, FileStatsTrackSharingAndDataflow) {
  const auto writer = sim.tracer().register_app("producer");
  const auto reader = sim.tracer().register_app("consumer");
  auto wprog = [](Simulation& s, std::uint16_t a) -> Task<void> {
    Proc p(s, a, 0, 0);
    io::Posix posix(p);
    auto f = co_await posix.open("/p/gpfs1/flow", io::OpenMode::kWrite);
    co_await posix.write(f, 64 * util::kKiB, 1);
    co_await posix.close(f);
  };
  auto rprog = [](Simulation& s, std::uint16_t a, int rank) -> Task<void> {
    Proc p(s, a, rank, 1);
    co_await p.compute(5 * sim::kSec);  // after the producer
    io::Posix posix(p);
    auto f = co_await posix.open("/p/gpfs1/flow", io::OpenMode::kRead);
    co_await posix.read(f, 64 * util::kKiB, 1);
    co_await posix.close(f);
  };
  sim.engine().spawn(wprog(sim, writer));
  sim.engine().spawn(rprog(sim, reader, 1));
  sim.engine().spawn(rprog(sim, reader, 2));
  sim.engine().run();

  auto profile = analyze();
  ASSERT_EQ(profile.files.size(), 1u);
  const auto& f = profile.files.front();
  EXPECT_EQ(f.path, "/p/gpfs1/flow");
  EXPECT_EQ(f.writer_ranks, 1u);
  EXPECT_EQ(f.reader_ranks, 2u);
  EXPECT_TRUE(f.shared());
  ASSERT_EQ(profile.app_edges.size(), 1u);
  EXPECT_EQ(profile.apps[profile.app_edges[0].producer].name, "producer");
  EXPECT_EQ(profile.apps[profile.app_edges[0].consumer].name, "consumer");
  EXPECT_EQ(profile.shared_files, 1u);
  EXPECT_EQ(profile.fpp_files, 0u);
}

TEST_F(AnalysisFixture, NodeLocalFilesAreScopedPerNode) {
  const auto app = sim.tracer().register_app("t");
  auto prog = [](Simulation& s, std::uint16_t a, int node) -> Task<void> {
    Proc p(s, a, node, node);
    io::Posix posix(p);
    auto f = co_await posix.open("/dev/shm/same_name", io::OpenMode::kWrite);
    co_await posix.write(f, 1024, 1);
    co_await posix.close(f);
  };
  sim.engine().spawn(prog(sim, app, 0));
  sim.engine().spawn(prog(sim, app, 1));
  sim.engine().run();
  auto profile = analyze();
  // Same path, same inode id, but two distinct files (one per node) —
  // both FPP, not one shared file.
  EXPECT_EQ(profile.files.size(), 2u);
  EXPECT_EQ(profile.fpp_files, 2u);
  EXPECT_EQ(profile.shared_files, 0u);
}

TEST_F(AnalysisFixture, HistogramBucketsBySizeWithCounts) {
  const auto app = sim.tracer().register_app("t");
  auto prog = [](Simulation& s, std::uint16_t a) -> Task<void> {
    Proc p(s, a, 0, 0);
    io::Posix posix(p);
    auto f = co_await posix.open("/p/gpfs1/h", io::OpenMode::kWrite);
    co_await posix.write(f, 1024, 100);      // <4KB bucket
    co_await posix.write(f, 2 * util::kMiB, 3);  // <16MB bucket
    co_await posix.close(f);
  };
  sim.engine().spawn(prog(sim, app));
  sim.engine().run();
  auto profile = analyze();
  EXPECT_EQ(profile.write_hist.count(0), 100u);
  EXPECT_EQ(profile.write_hist.count(3), 3u);
  EXPECT_GT(profile.write_hist.bandwidth(3),
            profile.write_hist.bandwidth(0));
}

TEST_F(AnalysisFixture, SequentialFractionDetectsRandomAccess) {
  const auto app = sim.tracer().register_app("t");
  auto prog = [](Simulation& s, std::uint16_t a) -> Task<void> {
    Proc p(s, a, 0, 0);
    io::Posix posix(p);
    auto f = co_await posix.open("/p/gpfs1/rnd", io::OpenMode::kWrite);
    co_await posix.write(f, 64 * util::kKiB, 16);
    co_await posix.close(f);
    auto g = co_await posix.open("/p/gpfs1/rnd", io::OpenMode::kRead);
    // Stride backwards: every read breaks the sequential chain.
    for (int i = 15; i >= 0; --i) {
      co_await posix.pread(g, static_cast<fs::Bytes>(i) * 64 * util::kKiB,
                           64 * util::kKiB, 1);
    }
    co_await posix.close(g);
  };
  sim.engine().spawn(prog(sim, app));
  sim.engine().run();
  auto profile = analyze();
  EXPECT_LT(profile.sequential_fraction, 0.7);
}

TEST_F(AnalysisFixture, TimelineConservesBytes) {
  const auto app = sim.tracer().register_app("t");
  sim.engine().spawn(two_phase_prog(sim, app));
  sim.engine().run();
  Analyzer::Options opts;
  opts.timeline_bin = 100 * sim::kMs;
  auto profile = analyze(opts);
  const double bin_sec = sim::to_seconds(profile.timeline.bin_width);
  double read_bytes = 0;
  double write_bytes = 0;
  for (std::size_t i = 0; i < profile.timeline.num_bins(); ++i) {
    read_bytes += profile.timeline.read_bps[i] * bin_sec;
    write_bytes += profile.timeline.write_bps[i] * bin_sec;
  }
  EXPECT_NEAR(read_bytes, static_cast<double>(profile.totals.read_bytes),
              static_cast<double>(profile.totals.read_bytes) * 0.01);
  EXPECT_NEAR(write_bytes, static_cast<double>(profile.totals.write_bytes),
              static_cast<double>(profile.totals.write_bytes) * 0.01);
}

TEST_F(AnalysisFixture, EmptyTraceYieldsEmptyProfile) {
  auto profile = analyze();
  EXPECT_EQ(profile.totals.total_ops(), 0u);
  EXPECT_EQ(profile.apps.size(), 0u);
  EXPECT_EQ(profile.job_runtime_sec, 0.0);
}

TEST_F(AnalysisFixture, IoTimeFractionBoundedByOne) {
  const auto app = sim.tracer().register_app("t");
  sim.engine().spawn(two_phase_prog(sim, app));
  sim.engine().run();
  auto profile = analyze();
  EXPECT_GT(profile.io_time_fraction, 0.0);
  EXPECT_LE(profile.io_time_fraction, 1.0);
}

TEST(PhaseLabel, FrequencyClassification) {
  Phase ph;
  ph.ops_per_rank = 1.0;
  EXPECT_EQ(ph.frequency_label(), "1 op");
  ph.ops_per_rank = 7.0;
  ph.dominant_size = 16 * util::kMiB;
  EXPECT_EQ(ph.frequency_label(), "7 ops/rank");
  ph.ops_per_rank = 500;
  ph.dominant_size = util::kMiB;
  ph.t0 = 0;
  ph.t1 = sim::seconds(300);
  EXPECT_EQ(ph.frequency_label(), "Iterative (1.05MB)");
  ph.t1 = sim::seconds(5);
  ph.dominant_size = 64 * util::kKiB;
  EXPECT_EQ(ph.frequency_label(), "Bulk (65.5KB)");
}

}  // namespace
}  // namespace wasp::analysis
