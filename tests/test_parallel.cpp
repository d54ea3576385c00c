// Determinism contract of the parallel execution layer: fixed chunking,
// chunk-order merges, and thread-confined scenarios must make every result
// bit-identical at jobs=1 and jobs=N. Doubles are compared with ==, not
// tolerances — "close" would mean the contract is broken.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <numeric>
#include <stdexcept>
#include <vector>

#include "analysis/analyzer.hpp"
#include "profile_test_util.hpp"
#include "runtime/scenario_runner.hpp"
#include "trace/log_io.hpp"
#include "util/parallel.hpp"
#include "workloads/registry.hpp"

namespace wasp {
namespace {

using testutil::expect_profiles_identical;

// ---------------------------------------------------------------- chunking

TEST(MakeChunks, EmptyAndSingle) {
  EXPECT_TRUE(util::make_chunks(0, 64).empty());
  const auto one = util::make_chunks(10, 64);
  ASSERT_EQ(one.size(), 1u);
  EXPECT_EQ(one[0].begin, 0u);
  EXPECT_EQ(one[0].end, 10u);
  EXPECT_EQ(one[0].index, 0u);
}

TEST(MakeChunks, CoversRangeContiguouslyAndEvenly) {
  for (std::size_t n : {1u, 7u, 64u, 100u, 1000u, 65537u}) {
    for (std::size_t grain : {1u, 3u, 64u, 999u}) {
      const auto chunks = util::make_chunks(n, grain);
      ASSERT_FALSE(chunks.empty());
      std::size_t expect_begin = 0;
      std::size_t min_sz = n, max_sz = 0;
      for (std::size_t i = 0; i < chunks.size(); ++i) {
        EXPECT_EQ(chunks[i].index, i);
        EXPECT_EQ(chunks[i].begin, expect_begin);
        EXPECT_GT(chunks[i].end, chunks[i].begin);
        min_sz = std::min(min_sz, chunks[i].size());
        max_sz = std::max(max_sz, chunks[i].size());
        expect_begin = chunks[i].end;
      }
      EXPECT_EQ(expect_begin, n);
      EXPECT_LE(max_sz - min_sz, 1u) << "n=" << n << " grain=" << grain;
      EXPECT_LE(max_sz, grain);
    }
  }
}

TEST(MakeChunks, PureFunctionOfInputs) {
  EXPECT_EQ(util::make_chunks(12345, 256).size(),
            util::make_chunks(12345, 256).size());
  const auto a = util::make_chunks(12345, 256);
  const auto b = util::make_chunks(12345, 256);
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].begin, b[i].begin);
    EXPECT_EQ(a[i].end, b[i].end);
  }
}

TEST(ResolveJobs, ZeroMeansDefaultNegativeClampsToOne) {
  const int saved = util::default_jobs();
  util::set_default_jobs(3);
  EXPECT_EQ(util::resolve_jobs(0), 3);
  EXPECT_EQ(util::resolve_jobs(5), 5);
  EXPECT_EQ(util::resolve_jobs(-2), 1);
  util::set_default_jobs(saved);
}

// -------------------------------------------------------------- ThreadPool

TEST(ThreadPool, RunsEveryIndexExactlyOnce) {
  util::ThreadPool pool(3);
  std::vector<std::atomic<int>> hits(1000);
  pool.run(hits.size(), [&](std::size_t i) { hits[i].fetch_add(1); });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ZeroWorkersIsSequentialAscending) {
  util::ThreadPool pool(0);
  EXPECT_EQ(pool.parallelism(), 1);
  std::vector<std::size_t> order;
  pool.run(100, [&](std::size_t i) { order.push_back(i); });
  ASSERT_EQ(order.size(), 100u);
  for (std::size_t i = 0; i < order.size(); ++i) EXPECT_EQ(order[i], i);
}

TEST(ThreadPool, ReusableAcrossBatches) {
  util::ThreadPool pool(2);
  for (int round = 0; round < 20; ++round) {
    std::atomic<int> sum{0};
    pool.run(round * 7 + 1, [&](std::size_t i) {
      sum.fetch_add(static_cast<int>(i) + 1);
    });
    const int n = round * 7 + 1;
    EXPECT_EQ(sum.load(), n * (n + 1) / 2);
  }
}

TEST(ThreadPool, RethrowsLowestIndexFailure) {
  util::ThreadPool pool(3);
  for (int round = 0; round < 10; ++round) {
    try {
      pool.run(64, [&](std::size_t i) {
        if (i == 3 || i == 7 || i == 50) {
          throw std::runtime_error(std::to_string(i));
        }
      });
      FAIL() << "expected an exception";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "3");
    }
    // Pool must stay usable after a failed batch.
    std::atomic<int> ran{0};
    pool.run(16, [&](std::size_t) { ran.fetch_add(1); });
    EXPECT_EQ(ran.load(), 16);
  }
}

TEST(ParallelMap, ResultsInChunkIndexOrder) {
  util::ThreadPool pool(3);
  const auto ranges = pool.map_chunks(
      1000, 37, [](const util::ChunkRange& c) { return c; });
  const auto expect = util::make_chunks(1000, 37);
  ASSERT_EQ(ranges.size(), expect.size());
  for (std::size_t i = 0; i < ranges.size(); ++i) {
    EXPECT_EQ(ranges[i].index, i);
    EXPECT_EQ(ranges[i].begin, expect[i].begin);
    EXPECT_EQ(ranges[i].end, expect[i].end);
  }
}

TEST(ParallelMap, FloatingPointSumBitIdenticalAcrossJobs) {
  // Awkwardly-scaled values so reassociation WOULD change the bits.
  std::vector<double> values(10007);
  std::uint64_t state = 0x9e3779b97f4a7c15ull;
  for (auto& v : values) {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    v = static_cast<double>(state >> 11) * 1.1102230246251565e-16 *
        (1.0 + static_cast<double>(state % 97));
  }
  auto chunked_sum = [&](int jobs) {
    util::ThreadPool pool(jobs - 1);
    const auto partials = pool.map_chunks(
        values.size(), 257, [&](const util::ChunkRange& c) {
          double s = 0.0;
          for (std::size_t i = c.begin; i < c.end; ++i) s += values[i];
          return s;
        });
    double total = 0.0;
    for (double p : partials) total += p;  // chunk-index order
    return total;
  };
  const double base = chunked_sum(1);
  for (int jobs : {2, 3, 4, 8}) {
    EXPECT_EQ(base, chunked_sum(jobs)) << "jobs=" << jobs;
  }
  EXPECT_EQ(base, chunked_sum(8));  // run-to-run
}

// ---------------------------------------------------------------- Analyzer
// (profile comparison helpers live in profile_test_util.hpp, shared with
// the trace-store backend tests)

TEST(AnalyzerDeterminism, ProfileBitIdenticalAcrossJobCounts) {
  for (const auto& entry : workloads::paper_workloads()) {
    SCOPED_TRACE(entry.name);
    runtime::Simulation sim(cluster::lassen(4));
    auto out = workloads::run_with(sim, entry.make_test(),
                                   advisor::RunConfig{},
                                   analysis::Analyzer::Options{});
    // Small chunk_rows so even test-scale traces span many chunks.
    const std::size_t chunk_rows =
        std::max<std::size_t>(1, sim.tracer().records().size() / 7);
    analysis::Analyzer::Options o1;
    o1.jobs = 1;
    o1.chunk_rows = chunk_rows;
    analysis::Analyzer::Options o8 = o1;
    o8.jobs = 8;

    const auto p1 = analysis::Analyzer(o1).analyze(sim.tracer());
    const auto p8 = analysis::Analyzer(o8).analyze(sim.tracer());
    expect_profiles_identical(p1, p8);

    // And again to catch run-to-run scheduling nondeterminism.
    const auto p8b = analysis::Analyzer(o8).analyze(sim.tracer());
    expect_profiles_identical(p1, p8b);
  }
}

TEST(AnalyzerDeterminism, OfflineLogBitIdenticalAcrossJobCounts) {
  runtime::Simulation sim(cluster::lassen(4));
  auto out = workloads::run_with(
      sim, workloads::make_montage_mpi(workloads::MontageMpiParams::test()),
      advisor::RunConfig{}, analysis::Analyzer::Options{});
  const std::string path =
      std::string(::testing::TempDir()) + "/determinism.wtrc";
  trace::write_log(path, sim.tracer());
  trace::LogReader reader(path);
  analysis::ColumnStore log;
  analysis::load_log(reader, log);
  std::remove(path.c_str());
  const auto input = analysis::log_input(reader.header(), log);
  analysis::Analyzer::Options o1;
  o1.jobs = 1;
  o1.chunk_rows = 257;
  analysis::Analyzer::Options o8 = o1;
  o8.jobs = 8;
  expect_profiles_identical(analysis::Analyzer(o1).analyze(input),
                            analysis::Analyzer(o8).analyze(input));
}

// ---------------------------------------------------------- ScenarioRunner

TEST(ScenarioRunner, ResultsInSubmissionOrder) {
  std::vector<std::function<int()>> fns;
  for (int i = 0; i < 32; ++i) fns.push_back([i] { return i * i; });
  const auto out = runtime::ScenarioRunner(4).run<int>(fns);
  ASSERT_EQ(out.size(), fns.size());
  for (int i = 0; i < 32; ++i) EXPECT_EQ(out[i], i * i);
}

TEST(ScenarioRunner, ConcurrentTracesMatchSequentialRecordForRecord) {
  // Each scenario owns its whole world (engine, cluster, filesystems,
  // tracer) on the thread that runs it; its trace must be bit-identical to
  // a sequential run of the same scenario.
  auto trace_of = [](std::size_t workload_index) {
    // paper_workloads() returns by value — copy the entry, don't bind a
    // reference into the temporary vector.
    const auto entry = workloads::paper_workloads()[workload_index];
    runtime::Simulation sim(cluster::lassen(4));
    workloads::simulate(sim, entry.make_test(), advisor::RunConfig{});
    const auto& records = sim.tracer().records();
    return std::vector<trace::Record>(records.begin(), records.end());
  };

  const std::size_t n = workloads::paper_workloads().size();
  std::vector<std::vector<trace::Record>> sequential;
  for (std::size_t i = 0; i < n; ++i) sequential.push_back(trace_of(i));

  std::vector<std::function<std::vector<trace::Record>()>> fns;
  for (std::size_t i = 0; i < n; ++i) {
    fns.push_back([&trace_of, i] { return trace_of(i); });
  }
  const auto concurrent =
      runtime::ScenarioRunner(4).run<std::vector<trace::Record>>(fns);

  ASSERT_EQ(concurrent.size(), sequential.size());
  for (std::size_t i = 0; i < n; ++i) {
    SCOPED_TRACE(workloads::paper_workloads()[i].name);
    ASSERT_EQ(concurrent[i].size(), sequential[i].size());
    for (std::size_t r = 0; r < concurrent[i].size(); ++r) {
      ASSERT_TRUE(concurrent[i][r] == sequential[i][r]) << "record " << r;
    }
  }
}

TEST(ScenarioRunner, RunManyMatchesIndividualRuns) {
  std::vector<workloads::Scenario> scenarios;
  for (int nodes : {2, 4}) {
    scenarios.push_back({"hacc-" + std::to_string(nodes),
                         cluster::lassen(nodes),
                         [] {
                           return workloads::make_hacc(
                               workloads::HaccParams::test());
                         },
                         advisor::RunConfig{},
                         analysis::Analyzer::Options{}});
  }
  const auto batch = workloads::run_many(scenarios, 2);
  ASSERT_EQ(batch.size(), scenarios.size());
  for (std::size_t i = 0; i < scenarios.size(); ++i) {
    SCOPED_TRACE(scenarios[i].name);
    const auto solo = workloads::run(scenarios[i].spec, scenarios[i].make(),
                                     scenarios[i].cfg,
                                     scenarios[i].analyzer_opts);
    EXPECT_EQ(batch[i].job_seconds, solo.job_seconds);
    EXPECT_EQ(batch[i].engine_events, solo.engine_events);
    expect_profiles_identical(batch[i].profile, solo.profile);
  }
}

}  // namespace
}  // namespace wasp
