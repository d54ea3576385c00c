// TraceStore backend contract: the spill-to-disk columnar store must serve
// the exact bytes the in-memory store serves — profiles byte-identical at
// every job count — while keeping the resident set bounded by
// chunk_rows * (max_resident_chunks + cursors + 1): K cached/in-flight
// chunks, one buffer per concurrent cursor (a pin or an in-flight demand
// load), plus the one double-buffered prefetch load.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <memory>
#include <random>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "analysis/analyzer.hpp"
#include "analysis/spill_store.hpp"
#include "profile_test_util.hpp"
#include "trace/log_io.hpp"
#include "trace/synthetic.hpp"
#include "util/error.hpp"
#include "workloads/registry.hpp"

namespace wasp {
namespace {

using testutil::expect_profiles_identical;
using trace::synthetic_records;

std::string spill_dir(const char* name) {
  return std::string(::testing::TempDir()) + "/" + name;
}

/// Simulate a test-scale Montage run (multi-app, shared + fpp files) and
/// leave the trace in the Simulation's tracer.
void populate(runtime::Simulation& sim) {
  workloads::run_with(
      sim, workloads::make_montage_mpi(workloads::MontageMpiParams::test()),
      advisor::RunConfig{}, analysis::Analyzer::Options{});
}

/// The tracer's records in one vector, for the spill store's record append.
std::vector<trace::Record> records_of(const trace::Tracer& tracer) {
  return {tracer.records().begin(), tracer.records().end()};
}

TEST(SpillStore, RoundTripsRowsThroughChunkFiles) {
  const auto records = synthetic_records(10007);

  analysis::SpillColumnStore store(
      {.dir = spill_dir("roundtrip.spill"),
       .chunk_rows = 100,
       .max_resident_chunks = 2});
  // Odd-sized appends so batch boundaries never line up with chunks.
  std::size_t pos = 0, batch = 1;
  while (pos < records.size()) {
    const std::size_t n = std::min(batch, records.size() - pos);
    store.append(std::span<const trace::Record>(records.data() + pos, n));
    pos += n;
    batch = batch % 7 + 1;
  }
  store.finalize();

  ASSERT_EQ(store.size(), records.size());
  EXPECT_EQ(store.spilled_chunks(), (records.size() - 1) / 100 + 1);
  EXPECT_EQ(store.num_chunks(), store.spilled_chunks());
  for (std::size_t i = 0; i < records.size(); ++i) {
    ASSERT_TRUE(store.row(i) == records[i]) << "row " << i;
  }
  // A full sequential scan through row() keeps residency bounded by the
  // cap plus one transiently pinned chunk plus the prefetch double-buffer.
  EXPECT_LE(store.peak_resident_chunks(), 2u + 2u);
  EXPECT_GT(store.chunk_evictions(), 0u);
  // (No prefetch_issued assertion here: on a busy machine the demand loads
  // of a tight row() loop can win every race against the prefetch thread;
  // SequentialScanPrefetchesNextChunk covers prefetch deterministically.)
  const auto io = store.io_stats();
  EXPECT_GT(io.bytes_written, 0u);
  EXPECT_GT(io.bytes_read, 0u);
  // Compressed chunks must beat the raw column bytes on this trace.
  EXPECT_LT(io.bytes_written, io.raw_bytes);
  // Monotone time columns should delta-compress dramatically.
  for (const auto& c : io.columns) {
    if (std::string(c.name) == "tstart") {
      EXPECT_LT(c.stored_bytes * 2, c.raw_bytes);
    }
  }
}

TEST(SpillStore, ProfileMatchesMemoryBackendAcrossJobCounts) {
  runtime::Simulation sim(cluster::lassen(4));
  populate(sim);
  const auto records = records_of(sim.tracer());

  // Analysis grain deliberately misaligned with the storage chunking: the
  // map-reduce boundaries must not depend on how storage slices the trace.
  ASSERT_GT(records.size(), 100u);

  analysis::Analyzer::Options o1;
  o1.jobs = 1;
  o1.chunk_rows = 23;
  analysis::Analyzer::Options o8 = o1;
  o8.jobs = 8;

  const auto mem1 = analysis::Analyzer(o1).analyze(sim.tracer());
  const auto mem8 = analysis::Analyzer(o8).analyze(sim.tracer());
  expect_profiles_identical(mem1, mem8);

  const std::size_t kMaxResident = 3;
  {
    analysis::SpillColumnStore store({.dir = spill_dir("jobs1.spill"),
                                      .chunk_rows = 17,
                                      .max_resident_chunks = kMaxResident});
    store.append(records);
    store.finalize();
    ASSERT_GT(store.num_chunks(), kMaxResident);
    auto input = analysis::tracer_input(sim.tracer());
    input.store = &store;
    const auto spill1 = analysis::Analyzer(o1).analyze(input);
    expect_profiles_identical(mem1, spill1);
    // Acceptance bound: K cached/in-flight + 1 cursor + 1 prefetch buffer.
    EXPECT_LE(store.peak_resident_chunks(), kMaxResident + 1 + 1);
    EXPECT_GT(store.chunk_loads(), 0u);
  }
  {
    analysis::SpillColumnStore store({.dir = spill_dir("jobs8.spill"),
                                      .chunk_rows = 17,
                                      .max_resident_chunks = kMaxResident});
    store.append(records);
    store.finalize();
    auto input = analysis::tracer_input(sim.tracer());
    input.store = &store;
    const auto spill8 = analysis::Analyzer(o8).analyze(input);
    expect_profiles_identical(mem1, spill8);
    // W concurrent cursors can each keep one evicted chunk pinned, and the
    // prefetcher may hold one more in flight.
    EXPECT_LE(store.peak_resident_chunks(), kMaxResident + 8 + 1);
  }
}

TEST(SpillStore, SingleResidentChunkForcesEvictionsButNotDivergence) {
  runtime::Simulation sim(cluster::lassen(4));
  populate(sim);
  const std::string path =
      std::string(::testing::TempDir()) + "/evict_spill.wtrc";
  trace::write_log(path, sim.tracer());

  analysis::Analyzer::Options opts;
  opts.jobs = 1;
  opts.chunk_rows = 29;
  const auto mem = analysis::Analyzer(opts).analyze(sim.tracer());

  analysis::SpillColumnStore store({.dir = spill_dir("evict.spill"),
                                    .chunk_rows = 16,
                                    .max_resident_chunks = 1});
  const auto spill = testutil::analyze_log(path, store, opts);
  std::remove(path.c_str());
  expect_profiles_identical(mem, spill);

  // K=1 cursor=1 prefetch=1: the cap still bounds the cache itself, but a
  // pinned chunk plus the prefetch double-buffer can coexist with it.
  EXPECT_LE(store.peak_resident_chunks(), 1u + 1u + 1u);
  EXPECT_GT(store.chunk_evictions(), 0u);
  // The scan reads each chunk once. File resolution then reads each file's
  // first row back through the store (the log's path and size columns), in
  // file order rather than row order, so with one resident chunk those
  // reads re-load chunks and loads must exceed the chunk count.
  EXPECT_GT(store.chunk_loads(), store.spilled_chunks());
}

TEST(SpillStore, OfflineLogStreamsThroughAuxColumns) {
  runtime::Simulation sim(cluster::lassen(4));
  populate(sim);
  const std::string path =
      std::string(::testing::TempDir()) + "/offline_spill.wtrc";
  trace::write_log(path, sim.tracer());

  analysis::Analyzer::Options opts;
  opts.jobs = 4;
  opts.chunk_rows = 37;
  analysis::ColumnStore memory;
  const auto baseline = testutil::analyze_log(path, memory, opts);

  analysis::SpillColumnStore store({.dir = spill_dir("offline.spill"),
                                    .chunk_rows = 19,
                                    .max_resident_chunks = 4});
  expect_profiles_identical(baseline,
                            testutil::analyze_log(path, store, opts));
  EXPECT_TRUE(store.has_aux());
  EXPECT_EQ(store.size(), sim.tracer().records().size());
  std::remove(path.c_str());
}

// ------------------------------------------------------------------ bounds

/// The store's bounds are the rows' earliest start, latest end and largest
/// fs index (-1 when every row is file-less), found by a pass over the rows.
void expect_bounds_of(const analysis::TraceStore& store,
                      std::span<const trace::Record> rows) {
  ASSERT_FALSE(rows.empty());
  sim::Time t0 = rows.front().tstart;
  sim::Time t1 = rows.front().tend;
  std::int16_t max_fs = rows.front().file.fs;
  for (const trace::Record& r : rows) {
    t0 = std::min(t0, r.tstart);
    t1 = std::max(t1, r.tend);
    max_fs = std::max(max_fs, r.file.fs);
  }
  EXPECT_EQ(store.bounds().t0, t0);
  EXPECT_EQ(store.bounds().t1, t1);
  EXPECT_EQ(store.bounds().max_fs, max_fs);
}

/// Synthetic rows in no time order: neither the first row starts earliest
/// nor the last ends latest.
std::vector<trace::Record> shuffled_records(std::size_t n) {
  auto rows = synthetic_records(n);
  std::mt19937_64 rng(7);
  std::shuffle(rows.begin(), rows.end(), rng);
  return rows;
}

/// The same rows with no file: the largest fs index is -1.
std::vector<trace::Record> fileless(std::vector<trace::Record> rows) {
  for (trace::Record& r : rows) r.file = {};
  return rows;
}

// Every write path keeps the bounds: tracer pushes, and log rows appended
// in batches that straddle the 2^16-row block boundary.
TEST(ColumnStore, BoundsMatchTheRowsOnEveryWritePath) {
  EXPECT_EQ(analysis::ColumnStore().bounds().max_fs, -1);
  const auto rows = shuffled_records(analysis::ColumnStore::kBlockRows + 500);
  ASSERT_FALSE(std::is_sorted(rows.begin(), rows.end(),
                              [](const trace::Record& a,
                                 const trace::Record& b) {
                                return a.tend < b.tend;
                              }));
  for (const auto& input : {rows, fileless(rows)}) {
    analysis::ColumnStore pushed;
    for (const trace::Record& r : input) pushed.push_back(r);
    expect_bounds_of(pushed, input);

    const std::vector<std::uint32_t> idx(input.size(), 0);
    const std::vector<std::uint64_t> sz(input.size(), 0);
    const std::span<const trace::Record> all(input);
    analysis::ColumnStore log;
    for (std::size_t i = 0; i < input.size();) {
      const std::size_t n = std::min<std::size_t>(4099, input.size() - i);
      log.append(all.subspan(i, n), std::span(idx).subspan(i, n),
                 std::span(sz).subspan(i, n));
      i += n;
      expect_bounds_of(log, all.first(i));
    }
    EXPECT_EQ(log.num_chunks(), 2u);
  }
}

// Both spill appends keep the bounds across chunk flushes, before and after
// the store is sealed.
TEST(SpillStore, BoundsMatchTheRowsAcrossChunkFlushes) {
  const auto rows = shuffled_records(1000);
  for (const auto& input : {rows, fileless(rows)}) {
    const std::span<const trace::Record> all(input);
    analysis::SpillColumnStore plain(
        {.dir = spill_dir("bounds_plain.spill"), .chunk_rows = 64});
    EXPECT_EQ(plain.bounds().max_fs, -1);
    for (std::size_t i = 0; i < input.size();) {
      const std::size_t n = std::min<std::size_t>(37, input.size() - i);
      plain.append(all.subspan(i, n));
      i += n;
      expect_bounds_of(plain, all.first(i));
    }
    plain.finalize();
    EXPECT_GT(plain.spilled_chunks(), 1u);
    expect_bounds_of(plain, all);

    const std::vector<std::uint32_t> idx(input.size(), 0);
    const std::vector<std::uint64_t> sz(input.size(), 0);
    analysis::SpillColumnStore aux(
        {.dir = spill_dir("bounds_aux.spill"), .chunk_rows = 64});
    for (std::size_t i = 0; i < input.size();) {
      const std::size_t n = std::min<std::size_t>(101, input.size() - i);
      aux.append(all.subspan(i, n), std::span(idx).subspan(i, n),
                 std::span(sz).subspan(i, n));
      i += n;
      expect_bounds_of(aux, all.first(i));
    }
    aux.finalize();
    expect_bounds_of(aux, all);
  }
}

TEST(SpillStore, MisuseFailsLoudly) {
  const std::vector<trace::Record> one(1);
  {
    analysis::SpillColumnStore store({.dir = spill_dir("misuse1.spill")});
    store.append(one);
    EXPECT_THROW(store.chunk(0), util::SimError);  // not finalized
    store.finalize();
    EXPECT_THROW(store.append(one), util::SimError);  // sealed
  }
  {
    // Reads at or past size() fail, though row 250 still falls inside the
    // last chunk (rows 200..299 by chunk_rows).
    const auto records = synthetic_records(250);
    analysis::SpillColumnStore store(
        {.dir = spill_dir("misuse_rows.spill"), .chunk_rows = 100});
    const std::vector<std::uint32_t> idx(records.size(), 0);
    const std::vector<std::uint64_t> sz(records.size(), 0);
    store.append(records, idx, sz);
    store.finalize();
    EXPECT_THROW(store.row(store.size()), util::SimError);
    EXPECT_THROW(store.path_idx_at(store.size()), util::SimError);
    EXPECT_THROW(store.file_size_at(store.size()), util::SimError);
    EXPECT_THROW(analysis::Cursor(store).op(store.size()), util::SimError);
    EXPECT_TRUE(store.row(249) == records[249]);
  }
  {
    analysis::SpillColumnStore store({.dir = spill_dir("misuse2.spill")});
    const std::vector<std::uint32_t> idx(1, 0);
    const std::vector<std::uint64_t> sz(1, 0);
    store.append(one, idx, sz);  // decides aux
    EXPECT_THROW(store.append(one), util::SimError);  // aux mixing
  }
}

// Regression: a chunk that fails validation mid-load must not decrement the
// residency counter it never incremented (the ChunkData destructor used to
// decrement unconditionally, so a corrupt file would underflow the count and
// wreck the eviction bound for the rest of the run).
TEST(SpillStore, CorruptChunkFailsLoudlyWithoutResidencyUnderflow) {
  const auto records = synthetic_records(350);
  analysis::SpillColumnStore store({.dir = spill_dir("corrupt.spill"),
                                    .chunk_rows = 100,
                                    .max_resident_chunks = 2});
  store.append(records);
  store.finalize();
  ASSERT_EQ(store.spilled_chunks(), 4u);

  // Truncate a middle chunk to a few header bytes.
  const std::string victim = store.chunk_file_path(1);
  {
    std::ifstream in(victim, std::ios::binary);
    ASSERT_TRUE(in.good());
  }
  std::filesystem::resize_file(victim, 12);

  EXPECT_THROW(store.row(150), util::SimError);
  // The failed load must leave no phantom resident chunk behind.
  EXPECT_EQ(store.resident_chunks(), 0u);
  // And the failure is not sticky for other chunks...
  EXPECT_TRUE(store.row(0) == records[0]);
  EXPECT_TRUE(store.row(250) == records[250]);
  // ...while re-demanding the corrupt chunk still throws (not cached).
  EXPECT_THROW(store.row(150), util::SimError);
  EXPECT_LE(store.resident_chunks(), 2u);
}

// Regression: every chunk except the last must hold exactly chunk_rows rows.
// A short non-final chunk used to load "successfully" and silently misalign
// every row index after it (chunk() computes base = chunk_index * chunk_rows).
TEST(SpillStore, ShortNonFinalChunkRejected) {
  const auto records = synthetic_records(250);  // chunks of 100, 100, 50
  analysis::SpillColumnStore store({.dir = spill_dir("shortchunk.spill"),
                                    .chunk_rows = 100,
                                    .max_resident_chunks = 4});
  store.append(records);
  store.finalize();
  ASSERT_EQ(store.spilled_chunks(), 3u);

  // Overwrite the middle chunk with the (valid but short) final chunk file.
  std::filesystem::copy_file(store.chunk_file_path(2),
                             store.chunk_file_path(1),
                             std::filesystem::copy_options::overwrite_existing);
  EXPECT_THROW(store.row(100), util::SimError);
  // Overwrite the final chunk with a full-size one: also a count mismatch.
  std::filesystem::copy_file(store.chunk_file_path(0),
                             store.chunk_file_path(2),
                             std::filesystem::copy_options::overwrite_existing);
  EXPECT_THROW(store.row(200), util::SimError);
  // Chunk 0 is untouched and still loads.
  EXPECT_TRUE(store.row(0) == records[0]);
}

// Regression: two stores pointed at the same --spill-dir used to write the
// same chunk_000000.wspc paths and corrupt each other. Each instance now
// gets a unique subdirectory.
TEST(SpillStore, TwoStoresShareOneSpillDirWithoutCollision) {
  const std::string dir = spill_dir("shared.spill");
  const auto a_records = synthetic_records(1009);
  auto b_records = synthetic_records(1013);
  for (auto& r : b_records) r.offset += 7;  // make the traces distinguishable

  auto a = std::make_unique<analysis::SpillColumnStore>(
      analysis::SpillColumnStore::Options{
          .dir = dir, .chunk_rows = 64, .max_resident_chunks = 2});
  analysis::SpillColumnStore b({.dir = dir,
                                .chunk_rows = 64,
                                .max_resident_chunks = 2});
  ASSERT_NE(a->spill_dir(), b.spill_dir());

  // Interleave appends, then read both back in full.
  std::size_t pa = 0, pb = 0;
  while (pa < a_records.size() || pb < b_records.size()) {
    if (pa < a_records.size()) {
      const std::size_t n = std::min<std::size_t>(33, a_records.size() - pa);
      a->append(std::span<const trace::Record>(a_records.data() + pa, n));
      pa += n;
    }
    if (pb < b_records.size()) {
      const std::size_t n = std::min<std::size_t>(41, b_records.size() - pb);
      b.append(std::span<const trace::Record>(b_records.data() + pb, n));
      pb += n;
    }
  }
  a->finalize();
  b.finalize();
  for (std::size_t i = 0; i < a_records.size(); ++i) {
    ASSERT_TRUE(a->row(i) == a_records[i]) << "store a row " << i;
  }
  // Destroying one store must not take the other's chunk files with it.
  a.reset();
  for (std::size_t i = 0; i < b_records.size(); ++i) {
    ASSERT_TRUE(b.row(i) == b_records[i]) << "store b row " << i;
  }
}

// Regression: a store's destructor removes the shared dir once it is empty,
// and that removal could land between another store's creation of the dir
// and of its own subdirectory under it ("cannot create spill directory").
TEST(SpillStore, StoresChurningOnOneDirSurviveItsRemoval) {
  const std::string dir = spill_dir("churn.spill");
  std::atomic<int> failures{0};
  std::string first_error;  // written by the first failure only
  auto churn = [&] {
    for (int i = 0; i < 2000; ++i) {
      try {
        const analysis::SpillColumnStore store({.dir = dir});
      } catch (const util::SimError& e) {
        if (failures.fetch_add(1) == 0) first_error = e.what();
      }
    }
  };
  std::thread a(churn);
  std::thread b(churn);
  a.join();
  b.join();
  EXPECT_EQ(failures.load(), 0) << first_error;
}

// The background prefetcher must turn a sequential chunk scan into cache
// hits. Polling chunk_cached() makes the assertion deterministic even on a
// single-CPU machine.
TEST(SpillStore, SequentialScanPrefetchesNextChunk) {
  const auto records = synthetic_records(20 * 100);
  analysis::SpillColumnStore store({.dir = spill_dir("prefetch.spill"),
                                    .chunk_rows = 100,
                                    .max_resident_chunks = 2});
  store.append(records);
  store.finalize();
  ASSERT_EQ(store.num_chunks(), 20u);

  const auto wait_cached = [&](std::size_t index) {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (!store.chunk_cached(index) &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return store.chunk_cached(index);
  };

  for (std::size_t k = 0; k + 1 < store.num_chunks(); ++k) {
    auto h = store.chunk(k);  // schedules prefetch of k+1
    ASSERT_EQ(h.cols.rows, 100u);
    ASSERT_TRUE(wait_cached(k + 1)) << "prefetch of chunk " << k + 1;
  }
  const auto io = store.io_stats();
  EXPECT_GT(io.prefetch_issued, 0u);
  // Every chunk after the first was already resident when demanded.
  EXPECT_GE(io.prefetch_hits, store.num_chunks() - 2);
  EXPECT_LE(store.peak_resident_chunks(), 2u + 1u + 1u);
}

// Many cursors hammering a one-chunk cache: exercises the off-lock loader,
// the in-flight load sharing, and eviction under contention. Runs under the
// "sanitize" label in the WASP_SANITIZE=thread build.
TEST(SpillStoreStress, ConcurrentCursorsTinyCache) {
  const auto records = synthetic_records(10007);
  analysis::SpillColumnStore store({.dir = spill_dir("stress.spill"),
                                    .chunk_rows = 64,
                                    .max_resident_chunks = 1});
  store.append(records);
  store.finalize();

  constexpr int kThreads = 8;
  std::vector<std::string> errors(kThreads);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      analysis::Cursor cs(store);
      // Stagger starting offsets so threads fight over different chunks.
      const std::size_t start = static_cast<std::size_t>(t) * 1237;
      for (std::size_t k = 0; k < records.size(); ++k) {
        const std::size_t i = (start + k) % records.size();
        if (cs.op(i) != records[i].op || cs.size_col(i) != records[i].size ||
            cs.tstart(i) != records[i].tstart ||
            cs.offset(i) != records[i].offset) {
          errors[t] = "row mismatch at " + std::to_string(i);
          return;
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_TRUE(errors[t].empty()) << "thread " << t << ": " << errors[t];
  }
  EXPECT_LE(store.peak_resident_chunks(),
            1u + static_cast<std::size_t>(kThreads) + 1u);
  EXPECT_GT(store.chunk_evictions(), 0u);
}

// Scale test (off by default; opt in with `ctest -C scale -L scale` or
// WASP_SCALE=1): a trace 4x larger than the cache's row capacity must scan
// and analyze with residency bounded and the prefetcher doing real work.
TEST(SpillScale, LargerThanCacheBoundedScan) {
  if (std::getenv("WASP_SCALE") == nullptr) {
    GTEST_SKIP() << "set WASP_SCALE=1 (or ctest -C scale -L scale) to run";
  }
  constexpr std::size_t kChunkRows = 8192;
  constexpr std::size_t kMaxResident = 4;
  const std::size_t rows = 4 * kMaxResident * kChunkRows;
  const auto records = synthetic_records(rows);

  analysis::SpillColumnStore store({.dir = spill_dir("scale.spill"),
                                    .chunk_rows = kChunkRows,
                                    .max_resident_chunks = kMaxResident});
  store.append(records);
  store.finalize();
  ASSERT_GE(store.num_chunks(), 4 * kMaxResident);

  // Sequential cursor scan over everything.
  analysis::Cursor cs(store);
  std::uint64_t checksum = 0, expected = 0;
  for (std::size_t i = 0; i < rows; ++i) {
    checksum += cs.offset(i) + cs.tstart(i);
    expected += records[i].offset + records[i].tstart;
  }
  EXPECT_EQ(checksum, expected);

  const auto io = store.io_stats();
  EXPECT_GT(io.prefetch_issued, 0u);
  EXPECT_GT(io.prefetch_hits, 0u);
  EXPECT_LT(io.bytes_written, io.raw_bytes);
  // Peak residency stays bounded: K + 1 cursor + 1 prefetch buffer.
  EXPECT_LE(store.peak_resident_chunks(), kMaxResident + 1 + 1);
  EXPECT_GT(store.chunk_evictions(), 0u);
}

}  // namespace
}  // namespace wasp
