// Bit-identity comparison helpers shared by the determinism tests, plus the
// offline log analysis they compare across backends. Every double is
// compared with operator== — the contract under test is that profiles are
// bit-identical across job counts and trace-store backends, not merely
// close, so tolerances would hide exactly the bugs these tests exist to
// catch.
#pragma once

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "analysis/analyzer.hpp"
#include "analysis/spill_store.hpp"
#include "trace/log_io.hpp"

namespace wasp::testutil {

inline void expect_ops_identical(const analysis::OpsBreakdown& a,
                                 const analysis::OpsBreakdown& b) {
  EXPECT_EQ(a.read_ops, b.read_ops);
  EXPECT_EQ(a.write_ops, b.write_ops);
  EXPECT_EQ(a.meta_ops, b.meta_ops);
  EXPECT_EQ(a.read_bytes, b.read_bytes);
  EXPECT_EQ(a.write_bytes, b.write_bytes);
  EXPECT_EQ(a.data_sec, b.data_sec);  // bitwise: == on doubles is the point
  EXPECT_EQ(a.meta_sec, b.meta_sec);
}

inline void expect_hist_identical(const util::SizeHistogram& a,
                                  const util::SizeHistogram& b) {
  ASSERT_EQ(a.num_buckets(), b.num_buckets());
  for (std::size_t i = 0; i < a.num_buckets(); ++i) {
    EXPECT_EQ(a.count(i), b.count(i));
    EXPECT_EQ(a.bytes(i), b.bytes(i));
    EXPECT_EQ(a.seconds(i), b.seconds(i));
  }
}

/// Every field, every double with operator== — the profile must be
/// bit-identical, not merely close.
inline void expect_profiles_identical(const analysis::WorkloadProfile& a,
                                      const analysis::WorkloadProfile& b) {
  EXPECT_EQ(a.job_runtime_sec, b.job_runtime_sec);
  expect_ops_identical(a.totals, b.totals);
  EXPECT_EQ(a.io_time_fraction, b.io_time_fraction);
  EXPECT_EQ(a.num_procs, b.num_procs);

  ASSERT_EQ(a.apps.size(), b.apps.size());
  for (std::size_t i = 0; i < a.apps.size(); ++i) {
    const auto& x = a.apps[i];
    const auto& y = b.apps[i];
    EXPECT_EQ(x.app, y.app);
    EXPECT_EQ(x.name, y.name);
    EXPECT_EQ(x.num_procs, y.num_procs);
    expect_ops_identical(x.ops, y.ops);
    EXPECT_EQ(x.first_event, y.first_event);
    EXPECT_EQ(x.last_event, y.last_event);
    EXPECT_EQ(x.fpp_files, y.fpp_files);
    EXPECT_EQ(x.shared_files, y.shared_files);
    EXPECT_EQ(x.interface, y.interface);
  }

  ASSERT_EQ(a.files.size(), b.files.size());
  for (std::size_t i = 0; i < a.files.size(); ++i) {
    const auto& x = a.files[i];
    const auto& y = b.files[i];
    EXPECT_EQ(x.path, y.path);
    EXPECT_EQ(x.size, y.size);
    expect_ops_identical(x.ops, y.ops);
    EXPECT_EQ(x.reader_ranks, y.reader_ranks);
    EXPECT_EQ(x.writer_ranks, y.writer_ranks);
    EXPECT_EQ(x.accessor_ranks, y.accessor_ranks);
    EXPECT_EQ(x.producer_apps, y.producer_apps);
    EXPECT_EQ(x.consumer_apps, y.consumer_apps);
  }

  ASSERT_EQ(a.phases.size(), b.phases.size());
  for (std::size_t i = 0; i < a.phases.size(); ++i) {
    const auto& x = a.phases[i];
    const auto& y = b.phases[i];
    EXPECT_EQ(x.app, y.app);
    EXPECT_EQ(x.t0, y.t0);
    EXPECT_EQ(x.t1, y.t1);
    expect_ops_identical(x.ops, y.ops);
    EXPECT_EQ(x.dominant_size, y.dominant_size);
    EXPECT_EQ(x.ops_per_rank, y.ops_per_rank);
  }

  ASSERT_EQ(a.app_edges.size(), b.app_edges.size());
  for (std::size_t i = 0; i < a.app_edges.size(); ++i) {
    EXPECT_EQ(a.app_edges[i].producer, b.app_edges[i].producer);
    EXPECT_EQ(a.app_edges[i].consumer, b.app_edges[i].consumer);
    EXPECT_EQ(a.app_edges[i].bytes, b.app_edges[i].bytes);
    EXPECT_EQ(a.app_edges[i].files, b.app_edges[i].files);
  }

  expect_hist_identical(a.read_hist, b.read_hist);
  expect_hist_identical(a.write_hist, b.write_hist);

  EXPECT_EQ(a.timeline.bin_width, b.timeline.bin_width);
  EXPECT_EQ(a.timeline.read_bps, b.timeline.read_bps);
  EXPECT_EQ(a.timeline.write_bps, b.timeline.write_bps);

  EXPECT_EQ(a.shared_files, b.shared_files);
  EXPECT_EQ(a.fpp_files, b.fpp_files);
  EXPECT_EQ(a.sequential_fraction, b.sequential_fraction);
  EXPECT_EQ(a.size_frequencies, b.size_frequencies);
}

/// Analyze a trace log the way `wasp_analyze` does: stream it into `store`
/// (fresh, of either backend) one store chunk at a time, then analyze over
/// the store with the log's path table and end-of-run file sizes. `store`
/// stays open for inspection.
inline analysis::WorkloadProfile analyze_log(
    const std::string& log_path, analysis::TraceStore& store,
    const analysis::Analyzer::Options& opts = {}) {
  trace::LogReader reader(log_path);
  analysis::load_log(reader, store);
  return analysis::Analyzer(opts).analyze(
      analysis::log_input(reader.header(), store));
}

}  // namespace wasp::testutil
