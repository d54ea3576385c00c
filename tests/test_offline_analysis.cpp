// Offline-analysis equivalence: analyzing a trace log read back from disk
// must produce the same profile as analyzing the live tracer (the
// wasp_analyze tool's correctness contract), plus IOR sanity at test scale.
#include <gtest/gtest.h>

#include "analysis/analyzer.hpp"
#include "profile_test_util.hpp"
#include "trace/log_io.hpp"
#include "workloads/ior.hpp"
#include "workloads/registry.hpp"

namespace wasp {
namespace {

void expect_profiles_equal(const analysis::WorkloadProfile& a,
                           const analysis::WorkloadProfile& b) {
  EXPECT_DOUBLE_EQ(a.job_runtime_sec, b.job_runtime_sec);
  EXPECT_EQ(a.totals.read_ops, b.totals.read_ops);
  EXPECT_EQ(a.totals.write_ops, b.totals.write_ops);
  EXPECT_EQ(a.totals.meta_ops, b.totals.meta_ops);
  EXPECT_EQ(a.totals.read_bytes, b.totals.read_bytes);
  EXPECT_EQ(a.totals.write_bytes, b.totals.write_bytes);
  EXPECT_DOUBLE_EQ(a.io_time_fraction, b.io_time_fraction);
  EXPECT_EQ(a.apps.size(), b.apps.size());
  EXPECT_EQ(a.files.size(), b.files.size());
  EXPECT_EQ(a.phases.size(), b.phases.size());
  EXPECT_EQ(a.app_edges.size(), b.app_edges.size());
  EXPECT_EQ(a.shared_files, b.shared_files);
  EXPECT_EQ(a.fpp_files, b.fpp_files);
  EXPECT_DOUBLE_EQ(a.sequential_fraction, b.sequential_fraction);
  for (std::size_t i = 0; i < a.files.size(); ++i) {
    EXPECT_EQ(a.files[i].path, b.files[i].path);
    EXPECT_EQ(a.files[i].size, b.files[i].size);
    EXPECT_EQ(a.files[i].reader_ranks, b.files[i].reader_ranks);
  }
  for (std::size_t i = 0; i < a.apps.size(); ++i) {
    EXPECT_EQ(a.apps[i].name, b.apps[i].name);
    EXPECT_EQ(a.apps[i].num_procs, b.apps[i].num_procs);
  }
}

TEST(OfflineAnalysis, DiskRoundTripProfileMatches) {
  const std::string path = std::string(::testing::TempDir()) + "/off.wtrc";
  for (const auto& entry : workloads::paper_workloads()) {
    SCOPED_TRACE(entry.name);
    runtime::Simulation sim(cluster::lassen(4));
    workloads::simulate(sim, entry.make_test(), advisor::RunConfig{});
    trace::write_log(path, sim.tracer());
    const auto live = analysis::Analyzer().analyze(sim.tracer());
    analysis::ColumnStore store;
    const auto from_disk = testutil::analyze_log(path, store);
    expect_profiles_equal(live, from_disk);
  }
  std::remove(path.c_str());
}

TEST(Ior, TestScaleBehaves) {
  auto P = workloads::IorParams::test();
  auto [write_gbps, read_gbps] = workloads::measure_ior(cluster::tiny(2), P);
  EXPECT_GT(write_gbps, 0.0);
  EXPECT_GT(read_gbps, 0.0);

  auto out = workloads::run(cluster::tiny(2), workloads::make_ior(P));
  EXPECT_EQ(out.profile.totals.write_bytes,
            static_cast<fs::Bytes>(P.nodes) * P.ranks_per_node * P.block /
                P.transfer * P.transfer);
  EXPECT_EQ(out.profile.totals.read_bytes, out.profile.totals.write_bytes);
  EXPECT_EQ(out.profile.fpp_files,
            static_cast<std::uint64_t>(P.nodes) * P.ranks_per_node);
}

TEST(Ior, SharedFileModeUsesOneFile) {
  auto P = workloads::IorParams::test();
  P.file_per_process = false;
  auto out = workloads::run(cluster::tiny(2), workloads::make_ior(P));
  EXPECT_EQ(out.profile.files.size(), 1u);
  EXPECT_EQ(out.profile.shared_files, 1u);
}

}  // namespace
}  // namespace wasp
