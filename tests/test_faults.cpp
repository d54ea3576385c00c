// Deterministic fault injection (sim/faults.*) and the error paths it
// flushes out.
//
// The contract under test: the same FaultPlan seed yields byte-identical
// traces and bit-identical profiles across scenario-runner job counts,
// trace-store backends and reruns — faults perturb the simulated run,
// never the determinism (PatternGolden pins each workload's faulted
// trace). The degradation half covers real disk errors: a full disk
// during spill or trace-log write must surface one diagnosed SimError and
// leave no truncated files behind.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "analysis/spill_store.hpp"
#include "pattern/pattern.hpp"
#include "profile_test_util.hpp"
#include "sim/faults.hpp"
#include "trace/log_io.hpp"
#include "trace/synthetic.hpp"
#include "util/error.hpp"
#include "util/parse.hpp"
#include "workloads/registry.hpp"

namespace wasp {
namespace {

using testutil::expect_profiles_identical;

// Moderate rates on the PFS: enough traffic to guarantee injected faults
// on the hacc-fpp test-scale run without exhausting any retry budget.
constexpr const char* kSpec =
    "seed=7; gpfs: eio=0.3, slow=0.5, spike=20ms";

cluster::ClusterSpec test_cluster(int nodes = 4) {
  auto spec = cluster::lassen(nodes);
  spec.node.cpu_cores = 8;
  return spec;
}

workloads::RegistryEntry hacc_entry() {
  const int index = workloads::find_workload("hacc-fpp");
  EXPECT_GE(index, 0);
  return workloads::paper_workloads()[static_cast<std::size_t>(index)];
}

advisor::RunConfig faulted_cfg(const char* spec = kSpec) {
  advisor::RunConfig cfg;
  cfg.faults = sim::FaultPlan::parse(spec);
  return cfg;
}

std::string temp_path(const char* name) {
  return std::string(::testing::TempDir()) + "/" + name;
}

// ---- FaultPlanSpec: the spec grammar -------------------------------------

TEST(FaultPlanSpec, RoundTripsThroughCanonicalSpec) {
  const auto plan = sim::FaultPlan::parse(
      "seed=42; retry: attempts=6, backoff=2ms, mult=1.5, max=500ms; "
      "lustre: eio=0.01, enospc=0.005, meta=0.02, slow=0.1, spike=15ms, "
      "fail_latency=3ms, capacity=64MB, from=100ms, until=2s; "
      "*: slow=0.01");
  EXPECT_EQ(plan.seed, 42u);
  EXPECT_EQ(plan.retry.max_attempts, 6u);
  EXPECT_EQ(plan.retry.backoff, 2 * sim::kMs);
  EXPECT_EQ(plan.retry.max_backoff, 500 * sim::kMs);
  ASSERT_EQ(plan.targets.size(), 2u);
  EXPECT_EQ(plan.targets[0].fs, "lustre");
  EXPECT_EQ(plan.targets[0].capacity, 64'000'000u);  // decimal MB, like the tables
  EXPECT_EQ(plan.targets[0].from, 100 * sim::kMs);
  EXPECT_EQ(plan.targets[0].until, 2 * sim::kSec);
  EXPECT_EQ(plan.targets[1].fs, "*");

  // parse(to_spec()) is the identity on the canonical form.
  const std::string canon = plan.to_spec();
  EXPECT_EQ(sim::FaultPlan::parse(canon).to_spec(), canon);
}

TEST(FaultPlanSpec, DefaultsAndMinimalSpec) {
  const auto plan = sim::FaultPlan::parse("*: eio=0.1");
  EXPECT_EQ(plan.seed, 1u);
  EXPECT_EQ(plan.retry.max_attempts, 4u);
  ASSERT_EQ(plan.targets.size(), 1u);
  EXPECT_TRUE(plan.enabled());
  EXPECT_FALSE(sim::FaultPlan{}.enabled());
  // Defaults are elided from the canonical form.
  EXPECT_EQ(plan.to_spec(), "seed=1; *: eio=0.1");
}

TEST(FaultPlanSpec, MalformedSpecsNameTheOffendingToken) {
  const auto expect_bad = [](const char* spec, const char* needle) {
    try {
      sim::FaultPlan::parse(spec);
      FAIL() << "parse accepted: " << spec;
    } catch (const util::SimError& e) {
      EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
          << "diagnostic for '" << spec << "' was: " << e.what();
    }
  };
  expect_bad("bogus", "bogus");
  expect_bad("seed=7", "no fault targets");
  expect_bad("lustre: wat=1", "wat");
  expect_bad("lustre: eio=nope", "nope");
  expect_bad("gpfs: eio=1.5", "eio");
  expect_bad("retry: attempts=zero", "zero");
}

// ---- FaultDeterminism: same seed, same bytes -----------------------------

TEST(FaultDeterminism, ProfilesIdenticalAcrossJobCounts) {
  const auto entry = hacc_entry();
  const auto make_scenarios = [&](std::size_t n) {
    std::vector<workloads::Scenario> scenarios;
    for (std::size_t i = 0; i < n; ++i) {
      scenarios.push_back({entry.id, test_cluster(), entry.make_test,
                           faulted_cfg(), analysis::Analyzer::Options{}});
    }
    return scenarios;
  };
  const auto serial = workloads::run_many(make_scenarios(1), 1);
  const auto parallel = workloads::run_many(make_scenarios(4), 4);
  ASSERT_EQ(serial.size(), 1u);
  ASSERT_EQ(parallel.size(), 4u);
  for (const auto& out : parallel) {
    expect_profiles_identical(serial[0].profile, out.profile);
  }
}

TEST(FaultDeterminism, ProfilesIdenticalAcrossBackends) {
  const auto entry = hacc_entry();
  runtime::Simulation sim(test_cluster());
  workloads::run_with(sim, entry.make_test(), faulted_cfg(),
                      analysis::Analyzer::Options{});
  EXPECT_GT(sim.faults()->stats().total_injected(), 0u);
  const std::string path = temp_path("faults_backends.wtrc");
  trace::write_log(path, sim.tracer());
  analysis::SpillColumnStore store(
      {.dir = temp_path("faults.spill"), .chunk_rows = 512});
  analysis::ColumnStore memory;
  expect_profiles_identical(testutil::analyze_log(path, memory),
                            testutil::analyze_log(path, store));
  std::remove(path.c_str());
}

TEST(FaultDeterminism, TraceLogsByteIdenticalAcrossReruns) {
  const auto entry = hacc_entry();
  const auto run_and_dump = [&](const char* name) {
    runtime::Simulation sim(test_cluster());
    workloads::run_with(sim, entry.make_test(), faulted_cfg(),
                        analysis::Analyzer::Options{});
    // Faults actually fired, and the retried attempts landed in the trace.
    EXPECT_GT(sim.faults()->stats().total_injected(), 0u);
    EXPECT_GT(sim.faults()->stats().retries, 0u);
    EXPECT_GT(sim.faults()->stats().spikes, 0u);
    const std::string path = temp_path(name);
    trace::write_log(path, sim.tracer());
    std::ifstream is(path, std::ios::binary);
    return std::string(std::istreambuf_iterator<char>(is), {});
  };
  const std::string a = run_and_dump("faults_a.wtrc");
  const std::string b = run_and_dump("faults_b.wtrc");
  ASSERT_FALSE(a.empty());
  EXPECT_EQ(a, b);
}

TEST(FaultDeterminism, FaultedRunDiffersFromCleanRun) {
  const auto entry = hacc_entry();
  runtime::Simulation clean_sim(test_cluster());
  const auto clean = workloads::run_with(clean_sim, entry.make_test(),
                                         advisor::RunConfig{},
                                         analysis::Analyzer::Options{});
  EXPECT_EQ(clean_sim.faults(), nullptr);
  runtime::Simulation faulted_sim(test_cluster());
  const auto faulted = workloads::run_with(faulted_sim, entry.make_test(),
                                           faulted_cfg(),
                                           analysis::Analyzer::Options{});
  // Retries re-enter the virtual clock and appear as extra trace ops.
  EXPECT_GT(faulted.profile.job_runtime_sec, clean.profile.job_runtime_sec);
  EXPECT_GT(faulted.profile.totals.read_ops + faulted.profile.totals.write_ops,
            clean.profile.totals.read_ops + clean.profile.totals.write_ops);
}

// Lane workloads and DAG workflows alike end with the failing op's own
// error, not a deadlock diagnosis.
TEST(FaultDeterminism, ExhaustedRetriesThrowDiagnosedFaultError) {
  for (const char* id : {"hacc-fpp", "montage-pegasus"}) {
    SCOPED_TRACE(id);
    const auto entry = workloads::paper_workloads()[static_cast<std::size_t>(
        workloads::find_workload(id))];
    runtime::Simulation sim(test_cluster());
    try {
      workloads::run_with(sim, entry.make_test(),
                          faulted_cfg("seed=3; gpfs: eio=1"),
                          analysis::Analyzer::Options{});
      ADD_FAILURE() << "run survived eio=1";
    } catch (const sim::FaultError& e) {
      EXPECT_EQ(e.kind(), sim::FaultKind::kEio);
      EXPECT_NE(std::string(e.what()).find("failed after"),
                std::string::npos)
          << e.what();
    }
    EXPECT_GT(sim.faults()->stats().exhausted, 0u);
  }
}

TEST(FaultDeterminism, CapacityClampSurfacesAsEnospc) {
  const auto entry = hacc_entry();
  runtime::Simulation sim(test_cluster());
  try {
    workloads::run_with(sim, entry.make_test(),
                        faulted_cfg("seed=3; gpfs: capacity=1MB"),
                        analysis::Analyzer::Options{});
    FAIL() << "run survived a 1MB gpfs";
  } catch (const sim::FaultError& e) {
    EXPECT_EQ(e.kind(), sim::FaultKind::kEnospc);
    EXPECT_NE(std::string(e.what()).find("ENOSPC"), std::string::npos)
        << e.what();
  }
  EXPECT_GT(sim.faults()->stats().enospc_errors, 0u);
}

// ---- FaultEquivalence: the plan travels with the pattern -----------------

TEST(FaultEquivalence, PlanRoundTripsThroughPatternYaml) {
  const auto entry = hacc_entry();
  runtime::Simulation sim(test_cluster());
  auto w = entry.make_test();
  ASSERT_TRUE(static_cast<bool>(w.compile));
  auto pat = w.compile(sim, advisor::RunConfig{});
  pat.faults = sim::FaultPlan::parse(kSpec);
  const std::string yaml = pattern::to_yaml(pat);
  const auto reparsed = pattern::pattern_from_yaml(yaml);
  EXPECT_EQ(reparsed.faults.to_spec(), pat.faults.to_spec());
  // Dump is deterministic with the plan aboard.
  EXPECT_EQ(pattern::to_yaml(reparsed), yaml);
}

// ---- FaultDegradation: real disk errors, diagnosed -----------------------

bool dev_full_available() {
  std::error_code ec;
  return std::filesystem::is_character_file("/dev/full", ec);
}

TEST(FaultDegradation, TraceLogWriteToFullDiskIsDiagnosed) {
  if (!dev_full_available()) GTEST_SKIP() << "/dev/full not available";
  const auto entry = hacc_entry();
  runtime::Simulation sim(test_cluster());
  workloads::run_with(sim, entry.make_test(), advisor::RunConfig{},
                      analysis::Analyzer::Options{});
  try {
    trace::write_log("/dev/full", sim.tracer());
    FAIL() << "write_log to /dev/full succeeded";
  } catch (const util::SimError& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("short write to trace log"), std::string::npos) << msg;
    EXPECT_NE(msg.find("/dev/full"), std::string::npos) << msg;
  }
  // The cleanup path must never unlink a device node.
  EXPECT_TRUE(std::filesystem::is_character_file("/dev/full"));
}

TEST(FaultDegradation, TraceLogWriteRemovesPartialFile) {
  const auto entry = hacc_entry();
  runtime::Simulation sim(test_cluster());
  workloads::run_with(sim, entry.make_test(), advisor::RunConfig{},
                      analysis::Analyzer::Options{});
  if (!dev_full_available()) GTEST_SKIP() << "/dev/full not available";
  // A symlinked output behaves like any full target; on failure the link
  // (not the device) is removed, so no stale half-written path remains.
  const std::string link = temp_path("full_link.wtrc");
  std::filesystem::remove(link);
  std::filesystem::create_symlink("/dev/full", link);
  EXPECT_THROW(trace::write_log(link, sim.tracer()), util::SimError);
  EXPECT_FALSE(std::filesystem::exists(std::filesystem::symlink_status(link)));
  EXPECT_TRUE(std::filesystem::is_character_file("/dev/full"));
}

TEST(FaultDegradation, SpillFlushToFullDiskRemovesPartialChunk) {
  if (!dev_full_available()) GTEST_SKIP() << "/dev/full not available";
  const auto records = trace::synthetic_records(300);
  analysis::SpillColumnStore store(
      {.dir = temp_path("enospc.spill"), .chunk_rows = 100});
  const std::string victim = store.chunk_file_path(0);
  std::filesystem::create_symlink("/dev/full", victim);
  try {
    // The first flush (row 100) writes through the symlink into /dev/full.
    store.append(records);
    store.finalize();
    FAIL() << "spill flush to /dev/full succeeded";
  } catch (const util::SimError& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("short write to spill chunk"), std::string::npos)
        << msg;
    EXPECT_NE(msg.find("expected"), std::string::npos) << msg;
    EXPECT_NE(msg.find(victim), std::string::npos) << msg;
  }
  // The partial chunk (here: the symlink) is gone, the device untouched.
  EXPECT_FALSE(
      std::filesystem::exists(std::filesystem::symlink_status(victim)));
  EXPECT_TRUE(std::filesystem::is_character_file("/dev/full"));
}

TEST(FaultDegradation, TruncatedTraceLogNamesThePath) {
  const auto entry = hacc_entry();
  runtime::Simulation sim(test_cluster());
  workloads::run_with(sim, entry.make_test(), advisor::RunConfig{},
                      analysis::Analyzer::Options{});
  const std::string path = temp_path("truncated.wtrc");
  trace::write_log(path, sim.tracer());
  const auto full = std::filesystem::file_size(path);
  std::filesystem::resize_file(path, full / 2);
  try {
    analysis::ColumnStore store;
    (void)testutil::analyze_log(path, store);
    FAIL() << "the log path accepted a truncated file";
  } catch (const util::SimError& e) {
    EXPECT_NE(std::string(e.what()).find(path), std::string::npos)
        << e.what();
  }
}

TEST(FaultDegradation, MissingSpillChunkNamesPathAndErrno) {
  const auto records = trace::synthetic_records(250);
  analysis::SpillColumnStore store(
      {.dir = temp_path("missing.spill"), .chunk_rows = 100,
       .max_resident_chunks = 1});
  store.append(records);
  store.finalize();
  const std::string victim = store.chunk_file_path(2);
  // Load chunk 2, then chunk 0, which evicts it from the one-chunk cache;
  // read-ahead follows only sequential reads, so it never targets chunk 2
  // in this order. Then delete the file and force a reload.
  (void)store.row(200);
  (void)store.row(0);
  std::filesystem::remove(victim);
  try {
    (void)store.row(200);
    FAIL() << "row() read a deleted chunk";
  } catch (const util::SimError& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("cannot open spill chunk"), std::string::npos) << msg;
    EXPECT_NE(msg.find(victim), std::string::npos) << msg;
    EXPECT_NE(msg.find("No such file"), std::string::npos) << msg;
  }
}

// ---- CliParse: checked integer parsing for the tools ---------------------

TEST(CliParse, ParseIntIsStrict) {
  EXPECT_EQ(util::parse_int("42"), 42);
  EXPECT_EQ(util::parse_int("-7"), -7);
  EXPECT_EQ(util::parse_int("banana"), std::nullopt);
  EXPECT_EQ(util::parse_int("12abc"), std::nullopt);
  EXPECT_EQ(util::parse_int(""), std::nullopt);
  EXPECT_EQ(util::parse_int("99999999999999999999999"), std::nullopt);
  EXPECT_EQ(util::parse_int("+5"), std::nullopt);
  EXPECT_EQ(util::parse_int(" 5"), std::nullopt);
  EXPECT_EQ(util::parse_int("-"), std::nullopt);
  EXPECT_EQ(util::parse_uint("42"), 42u);
  EXPECT_EQ(util::parse_uint("-7"), std::nullopt);
  EXPECT_EQ(util::parse_uint(" -1"), std::nullopt);
  EXPECT_EQ(util::parse_uint("+5"), std::nullopt);
  EXPECT_EQ(util::parse_uint("4.5"), std::nullopt);
}

using CliParseDeathTest = ::testing::Test;

TEST(CliParseDeathTest, BadFlagValueExitsTwoNamingTheFlag) {
  EXPECT_EXIT(util::cli_int("--jobs", "banana"),
              ::testing::ExitedWithCode(2), "bad value for --jobs");
  EXPECT_EXIT(util::cli_uint("--chunk-rows", "-3"),
              ::testing::ExitedWithCode(2), "bad value for --chunk-rows");
}

}  // namespace
}  // namespace wasp
