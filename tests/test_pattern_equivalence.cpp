// The pattern compilers' contract: replaying a compiled JobPattern through
// the generic replayer produces a trace byte-identical to the original
// hand-written imperative launch (kept as `launch_reference`), and
// therefore identical profiles — across workloads, run configs, trace
// backends, and scenario-runner job counts.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "advisor/pattern_rewrites.hpp"
#include "workloads/ior.hpp"
#include "workloads/registry.hpp"

namespace wasp::workloads {
namespace {

cluster::ClusterSpec test_cluster(int nodes = 4) {
  auto spec = cluster::lassen(nodes);
  spec.node.cpu_cores = 8;
  return spec;
}

/// The same workload with the imperative oracle as its launch path.
Workload reference_of(Workload w) {
  EXPECT_TRUE(static_cast<bool>(w.launch_reference));
  w.launch = w.launch_reference;
  return w;
}

/// The same workload replaying a fixed (e.g. rewritten) pattern.
Workload with_pattern(Workload w, const pattern::JobPattern& pat) {
  w.compile = [pat](runtime::Simulation&, const advisor::RunConfig&) {
    return pat;
  };
  return w;
}

struct TracedRun {
  RunOutput out;
  std::vector<trace::Record> records;
  std::vector<std::string> apps;
};

TracedRun traced_run(const Workload& w, const advisor::RunConfig& cfg) {
  runtime::Simulation sim(test_cluster());
  TracedRun r;
  r.out = run_with(sim, w, cfg, analysis::Analyzer::Options{});
  r.records = sim.tracer().records();
  for (std::size_t a = 0; a < sim.tracer().num_apps(); ++a) {
    r.apps.push_back(sim.tracer().app_name(static_cast<std::uint16_t>(a)));
  }
  return r;
}

void expect_byte_identical(const Workload& w, const advisor::RunConfig& cfg) {
  const TracedRun replayed = traced_run(w, cfg);
  const TracedRun reference = traced_run(reference_of(w), cfg);
  EXPECT_EQ(replayed.apps, reference.apps);
  ASSERT_EQ(replayed.records.size(), reference.records.size());
  for (std::size_t i = 0; i < reference.records.size(); ++i) {
    if (!(replayed.records[i] == reference.records[i])) {
      const auto& a = replayed.records[i];
      const auto& b = reference.records[i];
      FAIL() << "record " << i << " diverges: replay(app=" << a.app
             << " rank=" << a.rank << " op=" << static_cast<int>(a.op)
             << " off=" << a.offset << " size=" << a.size
             << " count=" << a.count << " t=" << a.tstart << ".." << a.tend
             << ") vs reference(app=" << b.app << " rank=" << b.rank
             << " op=" << static_cast<int>(b.op) << " off=" << b.offset
             << " size=" << b.size << " count=" << b.count << " t="
             << b.tstart << ".." << b.tend << ")";
    }
  }
  EXPECT_EQ(replayed.out.job_seconds, reference.out.job_seconds);
  EXPECT_EQ(replayed.out.engine_events, reference.out.engine_events);
  EXPECT_EQ(replayed.out.characterization.to_yaml(),
            reference.out.characterization.to_yaml());
}

TEST(PatternEquivalence, AllSixWorkloadsBaselineConfig) {
  for (const auto& entry : paper_workloads()) {
    SCOPED_TRACE(entry.id);
    expect_byte_identical(entry.make_test(), advisor::RunConfig{});
  }
}

TEST(PatternEquivalence, IorBenchmark) {
  expect_byte_identical(make_ior(IorParams::test()), advisor::RunConfig{});
  auto P = IorParams::test();
  P.file_per_process = false;
  P.read_back = true;
  expect_byte_identical(make_ior(P), advisor::RunConfig{});
}

// The compilers consume the RunConfig, so equivalence must survive the
// advisor's knobs (§IV-D) too — each workload with the configuration its
// case study turns on.
TEST(PatternEquivalence, HaccCompressedAsyncDrain) {
  advisor::RunConfig cfg;
  cfg.compress_checkpoints = true;
  cfg.compress_on_gpu = true;
  cfg.async_checkpoint_drain = true;
  expect_byte_identical(make_hacc(HaccParams::test()), cfg);
}

TEST(PatternEquivalence, CosmoflowChunkedAndPreloaded) {
  advisor::RunConfig cfg;
  cfg.hdf5_chunk_size = util::kMiB;
  cfg.preload_input_to_node_local = true;
  expect_byte_identical(make_cosmoflow(CosmoflowParams::test()), cfg);
}

TEST(PatternEquivalence, JagLargeStdioBuffer) {
  advisor::RunConfig cfg;
  cfg.stdio_buffer = util::kMiB;
  expect_byte_identical(make_jag(JagParams::test()), cfg);
}

TEST(PatternEquivalence, MontageMpiShmIntermediates) {
  advisor::RunConfig cfg;
  cfg.intermediates_to_node_local = true;
  cfg.stdio_buffer = 64 * util::kKiB;
  expect_byte_identical(make_montage_mpi(MontageMpiParams::test()), cfg);
}

TEST(PatternEquivalence, MontagePegasusLocalityAware) {
  advisor::RunConfig cfg;
  cfg.locality_aware_placement = true;
  cfg.stdio_buffer = 64 * util::kKiB;
  expect_byte_identical(make_montage_pegasus(MontagePegasusParams::test()),
                        cfg);
}

// Replayed runs through the spill-to-disk trace backend must match the
// in-memory reference profile (the backends are profile-identical by
// contract; the replayer must not disturb that).
TEST(PatternEquivalence, SpillBackendMatchesReferenceProfile) {
  runtime::SpillPolicy policy;
  policy.dir = ::testing::TempDir() + "pattern_spill";
  policy.chunk_rows = 256;
  policy.max_resident_chunks = 2;
  for (const auto& entry : {paper_workloads()[1], paper_workloads()[4]}) {
    SCOPED_TRACE(entry.id);
    runtime::Simulation spill_sim(test_cluster());
    auto spilled = run_spilled(spill_sim, entry.make_test(),
                               advisor::RunConfig{},
                               analysis::Analyzer::Options{}, policy,
                               entry.id);
    auto reference = run(test_cluster(), reference_of(entry.make_test()));
    EXPECT_EQ(spilled.characterization.to_yaml(),
              reference.characterization.to_yaml());
    EXPECT_EQ(spilled.job_seconds, reference.job_seconds);
  }
}

// run_many must stay bit-identical whether the replayed scenarios execute
// sequentially or on four worker threads.
TEST(PatternEquivalence, RunManyIdenticalAcrossJobCounts) {
  std::vector<Scenario> scenarios;
  for (const auto& entry : paper_workloads()) {
    Scenario s;
    s.name = entry.id;
    s.spec = test_cluster();
    s.make = entry.make_test;
    scenarios.push_back(std::move(s));
  }
  auto one = run_many(scenarios, 1);
  auto four = run_many(scenarios, 4);
  ASSERT_EQ(one.size(), four.size());
  for (std::size_t i = 0; i < one.size(); ++i) {
    SCOPED_TRACE(scenarios[i].name);
    EXPECT_EQ(one[i].job_seconds, four[i].job_seconds);
    EXPECT_EQ(one[i].characterization.to_yaml(),
              four[i].characterization.to_yaml());
    auto reference = run(test_cluster(),
                         reference_of(scenarios[i].make()));
    EXPECT_EQ(one[i].characterization.to_yaml(),
              reference.characterization.to_yaml());
  }
}

// §IV-D.1 as a pure IR mutation: applying the shm-preload rewrite to the
// compiled CosmoFlow pattern must reproduce the Fig. 7 speedup direction
// (training reads move off the PFS, the job gets faster), and must match
// what the compiler emits when the RunConfig asks for preloading.
TEST(PatternEquivalence, CosmoflowPreloadRewriteReproducesFig7Direction) {
  auto w = make_cosmoflow(CosmoflowParams::test());
  runtime::Simulation compile_sim(test_cluster());
  auto baseline_pat = w.compile(compile_sim, advisor::RunConfig{});

  advisor::PreloadSpec spec;
  ASSERT_TRUE(
      advisor::preload_spec_from_meta(baseline_pat, "/dev/shm", &spec));
  auto rewritten = baseline_pat;
  advisor::apply_preload(rewritten, spec);

  // The rewrite equals recompiling with the knob on.
  advisor::RunConfig preload_cfg;
  preload_cfg.preload_input_to_node_local = true;
  runtime::Simulation compile_sim2(test_cluster());
  EXPECT_EQ(pattern::to_yaml(rewritten),
            pattern::to_yaml(w.compile(compile_sim2, preload_cfg)));

  auto replay_pattern = [&](const pattern::JobPattern& pat) {
    return run(test_cluster(), with_pattern(w, pat));
  };
  auto base = replay_pattern(baseline_pat);
  auto fast = replay_pattern(rewritten);
  // Fig. 7: node-local training reads shrink both the job and its I/O
  // share of runtime.
  EXPECT_LT(fast.job_seconds, base.job_seconds);
  EXPECT_LT(fast.profile.io_time_fraction * fast.job_seconds,
            base.profile.io_time_fraction * base.job_seconds);
}

// What-if rewrites preserve total bytes while changing op shape.
TEST(PatternRewrite, TransferSizeKeepsBytes) {
  auto w = make_hacc(HaccParams::test());
  runtime::Simulation compile_sim(test_cluster());
  auto pat = w.compile(compile_sim, advisor::RunConfig{});
  auto rewritten = pat;
  const int changed = advisor::set_transfer_size(rewritten, util::kMiB);
  EXPECT_GT(changed, 0);

  auto run_pattern = [&](const pattern::JobPattern& p) {
    return run(test_cluster(), with_pattern(w, p));
  };
  auto base = run_pattern(pat);
  auto variant = run_pattern(rewritten);
  EXPECT_EQ(variant.profile.totals.io_bytes(),
            base.profile.totals.io_bytes());
  EXPECT_NE(variant.profile.totals.total_ops(),
            base.profile.totals.total_ops());
}

TEST(PatternRewrite, InterfaceSwapRespectsPinnedHandles) {
  auto w = make_jag(JagParams::test());
  runtime::Simulation compile_sim(test_cluster());
  auto pat = w.compile(compile_sim, advisor::RunConfig{});
  auto rewritten = pat;
  // JAG's dataset handles are pinned by scattered reads and wrap seeks;
  // only the plain posix checkpoint chain may move to stdio.
  const int changed =
      advisor::set_interface(rewritten, pattern::Layer::kStdio);
  EXPECT_GT(changed, 0);
  auto out = run(test_cluster(), with_pattern(w, rewritten));
  EXPECT_GT(out.profile.totals.io_bytes(), 0u);
}

}  // namespace
}  // namespace wasp::workloads
