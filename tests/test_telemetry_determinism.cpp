// Telemetry must be strictly read-only: enabling the metrics clock and the
// span tracer cannot perturb a single profile byte, at any job count, on
// either store backend. Every variant below is compared field-for-field
// (doubles with operator==) against a baseline computed with telemetry off.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "analysis/analyzer.hpp"
#include "analysis/spill_store.hpp"
#include "obs/obs.hpp"
#include "profile_test_util.hpp"
#include "sim/faults.hpp"
#include "workloads/registry.hpp"

namespace wasp {
namespace {

using testutil::expect_profiles_identical;

class TelemetryToggle {
 public:
  TelemetryToggle() {
    obs::Registry::set_timing_enabled(true);
    obs::SpanTracer::instance().set_enabled(true);
  }
  ~TelemetryToggle() {
    obs::SpanTracer::instance().set_enabled(false);
    obs::SpanTracer::instance().clear();
    obs::Registry::set_timing_enabled(false);
  }
};

TEST(TelemetryDeterminism, ProfilesIdenticalOnOffAcrossJobsAndBackends) {
  ASSERT_FALSE(obs::Registry::timing_enabled());
  ASSERT_FALSE(obs::SpanTracer::instance().enabled());

  runtime::Simulation sim(cluster::lassen(4));
  const auto out0 = workloads::run_with(
      sim, workloads::make_montage_mpi(workloads::MontageMpiParams::test()),
      advisor::RunConfig{}, analysis::Analyzer::Options{});
  const std::vector<trace::Record> records(sim.tracer().records().begin(),
                                           sim.tracer().records().end());
  ASSERT_GT(records.size(), 100u);

  analysis::Analyzer::Options o1;
  o1.jobs = 1;
  o1.chunk_rows = 23;  // misaligned with storage chunking on purpose
  analysis::Analyzer::Options o4 = o1;
  o4.jobs = 4;

  // Baseline: telemetry fully off, memory backend, one job.
  const auto baseline = analysis::Analyzer(o1).analyze(sim.tracer());

  const auto spill_profile = [&](const analysis::Analyzer::Options& o,
                                 const char* dir) {
    analysis::SpillColumnStore store(
        {.dir = std::string(::testing::TempDir()) + "/" + dir,
         .chunk_rows = 17,
         .max_resident_chunks = 3});
    store.append(records);
    store.finalize();
    auto input = analysis::tracer_input(sim.tracer());
    input.store = &store;
    return analysis::Analyzer(o).analyze(input);
  };

  // Telemetry off: both backends, both job counts.
  expect_profiles_identical(baseline,
                            analysis::Analyzer(o4).analyze(sim.tracer()));
  expect_profiles_identical(baseline, spill_profile(o1, "det_off_j1.spill"));
  expect_profiles_identical(baseline, spill_profile(o4, "det_off_j4.spill"));

  // Telemetry on (metrics clock + span tracer): same four variants.
  {
    TelemetryToggle on;
    expect_profiles_identical(baseline,
                              analysis::Analyzer(o1).analyze(sim.tracer()));
    expect_profiles_identical(baseline,
                              analysis::Analyzer(o4).analyze(sim.tracer()));
    expect_profiles_identical(baseline, spill_profile(o1, "det_on_j1.spill"));
    expect_profiles_identical(baseline, spill_profile(o4, "det_on_j4.spill"));
  }

  // The whole-pipeline variant: a fresh simulation run with telemetry on
  // must reproduce the baseline run's profile and virtual clock exactly.
  {
    TelemetryToggle on;
    runtime::Simulation sim2(cluster::lassen(4));
    const auto out2 = workloads::run_with(
        sim2, workloads::make_montage_mpi(workloads::MontageMpiParams::test()),
        advisor::RunConfig{}, analysis::Analyzer::Options{});
    EXPECT_EQ(out0.job_seconds, out2.job_seconds);
    EXPECT_EQ(out0.engine_events, out2.engine_events);
    expect_profiles_identical(out0.profile, out2.profile);
    ASSERT_EQ(sim2.tracer().records().size(), records.size());
  }
}

// The manifest's deterministic fingerprint digests exactly the metrics
// that are functions of the simulation alone (engine events, virtual
// time, analyzer rows, faults.*, replay.*). Two runs of the same
// configuration must produce byte-identical fingerprints regardless of
// analyzer job count or store backend; the registry deltas are taken per
// run so the test is insensitive to whatever ran earlier in-process.
TEST(ManifestDeterminism, FingerprintIdenticalAcrossJobCounts) {
  const auto fingerprint_run = [](int jobs) {
    const obs::Snapshot before = obs::Registry::instance().snapshot();
    runtime::Simulation sim(cluster::lassen(4));
    advisor::RunConfig cfg;
    // Mild probabilities: enough draws land to populate faults.* without
    // ever exhausting the retry budget (which would abort the run).
    cfg.faults = sim::FaultPlan::parse(
        "seed=7; *: eio=0.02, slow=0.2, spike=5ms");
    analysis::Analyzer::Options o;
    o.jobs = jobs;
    (void)workloads::run_with(
        sim, workloads::make_montage_mpi(workloads::MontageMpiParams::test()),
        cfg, o);
    obs::RunManifest m;
    m.metrics = obs::Registry::instance().snapshot().delta(before);
    return m.deterministic_fingerprint();
  };
  const std::string fp1 = fingerprint_run(1);
  const std::string fp4 = fingerprint_run(4);
  EXPECT_EQ(fp1, fp4);
  EXPECT_FALSE(fp1.empty());
  EXPECT_NE(fp1.find("engine.events="), std::string::npos);
  EXPECT_NE(fp1.find("faults."), std::string::npos);
}

TEST(ManifestDeterminism, FingerprintIdenticalAcrossBackends) {
  runtime::Simulation sim(cluster::lassen(4));
  (void)workloads::run_with(
      sim, workloads::make_montage_mpi(workloads::MontageMpiParams::test()),
      advisor::RunConfig{}, analysis::Analyzer::Options{});
  const std::vector<trace::Record> records(sim.tracer().records().begin(),
                                           sim.tracer().records().end());
  ASSERT_GT(records.size(), 100u);

  const auto fingerprint_analyze = [&](bool spill, const char* dir) {
    const obs::Snapshot before = obs::Registry::instance().snapshot();
    analysis::Analyzer::Options o;
    o.jobs = spill ? 4 : 1;
    if (spill) {
      analysis::SpillColumnStore store(
          {.dir = std::string(::testing::TempDir()) + "/" + dir,
           .chunk_rows = 17,
           .max_resident_chunks = 3});
      store.append(records);
      store.finalize();
      auto input = analysis::tracer_input(sim.tracer());
      input.store = &store;
      (void)analysis::Analyzer(o).analyze(input);
    } else {
      (void)analysis::Analyzer(o).analyze(sim.tracer());
    }
    obs::RunManifest m;
    m.metrics = obs::Registry::instance().snapshot().delta(before);
    return m.deterministic_fingerprint();
  };
  const std::string memory_fp = fingerprint_analyze(false, "");
  const std::string spill_fp = fingerprint_analyze(true, "manifest.spill");
  EXPECT_EQ(memory_fp, spill_fp);
  EXPECT_NE(memory_fp.find("analyze.rows="), std::string::npos);
}

}  // namespace
}  // namespace wasp
