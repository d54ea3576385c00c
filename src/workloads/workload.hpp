// Uniform workload harness.
//
// A Workload bundles (a) the owner-declared attributes, (b) an untraced
// setup task that stages input data, and (c) a pattern compiler that turns
// a RunConfig into the declarative I/O-pattern IR. simulate() replays the
// compiled pattern; the runner then executes the rest of the Vani
// pipeline: trace -> analyze -> characterize -> recommend.
#pragma once

#include <functional>
#include <string>

#include "advisor/config.hpp"
#include "advisor/rules.hpp"
#include "analysis/analyzer.hpp"
#include "cluster/spec.hpp"
#include "core/characterizer.hpp"
#include "pattern/pattern.hpp"
#include "runtime/simulation.hpp"

namespace wasp::workloads {

struct Workload {
  charz::WorkloadDecl decl;
  /// Stage input datasets (runs untraced before t=0 of the job).
  std::function<sim::Task<void>(runtime::Simulation&)> setup;
  /// Compile params + RunConfig into the declarative pattern IR (required):
  /// the one model of the job and the one way a RunConfig reaches it.
  /// Takes the Simulation because file paths depend on its mount table.
  std::function<pattern::JobPattern(runtime::Simulation&,
                                    const advisor::RunConfig&)>
      compile;
};

struct RunOutput {
  analysis::WorkloadProfile profile;
  charz::WorkloadCharacterization characterization;
  std::vector<advisor::Recommendation> recommendations;
  /// Wall time of the job in simulated seconds (== profile.job_runtime_sec).
  double job_seconds = 0.0;
  std::uint64_t engine_events = 0;
  /// End-of-run PFS counters (meta/data ops, bytes, cache hits) — lets
  /// sweep drivers report storage-side effects without keeping the
  /// Simulation alive.
  fs::FsCounters pfs_counters;
};

/// Simulate the job on `sim`: run the untraced setup and drop the PFS
/// client caches it warmed, install cfg.faults, replay
/// workload.compile(sim, cfg) and run the engine until every root
/// finishes. Leaves the trace in sim.tracer().
void simulate(runtime::Simulation& sim, const Workload& workload,
              const advisor::RunConfig& cfg);

/// Execute the full pipeline on a fresh Simulation.
RunOutput run(const cluster::ClusterSpec& spec, const Workload& workload,
              const advisor::RunConfig& cfg = advisor::RunConfig{},
              const analysis::Analyzer::Options& analyzer_opts =
                  analysis::Analyzer::Options{});

/// Like run(), but also hands the caller the Simulation afterwards (tests
/// that inspect filesystem state).
RunOutput run_with(runtime::Simulation& sim, const Workload& workload,
                   const advisor::RunConfig& cfg,
                   const analysis::Analyzer::Options& analyzer_opts);

/// A named, self-contained run request for batch execution. The workload
/// factory is invoked on the worker thread that runs the scenario, so the
/// Workload and the entire simulation world it launches into (engine,
/// cluster, filesystems, tracer) stay thread-confined.
struct Scenario {
  std::string name;
  cluster::ClusterSpec spec;
  std::function<Workload()> make;
  advisor::RunConfig cfg;
  analysis::Analyzer::Options analyzer_opts;
};

/// Run independent scenarios concurrently via runtime::ScenarioRunner
/// (jobs == 0 -> util::default_jobs()). Results are in input order and
/// bit-identical to running each scenario sequentially.
std::vector<RunOutput> run_many(const std::vector<Scenario>& scenarios,
                                int jobs = 0);

}  // namespace wasp::workloads
