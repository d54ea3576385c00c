#include "workloads/workload.hpp"

#include "obs/obs.hpp"
#include "pattern/replayer.hpp"
#include "runtime/scenario_runner.hpp"
#include "util/error.hpp"

namespace wasp::workloads {

void simulate(runtime::Simulation& sim, const Workload& workload,
              const advisor::RunConfig& cfg) {
  WASP_CHECK_MSG(static_cast<bool>(workload.compile),
                 "workload has no pattern compiler");
  if (workload.setup) {
    sim.tracer().set_enabled(false);
    sim.engine().spawn(workload.setup(sim));
    sim.engine().run();
    sim.tracer().set_enabled(true);
    sim.pfs().drop_client_caches();
  }
  // Faults start with the traced job, never during setup staging. Patterns
  // may also carry a plan; the RunConfig's wins (replay() checks faults()).
  if (cfg.faults.enabled() && sim.faults() == nullptr) {
    sim.install_faults(cfg.faults);
  }
  pattern::replay(sim, workload.compile(sim, cfg));
  sim.engine().run();
  WASP_CHECK_MSG(sim.engine().all_roots_done(),
                 "workload deadlocked (roots not done)");
}

RunOutput run_with(runtime::Simulation& sim, const Workload& workload,
                   const advisor::RunConfig& cfg,
                   const analysis::Analyzer::Options& analyzer_opts) {
  simulate(sim, workload, cfg);
  RunOutput out;
  out.profile = analysis::Analyzer(analyzer_opts).analyze(sim.tracer());
  charz::Characterizer characterizer;
  out.characterization =
      characterizer.characterize(workload.decl, sim.spec(), out.profile);
  advisor::RuleEngine rules;
  out.recommendations = rules.evaluate(out.characterization);
  out.job_seconds = out.profile.job_runtime_sec;
  out.engine_events = sim.engine().events_processed();
  out.pfs_counters = sim.pfs().counters();
  return out;
}

RunOutput run(const cluster::ClusterSpec& spec, const Workload& workload,
              const advisor::RunConfig& cfg,
              const analysis::Analyzer::Options& analyzer_opts) {
  runtime::Simulation sim(spec);
  return run_with(sim, workload, cfg, analyzer_opts);
}

std::vector<RunOutput> run_many(const std::vector<Scenario>& scenarios,
                                int jobs) {
  std::vector<std::function<RunOutput()>> fns;
  fns.reserve(scenarios.size());
  for (const Scenario& s : scenarios) {
    WASP_CHECK_MSG(static_cast<bool>(s.make),
                   "scenario has no workload factory: " + s.name);
    fns.push_back([&s] {
      // Interned name: scenario spans carry dynamic labels, and the tracer
      // needs storage that outlives this lambda.
      obs::Span span(obs::SpanTracer::instance().enabled()
                         ? obs::SpanTracer::instance().intern("scenario:" +
                                                              s.name)
                         : nullptr);
      runtime::Simulation sim(s.spec);
      return run_with(sim, s.make(), s.cfg, s.analyzer_opts);
    });
  }
  return runtime::ScenarioRunner(jobs).run<RunOutput>(fns);
}

}  // namespace wasp::workloads
