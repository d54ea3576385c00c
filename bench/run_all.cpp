// run_all — the perf-trajectory driver. Times the table/figure reproduction
// pipeline (per-workload simulation + analysis throughput) and the
// multi-scenario sweeps at jobs=1 vs jobs=N, then emits BENCH_results.json
// so every PR from here on records where the wall-clock went.
//
//   run_all [--jobs N] [--scale test|paper] [--out FILE]
//           [--backend memory|spill] [--spill-dir DIR] [--no-compress]
//           [--only WORKLOAD_ID] [--queue wheel|heap]
//
// --scale test (default) uses the reduced test parameters so the driver
// finishes in seconds anywhere; --scale paper runs the full Table I scale.
// --backend spill routes every pipeline and sweep through the spill-to-disk
// trace store (bounded-memory analysis); each BENCH_results.json entry
// records which backend produced it.
//
// Output schema "wasp-bench-results-v3": the document records provenance
// (git_sha, ISO-8601 timestamp) next to jobs/hardware_threads, and every
// entry carries wall_seconds, a fixed-key "telemetry" block (engine
// events, analyzer pass time, pool queue-wait), and a "metrics" embed —
// the same counters/gauges/histograms sections a RunManifest holds,
// restricted to this entry's registry delta. Spill-backend entries add an
// "io" block (cache/prefetch behavior, compressed vs raw chunk bytes);
// memory-backend entries omit it, and readers treat the absent block as
// "no spill io" (v2 emitted it zeroed with "present": false — wasp_report
// reads both). --no-compress writes raw WSPCHK01 chunk files instead of
// the compressed WSPCHK02 format.
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "advisor/rules.hpp"
#include "analysis/spill_store.hpp"
#include "bench_util.hpp"
#include "obs/obs.hpp"
#include "workloads/cosmoflow.hpp"
#include "workloads/montage_mpi.hpp"
#include "workloads/registry.hpp"

namespace {

using namespace wasp;
using Clock = std::chrono::steady_clock;

double elapsed_sec(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

struct WorkloadMetrics {
  std::string name;
  std::string backend = "memory";
  double sim_seconds = 0.0;
  double analyze_seconds = 0.0;
  double wall_seconds = 0.0;  ///< whole entry, setup through analyze
  std::uint64_t engine_events = 0;
  std::uint64_t trace_rows = 0;
  double events_per_sec = 0.0;
  double analyzer_rows_per_sec = 0.0;
  bool compress = true;
  analysis::IoStats io;  // all-zero for the memory backend
  obs::Snapshot telemetry;  // registry delta over this entry's run
};

struct SweepMetrics {
  std::string name;
  std::string backend = "memory";
  std::size_t scenarios = 0;
  /// Job count run_many actually used for the jobs=N leg (1 when the batch
  /// fell under the serial threshold).
  int jobs_effective = 0;
  double jobs1_seconds = 0.0;
  double jobsN_seconds = 0.0;
  double wall_seconds = 0.0;  ///< both runs end to end
  double speedup = 0.0;
  obs::Snapshot telemetry;  // registry delta over both runs
};

/// The run_with() pipeline with a stopwatch between the simulate and
/// analyze halves (RunOutput has no timing split). With a spill policy the
/// tracer flushes into a SpillColumnStore mid-run and analysis streams the
/// spilled chunks; flush/finalize cost counts toward the analyze half.
WorkloadMetrics measure_workload(const std::string& name,
                                 const cluster::ClusterSpec& spec,
                                 const workloads::Workload& workload,
                                 const runtime::SpillPolicy* policy,
                                 const sim::Engine::Options& eng_opts) {
  WorkloadMetrics m;
  m.name = name;
  const auto entry_t0 = Clock::now();
  const obs::Snapshot before = obs::Registry::instance().snapshot();
  runtime::Simulation sim(spec, eng_opts);

  std::unique_ptr<analysis::SpillColumnStore> store;
  if (policy != nullptr) {
    m.backend = "spill";
    m.compress = policy->compress;
    analysis::SpillColumnStore::Options so;
    so.dir = policy->dir + "/" + name;
    so.chunk_rows = policy->chunk_rows;
    so.max_resident_chunks = policy->max_resident_chunks;
    so.compress = policy->compress;
    store = std::make_unique<analysis::SpillColumnStore>(so);
    sim.tracer().set_sink(store.get(), policy->flush_rows);
  }

  auto t0 = Clock::now();
  workloads::simulate(sim, workload, advisor::RunConfig{});
  m.sim_seconds = elapsed_sec(t0);
  m.engine_events = sim.engine().events_processed();
  m.trace_rows = sim.tracer().total_records();

  t0 = Clock::now();
  analysis::Analyzer analyzer;
  if (store != nullptr) {
    sim.tracer().flush_sink();
    sim.tracer().set_sink(nullptr);
    store->finalize();
    const auto profile =
        analyzer.analyze(analysis::tracer_input(sim.tracer(), store.get()));
    (void)profile;
    m.io = store->io_stats();
  } else {
    const auto profile = analyzer.analyze(sim.tracer());
    (void)profile;
  }
  m.analyze_seconds = elapsed_sec(t0);

  if (m.sim_seconds > 0) {
    m.events_per_sec =
        static_cast<double>(m.engine_events) / m.sim_seconds;
  }
  if (m.analyze_seconds > 0) {
    m.analyzer_rows_per_sec =
        static_cast<double>(m.trace_rows) / m.analyze_seconds;
  }
  m.telemetry = obs::Registry::instance().snapshot().delta(before);
  m.wall_seconds = elapsed_sec(entry_t0);
  return m;
}

std::vector<workloads::Scenario> cosmoflow_sweep(bool paper_scale) {
  std::vector<workloads::Scenario> scenarios;
  const std::vector<int> node_counts =
      paper_scale ? std::vector<int>{32, 64, 128, 256}
                  : std::vector<int>{2, 4, 8, 16};
  for (int nodes : node_counts) {
    workloads::CosmoflowParams P = paper_scale
                                       ? workloads::CosmoflowParams::paper()
                                       : workloads::CosmoflowParams::test();
    P.nodes = nodes;
    scenarios.push_back({"cosmoflow-" + std::to_string(nodes),
                         cluster::lassen(nodes),
                         [P] { return workloads::make_cosmoflow(P); },
                         advisor::RunConfig{},
                         analysis::Analyzer::Options{}});
  }
  return scenarios;
}

std::vector<workloads::Scenario> montage_sweep(bool paper_scale) {
  std::vector<workloads::Scenario> scenarios;
  const std::vector<int> node_counts =
      paper_scale ? std::vector<int>{32, 64, 128, 256}
                  : std::vector<int>{2, 4, 8, 16};
  for (int nodes : node_counts) {
    workloads::MontageMpiParams P =
        paper_scale ? workloads::MontageMpiParams::paper()
                    : workloads::MontageMpiParams::test();
    if (paper_scale) {
      P.projected_per_node = P.projected_per_node * 32 / nodes;
      P.mosaic_per_node = P.mosaic_per_node * 32 / nodes;
      P.png_per_node = P.png_per_node * 32 / nodes;
    }
    P.nodes = nodes;
    scenarios.push_back({"montage-" + std::to_string(nodes),
                         cluster::lassen(nodes),
                         [P] { return workloads::make_montage_mpi(P); },
                         advisor::RunConfig{},
                         analysis::Analyzer::Options{}});
  }
  return scenarios;
}

std::vector<workloads::Scenario> stripe_sweep() {
  // Mirrors ablation_stripe_size's grid via an IOR-style single writer —
  // here the point is timing the fan-out, so reuse the registry workloads.
  std::vector<workloads::Scenario> scenarios;
  for (int count : {1, 2, 4, 8}) {
    auto spec = cluster::lassen(4);
    spec.pfs.stripe_count = count;
    workloads::Scenario s{"stripe-" + std::to_string(count), spec,
                          [] {
                            return workloads::make_montage_mpi(
                                workloads::MontageMpiParams::test());
                          },
                          advisor::RunConfig{},
                          analysis::Analyzer::Options{}};
    // Test-scale Montage cells run ~700 engine events: far below the
    // fan-out threshold, so run_many keeps the grid serial.
    s.est_events = 700;
    scenarios.push_back(std::move(s));
  }
  return scenarios;
}

SweepMetrics measure_sweep(const std::string& name,
                           const std::vector<workloads::Scenario>& scenarios,
                           int jobs, const runtime::SpillPolicy* policy) {
  SweepMetrics m;
  m.name = name;
  m.scenarios = scenarios.size();
  const auto entry_t0 = Clock::now();
  const obs::Snapshot before = obs::Registry::instance().snapshot();
  runtime::ScenarioRunner runner1(1);
  runtime::ScenarioRunner runnerN(jobs);
  if (policy != nullptr) {
    m.backend = "spill";
    runtime::SpillPolicy p = *policy;
    p.dir = policy->dir + "/" + name;
    runner1.set_spill(p);
    runnerN.set_spill(p);
  }
  m.jobs_effective = workloads::effective_jobs(scenarios, runnerN);
  auto t0 = Clock::now();
  (void)workloads::run_many(scenarios, runner1);
  m.jobs1_seconds = elapsed_sec(t0);
  t0 = Clock::now();
  (void)workloads::run_many(scenarios, runnerN);
  m.jobsN_seconds = elapsed_sec(t0);
  m.speedup = m.jobsN_seconds > 0 ? m.jobs1_seconds / m.jobsN_seconds : 0.0;
  m.telemetry = obs::Registry::instance().snapshot().delta(before);
  m.wall_seconds = elapsed_sec(entry_t0);
  return m;
}

std::string json_num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  return buf;
}

/// Fixed-key registry excerpt per entry. The keys are emitted whether or
/// not the counters exist (absent ones print 0), so the schema never
/// depends on which layers ran. pool.queue_wait_ns is the per-task
/// queue-wait evidence behind the sweeps' --jobs speedups.
void write_telemetry_block(std::ostream& os, const obs::Snapshot& t) {
  os << "\"telemetry\": {"
     << "\"engine_events\": " << t.value("engine.events") << ", "
     << "\"engine_run_ns\": " << t.value("engine.run_ns") << ", "
     << "\"analyze_rows\": " << t.value("analyze.rows") << ", "
     << "\"analyze_ns\": " << t.value("analyze.ns") << ", "
     << "\"pool_tasks\": " << t.value("pool.tasks") << ", "
     << "\"pool_queue_wait_ns\": " << t.value("pool.queue_wait_ns") << ", "
     << "\"pool_queue_wait_count\": " << t.hist_count("pool.queue_wait_ns")
     << ", "
     << "\"pool_task_run_ns\": " << t.value("pool.task_run_ns") << "}";
}

}  // namespace

int main(int argc, char** argv) {
  const int jobs = benchutil::init_jobs(argc, argv);
  bool paper_scale = false;
  bool compress = true;
  std::string out_path = "BENCH_results.json";
  std::string backend = "memory";
  std::string spill_dir;
  std::string only;
  std::string queue = "wheel";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--scale" && i + 1 < argc) {
      paper_scale = std::string(argv[++i]) == "paper";
    } else if (arg == "--out" && i + 1 < argc) {
      out_path = argv[++i];
    } else if (arg == "--backend" && i + 1 < argc) {
      backend = argv[++i];
    } else if (arg == "--spill-dir" && i + 1 < argc) {
      spill_dir = argv[++i];
    } else if (arg == "--no-compress") {
      compress = false;
    } else if (arg == "--only" && i + 1 < argc) {
      // Run a single pipeline (by registry id, e.g. "cosmoflow") and skip
      // the sweeps — isolates one workload's timing from the state the
      // earlier pipelines leave behind (allocator arenas, page cache).
      only = argv[++i];
    } else if (arg == "--queue" && i + 1 < argc) {
      // Engine queue for the pipelines: "wheel" (default) or "heap" (the
      // pre-wheel oracle) — the end-to-end companion to the microbench's
      // wheel-vs-heap comparison. Event counts must not depend on this.
      queue = argv[++i];
    }
  }
  if (backend != "memory" && backend != "spill") {
    std::cerr << "unknown --backend (want memory|spill): " << backend << "\n";
    return 2;
  }
  if (queue != "wheel" && queue != "heap") {
    std::cerr << "unknown --queue (want wheel|heap): " << queue << "\n";
    return 2;
  }
  runtime::SpillPolicy spill_policy;
  const runtime::SpillPolicy* policy = nullptr;
  if (backend == "spill") {
    spill_policy.dir =
        spill_dir.empty()
            ? (std::filesystem::temp_directory_path() / "wasp_runall_spill")
                  .string()
            : spill_dir;
    spill_policy.compress = compress;
    policy = &spill_policy;
  }

  // Per-entry telemetry blocks are part of the output schema, so section
  // timing is always on here (two clock reads per pool task — noise next
  // to the work being timed).
  obs::Registry::set_timing_enabled(true);

  std::cerr << "run_all: scale=" << (paper_scale ? "paper" : "test")
            << " jobs=" << jobs << " backend=" << backend << "\n";

  sim::Engine::Options eng_opts;
  eng_opts.queue = queue == "heap" ? sim::Engine::QueueKind::kHeap
                                   : sim::Engine::QueueKind::kWheel;

  std::vector<WorkloadMetrics> workload_metrics;
  for (const auto& e : workloads::paper_workloads()) {
    if (!only.empty() && only != e.id) continue;
    std::cerr << "  pipeline: " << e.name << "\n";
    const auto workload = paper_scale ? e.make_paper() : e.make_test();
    const auto spec = cluster::lassen(paper_scale ? 32 : 4);
    workload_metrics.push_back(
        measure_workload(e.name, spec, workload, policy, eng_opts));
  }
  if (!only.empty() && workload_metrics.empty()) {
    std::cerr << "unknown --only workload id: " << only << "\n";
    return 2;
  }

  std::vector<SweepMetrics> sweep_metrics;
  if (only.empty()) {
    struct SweepDef {
      const char* name;
      std::vector<workloads::Scenario> scenarios;
    };
    std::vector<SweepDef> sweeps;
    sweeps.push_back({"fig7_cosmoflow_opt", cosmoflow_sweep(paper_scale)});
    sweeps.push_back({"fig8_montage_opt", montage_sweep(paper_scale)});
    sweeps.push_back({"ablation_stripe_size", stripe_sweep()});
    for (auto& s : sweeps) {
      std::cerr << "  sweep: " << s.name << " (jobs 1 vs " << jobs << ")\n";
      sweep_metrics.push_back(
          measure_sweep(s.name, s.scenarios, jobs, policy));
    }
  }

  std::ofstream os(out_path);
  os << "{\n";
  os << "  \"schema\": \"wasp-bench-results-v3\",\n";
  os << "  \"scale\": \"" << (paper_scale ? "paper" : "test") << "\",\n";
  os << "  \"git_sha\": \"" << obs::current_git_sha() << "\",\n";
  os << "  \"timestamp\": \"" << obs::iso8601_utc_now() << "\",\n";
  os << "  \"jobs\": " << jobs << ",\n";
  os << "  \"hardware_threads\": "
     << std::thread::hardware_concurrency() << ",\n";
  os << "  \"workloads\": [\n";
  for (std::size_t i = 0; i < workload_metrics.size(); ++i) {
    const auto& m = workload_metrics[i];
    os << "    {\"name\": \"" << m.name << "\", "
       << "\"backend\": \"" << m.backend << "\", "
       << "\"sim_seconds\": " << json_num(m.sim_seconds) << ", "
       << "\"analyze_seconds\": " << json_num(m.analyze_seconds) << ", "
       << "\"wall_seconds\": " << json_num(m.wall_seconds) << ", "
       << "\"engine_events\": " << m.engine_events << ", "
       << "\"trace_rows\": " << m.trace_rows << ", "
       << "\"events_per_sec\": " << json_num(m.events_per_sec) << ", "
       << "\"analyzer_rows_per_sec\": " << json_num(m.analyzer_rows_per_sec);
    // v3: the io block only exists where there is spill io to report;
    // memory-backend entries simply have no "io" key.
    if (m.backend == "spill") {
      os << ", \"io\": {"
         << "\"compress\": " << (m.compress ? "true" : "false") << ", "
         << "\"chunk_loads\": " << m.io.chunk_loads << ", "
         << "\"cache_hits\": " << m.io.cache_hits << ", "
         << "\"evictions\": " << m.io.evictions << ", "
         << "\"prefetch_issued\": " << m.io.prefetch_issued << ", "
         << "\"prefetch_hits\": " << m.io.prefetch_hits << ", "
         << "\"prefetch_wasted\": " << m.io.prefetch_wasted << ", "
         << "\"prefetch_hit_rate\": " << json_num(m.io.prefetch_hit_rate())
         << ", "
         << "\"bytes_written\": " << m.io.bytes_written << ", "
         << "\"bytes_read\": " << m.io.bytes_read << ", "
         << "\"raw_bytes\": " << m.io.raw_bytes << ", "
         << "\"compressed_ratio\": " << json_num(m.io.compressed_ratio())
         << "}";
    }
    os << ", ";
    write_telemetry_block(os, m.telemetry);
    // The manifest-style rollup of this entry's registry delta: the same
    // counters/gauges/histograms sections a RunManifest carries.
    os << ", \"metrics\": {\n";
    obs::write_metric_sections(os, m.telemetry, "      ");
    os << "}";
    os << "}" << (i + 1 < workload_metrics.size() ? "," : "") << "\n";
  }
  os << "  ],\n";
  os << "  \"sweeps\": [\n";
  for (std::size_t i = 0; i < sweep_metrics.size(); ++i) {
    const auto& m = sweep_metrics[i];
    os << "    {\"name\": \"" << m.name << "\", "
       << "\"backend\": \"" << m.backend << "\", "
       << "\"scenarios\": " << m.scenarios << ", "
       << "\"jobs_effective\": " << m.jobs_effective << ", "
       << "\"jobs1_seconds\": " << json_num(m.jobs1_seconds) << ", "
       << "\"jobsN_seconds\": " << json_num(m.jobsN_seconds) << ", "
       << "\"wall_seconds\": " << json_num(m.wall_seconds) << ", "
       << "\"speedup\": " << json_num(m.speedup) << ", ";
    write_telemetry_block(os, m.telemetry);
    os << "}" << (i + 1 < sweep_metrics.size() ? "," : "") << "\n";
  }
  os << "  ]\n";
  os << "}\n";
  os.close();
  std::cerr << "wrote " << out_path << "\n";
  return 0;
}
