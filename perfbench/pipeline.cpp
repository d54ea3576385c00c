#include "pipeline.hpp"

#include <algorithm>
#include <array>
#include <exception>
#include <filesystem>
#include <functional>
#include <optional>

#include "analysis/analyzer.hpp"
#include "analysis/spill_store.hpp"
#include "cluster/spec.hpp"
#include "core/characterizer.hpp"
#include "pattern/replayer.hpp"
#include "runtime/scenario_runner.hpp"
#include "runtime/simulation.hpp"
#include "trace/log_io.hpp"
#include "workloads/cosmoflow.hpp"
#include "workloads/montage_mpi.hpp"
#include "workloads/montage_pegasus.hpp"

namespace perfbench {
namespace {

using namespace wasp;

std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

/// Writes the workload seed into every lane-group and DAG-stage rng seed of
/// a compiled pattern, so the program receives only the generated pattern.
/// Seed 0 keeps the compilers' own seeds (today's traces, byte for byte).
void seed_pattern(pattern::JobPattern& pat, std::uint64_t seed) {
  if (seed == 0) return;
  std::uint64_t stream = 0;
  for (auto& g : pat.groups) g.rng_seed = splitmix64(seed + stream++);
  for (auto& st : pat.dag.stages) st.rng_seed = splitmix64(seed + stream++);
}

analysis::Analyzer::Options analyzer_options() {
  analysis::Analyzer::Options o;
  o.jobs = 1;
  return o;
}

/// Untraced staging, then compile, seed, replay and the traced job: the
/// simulate half of workloads::run_with.
void simulate(runtime::Simulation& sim, const workloads::Workload& w,
              const advisor::RunConfig& cfg, std::uint64_t seed, Sample& s) {
  if (w.setup) {
    Layer l(s, "runtime.stage_s", "runtime.stage");
    sim.tracer().set_enabled(false);
    sim.engine().spawn(w.setup(sim));
    sim.engine().run();
    sim.tracer().set_enabled(true);
    sim.pfs().drop_client_caches();
  }
  pattern::JobPattern pat;
  {
    Layer l(s, "pattern.compile_s", "pattern.compile");
    pat = w.compile(sim, cfg);
    seed_pattern(pat, seed);
  }
  {
    Layer l(s, "pattern.spawn_s", "pattern.spawn");
    pattern::replay(sim, pat);
  }
  {
    Layer l(s, "sim.run_s", "sim.run");
    sim.engine().run();
  }
  if (!sim.engine().all_roots_done()) {
    throw std::runtime_error("workload deadlocked (roots not done)");
  }
}

/// Characterize + advise: the finish half of workloads::run_with.
void characterize(const workloads::Workload& w,
                  const cluster::ClusterSpec& spec,
                  const analysis::WorkloadProfile& profile, JobResult& r) {
  {
    Layer l(r.sample, "core.characterize_s", "core.characterize");
    r.characterization =
        charz::Characterizer().characterize(w.decl, spec, profile);
  }
  {
    Layer l(r.sample, "advisor.evaluate_s", "advisor.evaluate");
    r.recommendations = advisor::RuleEngine().evaluate(r.characterization);
  }
  r.job_seconds = profile.job_runtime_sec;
  r.sample["advisor.recommendations"] +=
      static_cast<double>(r.recommendations.size());
}

void count_fs(const fs::FileSystemSim& f, Sample& s) {
  const std::string p = "fs." + f.name() + ".";
  const fs::FsCounters& c = f.counters();
  s[p + "meta_ops"] += static_cast<double>(c.meta_ops);
  s[p + "data_ops"] += static_cast<double>(c.data_ops);
  s[p + "bytes_read"] += static_cast<double>(c.bytes_read);
  s[p + "bytes_written"] += static_cast<double>(c.bytes_written);
  s[p + "cache_hits"] += static_cast<double>(c.cache_hits);
}

void count_profile(const analysis::WorkloadProfile& p, Sample& s) {
  s["io.data_ops"] += static_cast<double>(p.totals.data_ops());
  s["io.meta_ops"] += static_cast<double>(p.totals.meta_ops);
  s["io.bytes"] += static_cast<double>(p.totals.io_bytes());
}

void count_spill(const analysis::IoStats& io, Sample& s) {
  s["analysis.chunk_loads"] += static_cast<double>(io.chunk_loads);
  s["analysis.cache_hits"] += static_cast<double>(io.cache_hits);
  s["analysis.chunk_requests"] +=
      static_cast<double>(io.chunk_loads + io.cache_hits);
  s["analysis.evictions"] += static_cast<double>(io.evictions);
  s["analysis.prefetch_issued"] += static_cast<double>(io.prefetch_issued);
  s["analysis.prefetch_hits"] += static_cast<double>(io.prefetch_hits);
  s["analysis.spill_raw_bytes"] += static_cast<double>(io.raw_bytes);
  s["analysis.spill_bytes_written"] += static_cast<double>(io.bytes_written);
  s["analysis.spill_bytes_read"] += static_cast<double>(io.bytes_read);
}

/// Layer counts of a finished simulation, from the layers' public
/// accessors. Called only while timing is on.
void count_layers(runtime::Simulation& sim,
                  const analysis::WorkloadProfile& profile, Sample& s) {
  Layer l(s, "bench.collect_s", "bench.collect");
  s["sim.events"] += static_cast<double>(sim.engine().events_processed());
  s["trace.rows"] += static_cast<double>(sim.tracer().total_records());
  std::array<std::uint64_t, kNumIfaces> rows{};
  for (const trace::Record& r : sim.tracer().records()) {
    ++rows[static_cast<std::size_t>(r.iface)];
  }
  for (int i = 0; i < kNumIfaces; ++i) {
    s[iface_rows_metric(static_cast<trace::Iface>(i))] +=
        static_cast<double>(rows[static_cast<std::size_t>(i)]);
  }
  count_fs(sim.pfs(), s);
  for (const auto& tier : sim.spec().node_local) {
    count_fs(sim.node_local(tier.name), s);
  }
  count_profile(profile, s);
}

/// One full pipeline on a fresh Simulation, as workloads::run() does it.
/// With `keep` the Simulation is handed back instead of torn down.
JobResult run_job(const std::string& slot, const cluster::ClusterSpec& spec,
                  const workloads::Workload& w, const advisor::RunConfig& cfg,
                  std::uint64_t seed,
                  std::unique_ptr<runtime::Simulation>* keep = nullptr) {
  JobResult r;
  r.slot = slot;
  try {
    std::unique_ptr<runtime::Simulation> sim;
    {
      Layer l(r.sample, "runtime.simulation_s", "runtime.simulation");
      sim = std::make_unique<runtime::Simulation>(spec);
    }
    simulate(*sim, w, cfg, seed, r.sample);
    analysis::WorkloadProfile profile;
    {
      Layer l(r.sample, "analysis.analyze_s", "analysis.analyze");
      profile = analysis::Analyzer(analyzer_options()).analyze(sim->tracer());
    }
    characterize(w, spec, profile, r);
    r.engine_events = sim->engine().events_processed();
    r.trace_rows = sim->tracer().total_records();
    if (timing()) count_layers(*sim, profile, r.sample);
    if (keep != nullptr) {
      *keep = std::move(sim);
      return r;
    }
    Layer l(r.sample, "runtime.teardown_s", "runtime.teardown");
    sim.reset();
    profile = analysis::WorkloadProfile{};
  } catch (const std::exception& e) {
    r.error = e.what();
  }
  return r;
}

// ---- cosmoflow-paper -----------------------------------------------------

/// Paper-scale CosmoFlow on 32 Lassen nodes, in-memory trace store.
class CosmoflowPaper final : public Workload {
 public:
  explicit CosmoflowPaper(const Options& o) : seed_(o.seed) {}
  int threads() const override { return 1; }
  std::vector<std::string> spans() const override {
    return {"iteration",         "runtime.simulation", "runtime.stage",
            "pattern.compile",   "pattern.spawn",      "sim.run",
            "analysis.analyze",  "core.characterize",  "advisor.evaluate",
            "runtime.teardown"};
  }
  Iteration setup() override {
    workload_ = workloads::make_cosmoflow(workloads::CosmoflowParams::paper());
    return iterate();
  }
  Iteration iterate() override {
    Iteration it;
    it.runs.push_back(
        run_job("cosmoflow-paper", spec_, workload_, {}, seed_));
    it.sample = it.runs.back().sample;
    return it;
  }

 private:
  std::uint64_t seed_;
  cluster::ClusterSpec spec_ = cluster::lassen(32);
  workloads::Workload workload_;
};

// ---- offline-spill -------------------------------------------------------

/// Recorder-style offline characterization: the paper-scale CosmoFlow trace,
/// simulated once at set-up, is written as a log, streamed back into a
/// compressed spill store and analyzed over it every iteration.
class OfflineSpill final : public Workload {
 public:
  explicit OfflineSpill(const Options& o)
      : seed_(o.seed),
        log_path_(o.work_dir + "/trace.wtrc"),
        spill_dir_(o.work_dir + "/spill") {}
  /// The spill store's prefetch thread runs beside the main thread.
  int threads() const override { return 2; }
  std::vector<std::string> spans() const override {
    return {"iteration",           "trace.log_write",
            "trace.log_read",      "analysis.spill_append",
            "analysis.spill_finalize", "analysis.analyze",
            "core.characterize",   "advisor.evaluate",
            "runtime.teardown"};
  }

  Iteration setup() override {
    source_.reset();
    workload_ = workloads::make_cosmoflow(workloads::CosmoflowParams::paper());
    Iteration it;
    it.runs.push_back(run_job(kSlot, spec_, workload_, {}, seed_, &source_));
    it.sample = it.runs.back().sample;
    if (source_ != nullptr) {
      source_events_ = it.runs.back().engine_events;
      expected_yaml_ = it.runs.back().characterization.to_yaml();
      Iteration warm = iterate();
      accumulate(it.sample, warm.sample);
      for (JobResult& r : warm.runs) it.runs.push_back(std::move(r));
    }
    return it;
  }

  Iteration iterate() override {
    Iteration it;
    JobResult r;
    r.slot = kSlot;
    Sample& s = r.sample;
    try {
      if (source_ == nullptr) throw std::runtime_error("no source trace");
      {
        Layer l(s, "trace.log_write_s", "trace.log_write");
        trace::write_log(log_path_, source_->tracer());
      }
      std::unique_ptr<analysis::SpillColumnStore> store;
      std::optional<trace::LogReader> reader;
      {
        Layer l(s, "trace.log_read_s", "trace.log_read");
        reader.emplace(log_path_);
      }
      {
        Layer l(s, "analysis.spill_append_s", "analysis.spill_append");
        analysis::SpillColumnStore::Options so;
        so.dir = spill_dir_;
        store = std::make_unique<analysis::SpillColumnStore>(so);
      }
      std::vector<trace::Record> records;
      std::vector<std::uint32_t> path_idx;
      std::vector<std::uint64_t> file_sizes;
      for (;;) {
        std::size_t n = 0;
        {
          Layer l(s, "trace.log_read_s", "trace.log_read");
          n = reader->next_chunk(store->chunk_rows(), records, path_idx,
                                 file_sizes);
        }
        if (n == 0) break;
        Layer l(s, "analysis.spill_append_s", "analysis.spill_append");
        store->append(records, path_idx, file_sizes);
        records.clear();
        path_idx.clear();
        file_sizes.clear();
      }
      {
        Layer l(s, "analysis.spill_finalize_s", "analysis.spill_finalize");
        store->finalize();
      }
      const trace::LogHeader& h = reader->header();
      analysis::TraceInput input;
      input.store = store.get();
      input.app_names = h.apps;
      input.path_at = [&h, &store](std::size_t i) {
        return h.path_table.empty() ? std::string()
                                    : h.path_table[store->path_idx_at(i)];
      };
      input.size_at = [&store](std::size_t i) {
        return store->file_size_at(i);
      };
      input.fs_shared = [&h](std::int16_t idx) {
        const auto u = static_cast<std::size_t>(idx);
        return u >= h.fs_shared.size() || h.fs_shared[u];
      };
      analysis::WorkloadProfile profile;
      {
        Layer l(s, "analysis.analyze_s", "analysis.analyze");
        profile = analysis::Analyzer(analyzer_options()).analyze(input);
      }
      characterize(workload_, spec_, profile, r);
      r.engine_events = source_events_;
      r.trace_rows = store->size();
      if (timing()) {
        s["trace.rows"] += static_cast<double>(store->size());
        s["trace.log_bytes"] +=
            static_cast<double>(std::filesystem::file_size(log_path_));
        count_profile(profile, s);
        count_spill(store->io_stats(), s);
      }
      Layer l(s, "runtime.teardown_s", "runtime.teardown");
      store.reset();
      reader.reset();
      std::filesystem::remove(log_path_);
      profile = analysis::WorkloadProfile{};
    } catch (const std::exception& e) {
      r.error = e.what();
      std::error_code ec;
      std::filesystem::remove(log_path_, ec);
    }
    it.sample = r.sample;
    it.runs.push_back(std::move(r));
    return it;
  }

  std::string expected_yaml(const std::string& slot) const override {
    return slot == kSlot ? expected_yaml_ : std::string();
  }

 private:
  static constexpr const char* kSlot = "cosmoflow-paper";

  std::uint64_t seed_;
  std::string log_path_;
  std::string spill_dir_;
  cluster::ClusterSpec spec_ = cluster::lassen(32);
  workloads::Workload workload_;
  std::unique_ptr<runtime::Simulation> source_;
  std::uint64_t source_events_ = 0;
  std::string expected_yaml_;
};

// ---- montage-whatif ------------------------------------------------------

/// The Fig. 8 advisor loop on both Montage variants: a baseline wave of five
/// scenarios, then the same five under RuleEngine::configure of their own
/// recommendations, each wave on a 2-worker ScenarioRunner.
class MontageWhatif final : public Workload {
 public:
  explicit MontageWhatif(const Options& o) : seed_(o.seed) {}
  int threads() const override { return kWorkers; }
  int workers() const override { return kWorkers; }
  std::vector<std::string> spans() const override {
    return {"iteration",          "runtime.wave",     "scenario",
            "runtime.simulation", "runtime.stage",    "pattern.compile",
            "pattern.spawn",      "sim.run",          "analysis.analyze",
            "core.characterize",  "advisor.evaluate", "advisor.configure",
            "runtime.teardown"};
  }

  Iteration setup() override {
    scenarios_.clear();
    // Largest first (Pegasus, then Montage-MPI by falling node count), so
    // the two workers' loads even out whichever scenarios they claim.
    scenarios_.push_back(
        {"montage-pegasus-32", cluster::lassen(32), true, [] {
           return workloads::make_montage_pegasus(
               workloads::MontagePegasusParams::paper());
         }});
    for (int nodes : {256, 128, 64, 32}) {
      auto p = workloads::MontageMpiParams::paper();
      // Strong scaling as bench/fig8_montage_opt.cpp does it: the survey
      // size is fixed and split across more nodes.
      p.nodes = nodes;
      p.projected_per_node = p.projected_per_node * 32 / nodes;
      p.mosaic_per_node = p.mosaic_per_node * 32 / nodes;
      p.png_per_node = p.png_per_node * 32 / nodes;
      scenarios_.push_back({"montage-mpi-" + std::to_string(nodes),
                            cluster::lassen(nodes), false,
                            [p] { return workloads::make_montage_mpi(p); }});
    }
    return iterate();
  }

  Iteration iterate() override {
    Iteration it;
    std::vector<JobResult> base =
        wave(it.sample, std::vector<advisor::RunConfig>(scenarios_.size()),
             "base");
    std::vector<advisor::RunConfig> advised;
    {
      Layer l(it.sample, "advisor.configure_s", "advisor.configure");
      for (const JobResult& b : base) {
        advised.push_back(advisor::RuleEngine::configure(b.recommendations));
      }
    }
    std::vector<JobResult> opt = wave(it.sample, advised, "advised");
    for (auto* runs : {&base, &opt}) {
      for (JobResult& r : *runs) {
        accumulate(it.sample, r.sample);
        it.runs.push_back(std::move(r));
      }
    }
    return it;
  }

 private:
  static constexpr int kWorkers = 2;

  struct Scenario {
    std::string name;
    cluster::ClusterSpec spec;
    bool workflow;  ///< runs the Pegasus workflow scheduler
    std::function<workloads::Workload()> make;
  };

  /// Runs every scenario under cfgs[i] on the runner; the per-scenario
  /// runner metrics go into the runs' samples, the wave's wall time and the
  /// largest scenario time into `s`.
  std::vector<JobResult> wave(Sample& s,
                              const std::vector<advisor::RunConfig>& cfgs,
                              const std::string& tag) {
    const double wave_t0 = timing() ? now_s() : 0.0;
    std::vector<std::function<JobResult()>> fns;
    for (std::size_t i = 0; i < scenarios_.size(); ++i) {
      fns.push_back([this, &cfgs, &tag, i, wave_t0] {
        const double t0 = timing() ? now_s() : 0.0;
        obs::Span span("scenario");
        const Scenario& sc = scenarios_[i];
        JobResult r =
            run_job(sc.name + "-" + tag, sc.spec, sc.make(), cfgs[i], seed_);
        if (timing()) {
          r.sample["runtime.queue_wait_s"] += t0 - wave_t0;
          r.sample["runtime.scenario_busy_s"] += now_s() - t0;
          if (sc.workflow) r.sample["workflow.run_s"] += r.sample["sim.run_s"];
        }
        return r;
      });
    }
    std::vector<JobResult> out;
    {
      Layer l(s, "runtime.wave_s", "runtime.wave");
      out = runner_.run<JobResult>(fns);
    }
    for (const JobResult& r : out) {
      const auto busy = r.sample.find("runtime.scenario_busy_s");
      if (busy != r.sample.end()) {
        double& mx = s["runtime.scenario_max_s"];
        mx = std::max(mx, busy->second);
      }
    }
    return out;
  }

  std::uint64_t seed_;
  runtime::ScenarioRunner runner_{kWorkers};
  std::vector<Scenario> scenarios_;
};

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {
      "cosmoflow-paper", "offline-spill", "montage-whatif"};
  return names;
}

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        const Options& opts) {
  if (name == "cosmoflow-paper") return std::make_unique<CosmoflowPaper>(opts);
  if (name == "offline-spill") return std::make_unique<OfflineSpill>(opts);
  if (name == "montage-whatif") return std::make_unique<MontageWhatif>(opts);
  return nullptr;
}

}  // namespace perfbench
