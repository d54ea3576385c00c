// Workflow study (Montage-style): build a custom DAG, run it under the
// pegasus-mpi-cluster-style scheduler, persist the Recorder-style trace
// log, re-analyze it from disk, and apply the workflow optimizations
// (§V-B + §IV-D.4).
//
// Build & run:  ./build/examples/example_montage_workflow
#include <cstdio>
#include <iostream>

#include "advisor/rules.hpp"
#include "analysis/analyzer.hpp"
#include "core/characterizer.hpp"
#include "io/stdio.hpp"
#include "trace/log_io.hpp"
#include "workflow/dag.hpp"
#include "workloads/montage_mpi.hpp"

using namespace wasp;

namespace {

// A small map/reduce-style image pipeline expressed as a DAG.
workflow::Dag build_pipeline(int width) {
  workflow::Dag dag;
  std::vector<int> mappers;
  for (int i = 0; i < width; ++i) {
    workflow::TaskSpec t;
    t.app = "transform";
    t.body = [i](runtime::Proc& p) -> sim::Task<void> {
      io::Stdio stdio(p, 4 * util::kKiB);
      auto out = co_await stdio.fopen(
          "/p/gpfs1/pipe/chunk_" + std::to_string(i), io::OpenMode::kWrite);
      co_await stdio.fwrite(out, 4 * util::kKiB, 512);  // 2MiB, small ops
      co_await stdio.fclose(out);
      co_await p.compute(sim::seconds(0.5));
    };
    mappers.push_back(dag.add_task(std::move(t)));
  }
  workflow::TaskSpec reduce;
  reduce.app = "combine";
  reduce.body = [width](runtime::Proc& p) -> sim::Task<void> {
    io::Stdio stdio(p, 4 * util::kKiB);
    for (int i = 0; i < width; ++i) {
      auto in = co_await stdio.fopen(
          "/p/gpfs1/pipe/chunk_" + std::to_string(i), io::OpenMode::kRead);
      co_await stdio.fread(in, 4 * util::kKiB, 512);
      co_await stdio.fclose(in);
    }
    co_await p.compute(sim::seconds(1));
    auto out = co_await stdio.fopen("/p/gpfs1/pipe/result",
                                    io::OpenMode::kWrite);
    co_await stdio.fwrite(out, 64 * util::kKiB, 32);
    co_await stdio.fclose(out);
  };
  const int r = dag.add_task(std::move(reduce));
  for (int m : mappers) dag.add_dependency(r, m);
  return dag;
}

}  // namespace

int main() {
  // --- Part 1: a custom DAG under the Pegasus-style scheduler -----------
  runtime::Simulation sim(cluster::lassen(4));
  auto dag = build_pipeline(/*width=*/24);
  workflow::PegasusScheduler::Options opts;
  opts.slots = 16;
  opts.nodes = 4;
  workflow::PegasusScheduler sched(sim, opts);
  auto& tracer = sim.tracer();
  sim.engine().spawn(sched.run(dag, [&tracer](const std::string& name) {
    return tracer.register_app(name);
  }));
  sim.engine().run();
  std::cout << "pipeline: " << sched.tasks_executed() << " tasks in "
            << util::format_seconds(sim::to_seconds(sim.engine().now()))
            << " on " << opts.slots << " worker slots\n";

  // --- Part 2: persist the Recorder-style log and re-analyze ------------
  const std::string log_path = "/tmp/wasp_pipeline.wtrc";
  trace::write_log(log_path, sim.tracer());
  trace::LogReader reader(log_path);
  analysis::ColumnStore store;
  analysis::load_log(reader, store);
  std::cout << "trace log: " << store.size() << " records, "
            << reader.header().apps.size() << " apps written to " << log_path
            << "\n";

  analysis::Analyzer analyzer;
  auto profile = analyzer.analyze(analysis::log_input(reader.header(), store));
  charz::WorkloadDecl decl;
  decl.name = "pipeline";
  charz::Characterizer characterizer;
  auto charz_out = characterizer.characterize(decl, sim.spec(), profile);
  std::cout << "\nworkflow dataflow edges: " << profile.app_edges.size()
            << ", data-op share "
            << util::format_percent(profile.totals.data_op_fraction())
            << "\n";
  std::remove(log_path.c_str());

  // --- Part 3: the paper's Montage case study at reduced scale ----------
  workloads::MontageMpiParams P = workloads::MontageMpiParams::test();
  P.nodes = 4;
  auto base = workloads::run(cluster::lassen(4),
                             workloads::make_montage_mpi(P));
  auto cfg = advisor::RuleEngine::configure(base.recommendations);
  auto opt = workloads::run(cluster::lassen(4),
                            workloads::make_montage_mpi(P), cfg);
  std::cout << "\nMontage-MPI (4 nodes):\n  baseline  I/O "
            << util::format_seconds(base.profile.io_time_fraction *
                                    base.job_seconds)
            << "\n  optimized I/O "
            << util::format_seconds(opt.profile.io_time_fraction *
                                    opt.job_seconds)
            << "  (intermediates on "
            << (cfg.intermediates_to_node_local ? "/dev/shm" : "GPFS")
            << ")\n";
  return 0;
}
