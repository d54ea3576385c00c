// Quickstart: the full WASP pipeline on a small custom workload.
//
//   1. describe a cluster                (cluster::ClusterSpec)
//   2. describe a workload's I/O pattern (pattern::JobPattern)
//   3. run it traced                     (workloads::run)
//   4. characterize the I/O behavior     (entities/attributes -> YAML)
//   5. let the advisor reconfigure       (RuleEngine -> RunConfig)
//   6. re-run optimized and compare
//
// Build & run:  ./build/examples/example_quickstart
#include <iostream>

#include "advisor/rules.hpp"
#include "workloads/workload.hpp"

using namespace wasp;

namespace {

// A toy producer/consumer workflow: every rank writes a per-rank scratch
// file in tiny 512B STDIO transfers, then the next rank reads it back.
// The RunConfig's stdio_buffer is honored — which is exactly the knob the
// advisor's stdio-buffer rule turns.
pattern::JobPattern compile_demo(const advisor::RunConfig& cfg) {
  namespace po = pattern::ops;
  using pattern::Expr;
  using pattern::Layer;
  pattern::JobPattern pat;
  pat.name = "quickstart-demo";
  pat.apps = {"demo"};
  pat.comms.push_back({"world", /*procs=*/16, /*nodes=*/4, false});
  pattern::LaneGroup g;  // one lane (simulated process) per rank of "world"
  g.comm = "world";
  g.stdio_buffer = cfg.stdio_buffer;
  pattern::PhasePattern ph;
  ph.app = "demo";
  ph.ops.push_back(po::open(Layer::kStdio, "out", "/p/gpfs1/demo/part_{rank}",
                            io::OpenMode::kWrite));
  ph.ops.push_back(po::write(Layer::kStdio, "out", Expr::lit(512),
                             Expr::lit(16384)));  // 8MiB in 512B ops
  ph.ops.push_back(po::close(Layer::kStdio, "out"));
  ph.ops.push_back(po::barrier());
  ph.ops.push_back(po::open(Layer::kStdio, "in",
                            "/p/gpfs1/demo/part_{(rank + 1) % 16}",
                            io::OpenMode::kRead));
  ph.ops.push_back(
      po::read(Layer::kStdio, "in", Expr::lit(512), Expr::lit(16384)));
  ph.ops.push_back(po::close(Layer::kStdio, "in"));
  ph.ops.push_back(po::barrier());
  g.phases.push_back(std::move(ph));
  pat.groups.push_back(std::move(g));
  return pat;
}

workloads::Workload make_demo() {
  workloads::Workload w;
  w.decl.name = "quickstart-demo";
  w.decl.data_repr = "1D";
  w.decl.dataset_format = "bin";
  w.compile = [](runtime::Simulation&, const advisor::RunConfig& cfg) {
    return compile_demo(cfg);
  };
  return w;
}

}  // namespace

int main() {
  // 1-3: run the workload on a 4-node Lassen-like cluster.
  auto out = workloads::run(cluster::lassen(4), make_demo());

  std::cout << "=== measured profile ===\n"
            << "job time: " << util::format_seconds(out.job_seconds) << "\n"
            << "I/O: " << util::format_bytes(out.profile.totals.io_bytes())
            << " (" << out.profile.totals.read_ops << " reads, "
            << out.profile.totals.write_ops << " writes, "
            << out.profile.totals.meta_ops << " metadata ops)\n"
            << "I/O time share: "
            << util::format_percent(out.profile.io_time_fraction) << "\n\n";

  // 4: the entity/attribute characterization (Vani-style YAML).
  std::cout << "=== characterization (YAML) ===\n"
            << out.characterization.to_yaml() << "\n";

  // 5: advisor recommendations derived from those attributes.
  std::cout << "=== advisor ===\n"
            << advisor::RuleEngine::report(out.recommendations);

  // 6: run again with the storage system configured per the workload.
  auto cfg = advisor::RuleEngine::configure(out.recommendations);
  auto optimized = workloads::run(cluster::lassen(4), make_demo(), cfg);
  std::cout << "\nbaseline  I/O time: "
            << util::format_seconds(out.profile.io_time_fraction *
                                    out.job_seconds)
            << "\noptimized I/O time: "
            << util::format_seconds(optimized.profile.io_time_fraction *
                                    optimized.job_seconds)
            << "\n";
  return 0;
}
