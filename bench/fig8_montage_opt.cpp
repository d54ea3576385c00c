// Figure 8: optimizing Montage (MPI) with workload attributes.
//
// Baseline (B): intermediate files (projected images, mosaic segments,
// shrunk overviews) on GPFS with <4KB-32KB transfers. Optimized (O): the
// advisor's "intermediates-node-local" rule redirects them to /dev/shm and
// places consumers with producers. Strong scaling 32..256 nodes, the
// baseline and optimized halves each fanned out across --jobs workers.
//
// Paper: baseline improves 1.35x-1.5x per doubling; the shm redirection
// improves I/O 3.9x (small scale) to 8x (256 nodes).
#include <cstdio>
#include <iostream>

#include "bench_util.hpp"
#include "util/table.hpp"
#include "workloads/montage_mpi.hpp"

namespace {

wasp::workloads::MontageMpiParams params_for(int nodes) {
  using namespace wasp;
  workloads::MontageMpiParams P = workloads::MontageMpiParams::paper();
  // Strong scaling: total survey size fixed, split across more nodes.
  P.nodes = nodes;
  P.projected_per_node = P.projected_per_node * 32 / nodes;
  P.mosaic_per_node = P.mosaic_per_node * 32 / nodes;
  P.png_per_node = P.png_per_node * 32 / nodes;
  return P;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace wasp;
  const int jobs = benchutil::init_jobs(argc, argv);
  util::TablePrinter table(
      "Figure 8 — Montage-MPI baseline (B) vs shm-intermediates (O)");
  table.set_header({"nodes", "B job s", "B io s", "O job s", "O io s",
                    "io speedup", "paper speedup"});

  const std::vector<int> node_counts = {32, 64, 128, 256};
  std::vector<workloads::Scenario> base_scenarios;
  for (int nodes : node_counts) {
    const auto P = params_for(nodes);
    base_scenarios.push_back({"montage-base-" + std::to_string(nodes),
                              cluster::lassen(nodes),
                              [P] { return workloads::make_montage_mpi(P); },
                              advisor::RunConfig{},
                              analysis::Analyzer::Options{}});
  }
  const auto bases = workloads::run_many(base_scenarios, jobs);

  std::vector<workloads::Scenario> opt_scenarios;
  for (std::size_t i = 0; i < node_counts.size(); ++i) {
    const int nodes = node_counts[i];
    const auto P = params_for(nodes);
    opt_scenarios.push_back(
        {"montage-opt-" + std::to_string(nodes), cluster::lassen(nodes),
         [P] { return workloads::make_montage_mpi(P); },
         advisor::RuleEngine::configure(bases[i].recommendations),
         analysis::Analyzer::Options{}});
  }
  const auto opts = workloads::run_many(opt_scenarios, jobs);

  const double paper_speedup[] = {3.9, 5.0, 6.4, 8.0};
  for (std::size_t i = 0; i < node_counts.size(); ++i) {
    const auto& base = bases[i];
    const auto& opt = opts[i];
    const double b_io = base.profile.io_time_fraction * base.job_seconds;
    const double o_io = opt.profile.io_time_fraction * opt.job_seconds;
    char buf[64];
    auto f = [&buf](double v) {
      std::snprintf(buf, sizeof(buf), "%.4g", v);
      return std::string(buf);
    };
    table.add_row({std::to_string(node_counts[i]), f(base.job_seconds),
                   f(b_io), f(opt.job_seconds), f(o_io), f(b_io / o_io),
                   f(paper_speedup[i])});
  }
  table.print(std::cout);
  std::cout << "\npaper band: 3.9x .. 8x, baseline improving 1.35-1.5x per "
               "doubling\n";
  return 0;
}
