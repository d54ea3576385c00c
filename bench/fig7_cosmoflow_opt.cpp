// Figure 7: optimizing CosmoFlow with workload attributes.
//
// Baseline (B): collective HDF5/MPI-IO reads of 49,664 small files straight
// from GPFS. Optimized (O): the advisor's "preload-input" rule stages each
// node's shard into /dev/shm first (MPIFileUtils-style parallel copy), then
// trains against node-local files. Strong scaling 32..256 nodes.
//
// The four baselines are independent simulations, as are the four optimized
// re-runs (each derived from its own baseline characterization), so each
// half of the sweep fans out across --jobs workers.
//
// Paper: sublinear baseline improvement (1.25x-1.4x per doubling) and an
// overall I/O speedup of 2.2x (32 nodes) to 4.6x (256 nodes).
#include <cstdio>
#include <iostream>

#include "bench_util.hpp"
#include "util/table.hpp"
#include "workloads/cosmoflow.hpp"

int main(int argc, char** argv) {
  using namespace wasp;
  const int jobs = benchutil::init_jobs(argc, argv);
  util::TablePrinter table(
      "Figure 7 — CosmoFlow baseline (B) vs shm-preload optimized (O)");
  table.set_header({"nodes", "B job s", "B io s", "O job s", "O io s",
                    "io speedup", "paper speedup"});

  const std::vector<int> node_counts = {32, 64, 128, 256};
  std::vector<workloads::Scenario> base_scenarios;
  for (int nodes : node_counts) {
    workloads::CosmoflowParams P = workloads::CosmoflowParams::paper();
    P.nodes = nodes;  // strong scaling: dataset fixed
    base_scenarios.push_back({"cosmoflow-base-" + std::to_string(nodes),
                              cluster::lassen(nodes),
                              [P] { return workloads::make_cosmoflow(P); },
                              advisor::RunConfig{},
                              analysis::Analyzer::Options{}});
  }
  const auto bases = workloads::run_many(base_scenarios, jobs);

  // The advisor derives the optimized configuration from the baseline
  // characterization — the paper's feedback loop.
  std::vector<workloads::Scenario> opt_scenarios;
  for (std::size_t i = 0; i < node_counts.size(); ++i) {
    const int nodes = node_counts[i];
    workloads::CosmoflowParams P = workloads::CosmoflowParams::paper();
    P.nodes = nodes;
    opt_scenarios.push_back(
        {"cosmoflow-opt-" + std::to_string(nodes), cluster::lassen(nodes),
         [P] { return workloads::make_cosmoflow(P); },
         advisor::RuleEngine::configure(bases[i].recommendations),
         analysis::Analyzer::Options{}});
  }
  const auto opts = workloads::run_many(opt_scenarios, jobs);

  const double paper_speedup[] = {2.2, 3.0, 3.8, 4.6};
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
  std::cout << "\npaper band: 2.2x (32 nodes) .. 4.6x (256 nodes), "
               "baseline improving 1.25-1.4x per doubling\n";
  return 0;
}
