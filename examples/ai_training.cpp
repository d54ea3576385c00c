// AI training pipeline study (CosmoFlow-style): demonstrates the paper's
// §V-A case end to end — characterize the metadata-bound baseline, let the
// rule engine derive the preload configuration, re-run optimized.
//
// Build & run:  ./build/examples/example_ai_training
#include <iostream>

#include "advisor/rules.hpp"
#include "workloads/cosmoflow.hpp"

using namespace wasp;

int main() {
  // A reduced CosmoFlow: paper-scale metadata storm (32 nodes hammering
  // the GPFS metadata path) but a smaller dataset so it runs in a second.
  workloads::CosmoflowParams P;
  P.nodes = 32;
  P.procs_per_node = 4;
  P.files = 6400;
  P.file_size = 32 * util::kMiB;
  P.gpu_per_file = sim::seconds(0.5);

  std::cout << "running baseline (HDF5/MPI-IO on GPFS)...\n";
  auto base = workloads::run(cluster::lassen(32), workloads::make_cosmoflow(P));
  std::cout << "  job " << util::format_seconds(base.job_seconds)
            << ", metadata time share "
            << util::format_percent(
                   base.profile.totals.meta_time_fraction())
            << ", I/O time "
            << util::format_seconds(base.profile.io_time_fraction *
                                    base.job_seconds)
            << "\n\n";

  std::cout << "advisor recommendations:\n"
            << advisor::RuleEngine::report(base.recommendations) << "\n";

  auto cfg = advisor::RuleEngine::configure(base.recommendations);
  std::cout << "running optimized (preload="
            << (cfg.preload_input_to_node_local ? "on" : "off")
            << ", hdf5 chunking=" << (cfg.hdf5_chunk_size > 0 ? "on" : "off")
            << ")...\n";
  auto opt = workloads::run(cluster::lassen(32), workloads::make_cosmoflow(P),
                            cfg);
  std::cout << "  job " << util::format_seconds(opt.job_seconds)
            << ", I/O time "
            << util::format_seconds(opt.profile.io_time_fraction *
                                    opt.job_seconds)
            << "\n\n";

  const double speedup = (base.profile.io_time_fraction * base.job_seconds) /
                         (opt.profile.io_time_fraction * opt.job_seconds);
  std::cout << "I/O speedup from workload-aware reconfiguration: "
            << static_cast<int>(speedup * 10 + 0.5) / 10.0 << "x\n";
  return 0;
}
