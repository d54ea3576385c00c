// wasp_advise — the storage system's side of the paper's vision: load a
// user-provided characterization YAML (from wasp_run or any other source)
// and print the configuration the storage system would set for itself.
//
//   wasp_advise <features.yaml>
//
// A file that cannot be read or parsed is diagnosed on stderr with exit
// status 1.
#include <iostream>

#include "advisor/rules.hpp"
#include "core/entities.hpp"
#include "util/error.hpp"

using namespace wasp;

namespace {

int run_main(int argc, char** argv) {
  if (argc != 2) {
    std::cerr << "usage: wasp_advise <features.yaml>\n";
    return 2;
  }
  const auto c = charz::load_yaml_file(argv[1]);
  std::cout << "workload: " << c.workload << "  (" << c.workflow.num_apps
            << " apps, " << util::format_bytes(c.workflow.io_amount)
            << " I/O, " << c.job.nodes << " nodes)\n\n";

  advisor::RuleEngine rules;
  const auto recs = rules.evaluate(c);
  std::cout << advisor::RuleEngine::report(recs);

  const auto cfg = advisor::RuleEngine::configure(recs);
  std::cout << "\nresulting storage configuration:\n"
            << "  stdio_buffer            = "
            << util::format_bytes(cfg.stdio_buffer) << "\n"
            << "  mpiio.cb_buffer         = "
            << util::format_bytes(cfg.mpiio.cb_buffer) << "\n"
            << "  hdf5_chunk_size         = "
            << (cfg.hdf5_chunk_size > 0
                    ? util::format_bytes(cfg.hdf5_chunk_size)
                    : "off")
            << "\n"
            << "  preload_input           = "
            << (cfg.preload_input_to_node_local ? cfg.node_local_tier : "off")
            << "\n"
            << "  intermediates           = "
            << (cfg.intermediates_to_node_local ? cfg.node_local_tier
                                                : "PFS")
            << "\n"
            << "  locality_placement      = "
            << (cfg.locality_aware_placement ? "true" : "false") << "\n"
            << "  async_checkpoint_drain  = "
            << (cfg.async_checkpoint_drain ? "true" : "false") << "\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run_main(argc, argv);
  } catch (const util::SimError& e) {
    std::cerr << "wasp_advise: " << e.what() << "\n";
    return 1;
  }
}
