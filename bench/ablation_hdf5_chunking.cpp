// Ablation: HDF5 chunking (§IV-D.5 dataset-layout optimization). The
// paper attributes CosmoFlow's metadata storm to unchunked files; chunking
// amortizes the per-access metadata walk.
#include <cstdio>
#include <iostream>

#include "util/table.hpp"
#include "workloads/cosmoflow.hpp"

int main() {
  using namespace wasp;
  util::TablePrinter table(
      "Ablation — HDF5 chunking (CosmoFlow, 8 nodes, reduced set)");
  table.set_header({"layout", "job s", "io s", "meta ops", "meta time"});

  workloads::CosmoflowParams P;
  P.nodes = 8;
  P.procs_per_node = 4;
  P.files = 1024;
  P.gpu_per_file = sim::seconds(0.2);

  for (bool chunked : {false, true}) {
    advisor::RunConfig cfg;
    cfg.hdf5_chunk_size = chunked ? util::kMiB : 0;
    auto out = workloads::run(cluster::lassen(P.nodes),
                              workloads::make_cosmoflow(P), cfg);
    char job[32];
    char io[32];
    std::snprintf(job, sizeof(job), "%.1f", out.job_seconds);
    std::snprintf(io, sizeof(io), "%.1f",
                  out.profile.io_time_fraction * out.job_seconds);
    table.add_row({chunked ? "chunked (1MB)" : "contiguous", job, io,
                   std::to_string(out.profile.totals.meta_ops),
                   util::format_percent(
                       out.profile.totals.meta_time_fraction())});
  }
  table.print(std::cout);
  return 0;
}
