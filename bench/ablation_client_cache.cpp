// Ablation: the client page cache behind Montage's write-then-read
// bandwidth spikes (§IV-A.5: "600-1300MB/s ... because of some buffering
// effects of the client nodes where data was written and immediately read").
// With the cache disabled, the intermediate-file reuse spikes vanish and
// I/O time grows. The cache is storage state: the disabled cell sets
// PfsSpec::client_cache_bytes to 0 on its cluster spec.
#include <algorithm>
#include <cstdio>

#include "bench_util.hpp"
#include "sweep.hpp"
#include "workloads/montage_mpi.hpp"

int main(int argc, char** argv) {
  using namespace wasp;
  const int jobs = benchutil::init_jobs(argc, argv);

  struct Cell {
    bool cache;
  };
  benchutil::Sweep<Cell> sweep;
  sweep.title = "Ablation — GPFS client page cache (Montage MPI)";
  sweep.header = {"client cache", "job s", "io s", "cache hits",
                  "peak read bw"};
  sweep.cells = {{true}, {false}};
  sweep.scenario = [](const Cell& cell) {
    workloads::Scenario s;
    s.name = cell.cache ? "client-cache-on" : "client-cache-off";
    s.spec = cluster::lassen(32);
    if (!cell.cache) s.spec.pfs.client_cache_bytes = 0;
    s.make = [] {
      return workloads::make_montage_mpi(
          workloads::MontageMpiParams::paper());
    };
    return s;
  };
  sweep.row = [](const Cell& cell, const workloads::RunOutput& out) {
    double peak = 0;
    for (double v : out.profile.timeline.read_bps) peak = std::max(peak, v);
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.1f", out.job_seconds);
    char buf2[32];
    std::snprintf(buf2, sizeof(buf2), "%.1f",
                  out.profile.io_time_fraction * out.job_seconds);
    return std::vector<std::string>{
        cell.cache ? "enabled" : "disabled", buf, buf2,
        std::to_string(out.pfs_counters.cache_hits),
        util::format_rate(peak)};
  };
  benchutil::run_sweep(sweep, jobs);
  return 0;
}
