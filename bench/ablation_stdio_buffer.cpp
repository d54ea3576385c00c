// Ablation: STDIO stream-buffer size on a small-transfer workload (the
// knob the advisor's "stdio-buffer" rule turns, §IV-D.1 buffering). Each
// buffer size is an independent simulation, fanned out cell-parallel by
// the shared sweep driver; PFS data-op counts ride along in the
// RunOutput's filesystem counters.
#include <cstdio>

#include "bench_util.hpp"
#include "sweep.hpp"
#include "workloads/workload.hpp"

namespace {

using namespace wasp;

/// 16 ranks each write, then read back, a private 16MiB file in 512B
/// STDIO ops through a `buffer`-sized stream buffer.
pattern::JobPattern stdio_pattern(int nodes, util::Bytes buffer) {
  namespace po = pattern::ops;
  using pattern::Expr;
  using pattern::Layer;
  pattern::JobPattern pat;
  pat.name = "stdio-buffer-ablation";
  pat.apps = {"ab"};
  pat.comms.push_back({"world", 16, nodes, false});
  pattern::LaneGroup g;
  g.comm = "world";
  g.stdio_buffer = buffer;
  pattern::PhasePattern ph;
  ph.app = "ab";
  const std::string path = "/p/gpfs1/ab/f{rank}";
  ph.ops.push_back(po::open(Layer::kStdio, "f", path, io::OpenMode::kWrite));
  ph.ops.push_back(po::write(Layer::kStdio, "f", Expr::lit(512),
                             Expr::lit(32768)));  // 16MiB in 512B ops
  ph.ops.push_back(po::close(Layer::kStdio, "f"));
  ph.ops.push_back(po::open(Layer::kStdio, "g", path, io::OpenMode::kRead));
  ph.ops.push_back(
      po::read(Layer::kStdio, "g", Expr::lit(512), Expr::lit(32768)));
  ph.ops.push_back(po::close(Layer::kStdio, "g"));
  g.phases.push_back(std::move(ph));
  pat.groups.push_back(std::move(g));
  return pat;
}

workloads::Workload stdio_workload(util::Bytes buffer) {
  workloads::Workload w;
  w.decl.name = "stdio-buffer-ablation";
  w.compile = [buffer](runtime::Simulation& sim, const advisor::RunConfig&) {
    return stdio_pattern(sim.spec().nodes, buffer);
  };
  return w;
}

}  // namespace

int main(int argc, char** argv) {
  const int jobs = benchutil::init_jobs(argc, argv);

  struct Cell {
    util::Bytes buffer;
  };
  benchutil::Sweep<Cell> sweep;
  sweep.title = "Ablation — STDIO buffer size (16 ranks x 16MiB in 512B user ops)";
  sweep.header = {"buffer", "job s", "PFS data ops", "effective bw"};
  for (util::Bytes buffer :
       {util::kKiB, 4 * util::kKiB, 64 * util::kKiB, util::kMiB}) {
    sweep.cells.push_back({buffer});
  }
  sweep.scenario = [](const Cell& cell) {
    workloads::Scenario s;
    s.name = "stdio-buf-" + util::format_bytes(cell.buffer);
    s.spec = cluster::lassen(4);
    s.make = [buffer = cell.buffer] { return stdio_workload(buffer); };
    return s;
  };
  sweep.row = [](const Cell& cell, const workloads::RunOutput& out) {
    const double sec = out.job_seconds;
    const double bytes = 2.0 * 16 * 16 * 1024 * 1024;
    char job[32];
    std::snprintf(job, sizeof(job), "%.2f", sec);
    return std::vector<std::string>{
        util::format_bytes(cell.buffer), job,
        std::to_string(out.pfs_counters.data_ops),
        util::format_rate(bytes / sec)};
  };
  benchutil::run_sweep(sweep, jobs);
  return 0;
}
