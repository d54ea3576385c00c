// Ablation: PFS striping (the Lustre-style tuning of §IV-D.3). For a single
// uncontended writer, the stripe fan-out bounds how many data servers one
// stream can drive in parallel; under full-job contention the aggregate
// capacity dominates and striping stops mattering — which is why the
// advisor's stripe rule keys on per-file granularity, not on job scale.
// Each (stripe size, stripe count) cell is an independent simulation,
// fanned out cell-parallel by the shared sweep driver.
#include <cstdio>

#include "bench_util.hpp"
#include "sweep.hpp"
#include "workloads/workload.hpp"

namespace {

using namespace wasp;

constexpr util::Bytes kTotal = 4 * util::kGiB;
constexpr util::Bytes kTransfer = 64 * util::kMiB;

/// One rank on one node writes kTotal in kTransfer POSIX writes.
pattern::JobPattern lone_writer_pattern() {
  namespace po = pattern::ops;
  using pattern::Expr;
  using pattern::Layer;
  pattern::JobPattern pat;
  pat.name = "stripe-ablation";
  pat.apps = {"w"};
  pat.comms.push_back({"world", 1, 1, false});
  pattern::LaneGroup g;
  g.comm = "world";
  pattern::PhasePattern ph;
  ph.app = "w";
  ph.ops.push_back(
      po::open(Layer::kPosix, "f", "/p/gpfs1/stripe_t", io::OpenMode::kWrite));
  ph.ops.push_back(
      po::write(Layer::kPosix, "f", Expr::lit(std::int64_t{kTransfer}),
                Expr::lit(std::int64_t{kTotal / kTransfer})));
  ph.ops.push_back(po::close(Layer::kPosix, "f"));
  g.phases.push_back(std::move(ph));
  pat.groups.push_back(std::move(g));
  return pat;
}

workloads::Workload lone_writer_workload() {
  workloads::Workload w;
  w.decl.name = "stripe-ablation";
  w.compile = [](runtime::Simulation&, const advisor::RunConfig&) {
    return lone_writer_pattern();
  };
  return w;
}

}  // namespace

int main(int argc, char** argv) {
  const int jobs = benchutil::init_jobs(argc, argv);

  struct Cell {
    util::Bytes stripe;
    int count;
  };
  benchutil::Sweep<Cell> sweep;
  sweep.title = "Ablation — striping for a single 4GiB writer (64MiB transfers)";
  sweep.header = {"stripe size", "stripe count", "write time", "effective bw"};
  for (util::Bytes stripe : {util::kMiB, 16 * util::kMiB}) {
    for (int count : {1, 2, 4, 8}) sweep.cells.push_back({stripe, count});
  }
  sweep.scenario = [](const Cell& cell) {
    workloads::Scenario s;
    s.name = "stripe-" + util::format_bytes(cell.stripe) + "-x" +
             std::to_string(cell.count);
    s.spec = cluster::lassen(4);
    s.spec.pfs.stripe_size = cell.stripe;
    s.spec.pfs.stripe_count = cell.count;
    s.make = lone_writer_workload;
    return s;
  };
  sweep.row = [](const Cell& cell, const workloads::RunOutput& out) {
    char t[32];
    std::snprintf(t, sizeof(t), "%.2fs", out.job_seconds);
    return std::vector<std::string>{
        util::format_bytes(cell.stripe), std::to_string(cell.count), t,
        util::format_rate(static_cast<double>(kTotal) / out.job_seconds)};
  };
  benchutil::run_sweep(sweep, jobs);
  return 0;
}
