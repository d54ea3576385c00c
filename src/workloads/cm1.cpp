#include "workloads/cm1.hpp"

#include <algorithm>
#include <string>

#include "io/posix.hpp"

namespace wasp::workloads {
namespace {

constexpr const char* kConfigDir = "/p/gpfs1/cm1/config/";
constexpr const char* kOutputDir = "/p/gpfs1/cm1/out/";
constexpr const char* kRestartPath = "/p/gpfs1/cm1/restart.dat";

sim::Task<void> stage_inputs(runtime::Simulation& sim, Cm1Params P) {
  const auto app = sim.tracer().register_app("cm1-stage");
  runtime::Proc p(sim, app, 0, 0);
  io::Posix posix(p);
  for (int i = 0; i < P.config_files; ++i) {
    auto f = co_await posix.open(kConfigDir + std::to_string(i),
                                 io::OpenMode::kWrite);
    co_await posix.write(f, P.config_file_size, 1);
    co_await posix.close(f);
  }
}

/// Compile CM1's step-loop I/O into the pattern IR: every rank reads one
/// shared config file, then steps compute, rank-0 output files and a
/// periodic shared restart checkpoint.
pattern::JobPattern compile_cm1(const Cm1Params& P) {
  namespace po = pattern::ops;
  using pattern::Expr;
  const auto lit = [](auto v) {
    return Expr::lit(static_cast<std::int64_t>(v));
  };

  const auto writes_per_file = std::max<util::Bytes>(
      (P.output_total / static_cast<util::Bytes>(P.output_files)) /
          P.write_transfer,
      1);
  const int checkpoint_every =
      P.checkpoints > 0 ? std::max(P.steps / P.checkpoints, 1) : P.steps + 1;
  const auto ckpt_ops = std::max<util::Bytes>(
      (P.restart_size / static_cast<util::Bytes>(std::max(P.checkpoints, 1))) /
          P.write_transfer,
      1);
  const std::string kOF = std::to_string(P.output_files);
  const std::string kS = std::to_string(P.steps);

  pattern::JobPattern pat;
  pat.name = "cm1";
  pat.apps = {"cm1"};
  pat.comms.push_back({"world", P.nodes * P.ranks_per_node, P.nodes, false});

  pattern::LaneGroup g;
  g.comm = "world";
  g.rng_seed = 0xC31;

  pattern::PhasePattern ph;
  ph.app = "cm1";

  // Phase 1: every rank reads one shared configuration file.
  ph.ops.push_back(po::open(pattern::Layer::kPosix, "cfg",
                            std::string(kConfigDir) + "{rank % " +
                                std::to_string(P.config_files) + "}",
                            io::OpenMode::kRead));
  ph.ops.push_back(po::read(pattern::Layer::kPosix, "cfg",
                            lit(P.config_file_size / 4), lit(4)));
  ph.ops.push_back(po::close(pattern::Layer::kPosix, "cfg"));
  ph.ops.push_back(po::barrier());

  // Step loop: compute, rank-0 output files, periodic shared restart.
  std::vector<pattern::Op> step_body;
  step_body.push_back(po::compute(P.compute_per_step, 0.97, 0.06));
  {
    // Rank 0 writes this step's share of the output files; file index
    // next_output == (OF * step) / S + k.
    std::vector<pattern::Op> file_body;
    file_body.push_back(po::open(
        pattern::Layer::kPosix, "out",
        std::string(kOutputDir) + "{(" + kOF + " * step) / " + kS + " + k}",
        io::OpenMode::kWrite));
    file_body.push_back(
        po::seek_batch(pattern::Layer::kPosix, "out", lit(writes_per_file)));
    file_body.push_back(po::write(pattern::Layer::kPosix, "out",
                                  lit(P.write_transfer),
                                  lit(writes_per_file)));
    file_body.push_back(
        po::seek_batch(pattern::Layer::kPosix, "out", lit(writes_per_file)));
    file_body.push_back(po::close(pattern::Layer::kPosix, "out"));
    std::vector<pattern::Op> rank0;
    rank0.push_back(po::loop("k", Expr::lit(0),
                             Expr("(" + kOF + " * (step + 1)) / " + kS +
                                  " - (" + kOF + " * step) / " + kS),
                             std::move(file_body)));
    step_body.push_back(po::when(Expr("rank == 0"), std::move(rank0)));
  }
  {
    // Every node leader opens/closes the shared restart file; only rank 0
    // writes it (Fig. 1b).
    std::vector<pattern::Op> rank0;
    rank0.push_back(po::write(pattern::Layer::kPosix, "restart",
                              lit(P.write_transfer), lit(ckpt_ops)));
    std::vector<pattern::Op> leader;
    leader.push_back(po::open(pattern::Layer::kPosix, "restart", kRestartPath,
                              io::OpenMode::kWrite));
    leader.push_back(po::when(Expr("rank == 0"), std::move(rank0)));
    leader.push_back(po::close(pattern::Layer::kPosix, "restart"));
    std::vector<pattern::Op> ckpt;
    ckpt.push_back(po::when(Expr("leader"), std::move(leader)));
    ckpt.push_back(po::barrier());
    step_body.push_back(po::when(
        Expr("(step + 1) % " + std::to_string(checkpoint_every) + " == 0"),
        std::move(ckpt)));
  }
  ph.ops.push_back(
      po::loop("step", Expr::lit(0), lit(P.steps), std::move(step_body)));
  ph.ops.push_back(po::barrier());

  g.phases.push_back(std::move(ph));
  pat.groups.push_back(std::move(g));
  return pat;
}

}  // namespace

Cm1Params Cm1Params::test() {
  Cm1Params P;
  P.nodes = 4;
  P.ranks_per_node = 4;
  P.steps = 10;
  P.config_files = 3;
  P.config_file_size = 2 * util::kMiB;
  P.output_files = 12;
  P.output_total = 12 * util::kMiB;
  P.restart_size = 4 * util::kMiB;
  P.checkpoints = 2;
  P.compute_per_step = sim::seconds(0.5);
  return P;
}

Workload make_cm1(const Cm1Params& params) {
  Workload w;
  w.decl.name = "CM1";
  w.decl.data_repr = "3D";
  w.decl.data_distribution = "normal";
  w.decl.dataset_format = "bin";
  w.decl.format_attributes = "type: float, #dims: 3";
  w.decl.file_size_dist = util::format_bytes(params.output_total) + " data / " +
                          util::format_bytes(params.config_file_size) +
                          " config";
  w.decl.job_time_limit_hours = 2;
  w.decl.cpu_cores_used_per_node = params.ranks_per_node;
  w.decl.gpus_used_per_node = 0;
  w.decl.app_memory_per_node = 128 * util::kGiB;

  w.setup = [params](runtime::Simulation& sim) {
    return stage_inputs(sim, params);
  };
  w.compile = [params](runtime::Simulation&, const advisor::RunConfig&) {
    return compile_cm1(params);
  };
  return w;
}

}  // namespace wasp::workloads
