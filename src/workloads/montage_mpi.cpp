#include "workloads/montage_mpi.hpp"

#include <algorithm>

#include "io/posix.hpp"

namespace wasp::workloads {
namespace {

constexpr const char* kFitsDir = "/p/gpfs1/montage/fits/";
constexpr const char* kOutDir = "/p/gpfs1/montage/out/";

std::string intermediate_dir(runtime::Simulation& sim,
                             const advisor::RunConfig& cfg) {
  if (cfg.intermediates_to_node_local) {
    return sim.node_local(cfg.node_local_tier).mount() + "/montage/";
  }
  return "/p/gpfs1/montage/tmp/";
}

sim::Task<void> stage_inputs(runtime::Simulation& sim, MontageMpiParams P) {
  const auto app = sim.tracer().register_app("montage-stage");
  runtime::Proc p(sim, app, 0, 0);
  io::Posix posix(p);
  for (int i = 0; i < P.fits_files; ++i) {
    auto f = co_await posix.open(kFitsDir + std::to_string(i) + ".fits",
                                 io::OpenMode::kWrite);
    co_await posix.write(f, P.fits_size, 1);
    co_await posix.close(f);
  }
}

/// Compile the five-stage MPI workflow into the pattern IR: one lane group
/// of per-node drivers (mProject -> mImgtbl -> mShrink -> mViewer as
/// successive phases) and one of mAddMPI ranks. Two countdown events hand
/// off between them: the last node through mImgtbl starts mAddMPI, and the
/// last mAddMPI rank releases the drivers into mShrink.
pattern::JobPattern compile_montage_mpi(runtime::Simulation& sim,
                                        const MontageMpiParams& P,
                                        const advisor::RunConfig& cfg) {
  namespace po = pattern::ops;
  using pattern::Expr;
  using pattern::Layer;
  const auto lit = [](auto v) {
    return Expr::lit(static_cast<std::int64_t>(v));
  };

  const std::string tmp = intermediate_dir(sim, cfg);
  const std::string kN = std::to_string(P.nodes);
  const std::string kFF = std::to_string(P.fits_files);
  const std::string first = "node * " + kFF + " / " + kN;
  const std::string last = "(node + 1) * " + kFF + " / " + kN;
  const auto fits_reads =
      std::max<util::Bytes>(P.fits_size / P.fits_read_transfer, 1);

  pattern::JobPattern pat;
  pat.name = "montage-mpi";
  pat.apps = {"mProject", "mImgtbl", "mAddMPI", "mShrink", "mViewer"};
  pat.comms.push_back({"nodes", P.nodes, P.nodes, false});
  pat.comms.push_back(
      {"add", P.nodes * P.add_ranks_per_node, P.nodes, false});
  pat.events.push_back({"add_start", P.nodes});
  pat.events.push_back({"add_done", P.nodes * P.add_ranks_per_node});

  // --- Per-node driver group -----------------------------------------------
  pattern::LaneGroup drv;
  drv.comm = "nodes";
  drv.rng_seed = 0x305A1C;
  drv.stdio_buffer = cfg.stdio_buffer;

  {  // mProject
    pattern::PhasePattern ph;
    ph.app = "mProject";
    ph.ops.push_back(po::open(Layer::kStdio, "out", tmp + "proj_{node}",
                              io::OpenMode::kWrite));
    std::vector<pattern::Op> body;
    body.push_back(po::open(Layer::kStdio, "in",
                            std::string(kFitsDir) + "{i}.fits",
                            io::OpenMode::kRead));
    body.push_back(po::read(Layer::kStdio, "in", lit(P.fits_read_transfer),
                            lit(fits_reads)));
    body.push_back(po::close(Layer::kStdio, "in"));
    body.push_back(po::compute(P.project_compute_per_file, 0.9, 0.2));
    body.push_back(po::write(
        Layer::kStdio, "out", lit(P.projected_write_transfer),
        Expr("max(" + std::to_string(P.projected_per_node) + " / max(" +
             last + " - " + first + ", 1) / " +
             std::to_string(P.projected_write_transfer) + ", 1)")));
    ph.ops.push_back(po::loop("i", Expr(first), Expr(last), std::move(body)));
    ph.ops.push_back(po::close(Layer::kStdio, "out"));
    ph.ops.push_back(po::barrier());
    drv.phases.push_back(std::move(ph));
  }
  {  // mImgtbl, then hand off to mAddMPI
    pattern::PhasePattern ph;
    ph.app = "mImgtbl";
    std::vector<pattern::Op> body;
    body.push_back(po::stat(std::string(kFitsDir) + "{i}.fits"));
    ph.ops.push_back(po::loop("i", Expr(first), Expr(last), std::move(body)));
    ph.ops.push_back(po::compute(P.imgtbl_compute));
    ph.ops.push_back(po::open(Layer::kStdio, "tbl",
                              std::string(kOutDir) + "images_{node}.tbl",
                              io::OpenMode::kWrite));
    ph.ops.push_back(
        po::write(Layer::kStdio, "tbl", lit(4 * util::kKiB), lit(16)));
    ph.ops.push_back(po::close(Layer::kStdio, "tbl"));
    ph.ops.push_back(po::barrier());
    ph.ops.push_back(po::signal("add_start"));
    ph.ops.push_back(po::wait_event("add_done"));
    drv.phases.push_back(std::move(ph));
  }
  {  // mShrink
    pattern::PhasePattern ph;
    ph.app = "mShrink";
    const std::string mosaic = tmp + "mosaic_{node}";
    ph.ops.push_back(
        po::open(Layer::kStdio, "in", mosaic, io::OpenMode::kRead));
    ph.ops.push_back(po::read(
        Layer::kStdio, "in", lit(64 * util::kKiB),
        Expr("max(size_of(\"" + mosaic + "\") / 40 / 65536, 1)")));
    ph.ops.push_back(po::close(Layer::kStdio, "in"));
    ph.ops.push_back(po::compute(P.shrink_compute));
    ph.ops.push_back(po::open(Layer::kStdio, "out", tmp + "shrunk_{node}",
                              io::OpenMode::kWrite));
    ph.ops.push_back(po::write(
        Layer::kStdio, "out", lit(64 * util::kKiB),
        lit(std::max<util::Bytes>(P.shrunk_per_node / (64 * util::kKiB), 1))));
    ph.ops.push_back(po::close(Layer::kStdio, "out"));
    ph.ops.push_back(po::barrier());
    drv.phases.push_back(std::move(ph));
  }
  {  // mViewer
    pattern::PhasePattern ph;
    ph.app = "mViewer";
    const bool local_src =
        cfg.locality_aware_placement || cfg.intermediates_to_node_local;
    const std::string src =
        tmp + (local_src ? "mosaic_{node}"
                         : "mosaic_{(node + 1) % " + kN + "}");
    ph.ops.push_back(po::open(Layer::kStdio, "in", src, io::OpenMode::kRead));
    ph.ops.push_back(po::read(
        Layer::kStdio, "in", lit(P.viewer_read_transfer),
        Expr("max(size_of(\"" + src + "\") / " +
             std::to_string(P.viewer_read_transfer) + ", 1)")));
    ph.ops.push_back(po::close(Layer::kStdio, "in"));
    ph.ops.push_back(po::compute(P.viewer_compute, 0.9, 0.2));
    ph.ops.push_back(po::open(Layer::kStdio, "out",
                              std::string(kOutDir) + "mosaic_{node}.png",
                              io::OpenMode::kWrite));
    ph.ops.push_back(po::write(
        Layer::kStdio, "out", lit(P.png_write_transfer),
        lit(std::max<util::Bytes>(P.png_per_node / P.png_write_transfer, 1))));
    ph.ops.push_back(po::close(Layer::kStdio, "out"));
    if (cfg.intermediates_to_node_local) {
      // Drain the volatile node-local mosaic segment back to the PFS.
      ph.ops.push_back(po::open(Layer::kStdio, "seg", tmp + "mosaic_{node}",
                                io::OpenMode::kRead));
      ph.ops.push_back(po::read(
          Layer::kStdio, "seg", lit(util::kMiB),
          Expr("max(size_of(\"" + src + "\") / " +
               std::to_string(util::kMiB) + ", 1)")));
      ph.ops.push_back(po::close(Layer::kStdio, "seg"));
      ph.ops.push_back(po::open(Layer::kPosix, "dst",
                                std::string(kOutDir) + "mosaic_{node}.fits",
                                io::OpenMode::kWrite));
      ph.ops.push_back(po::pwrite_sync(
          "dst", Expr::lit(0), lit(64 * util::kKiB),
          Expr("max(size_of(\"" + src + "\") / 65536, 1)")));
      ph.ops.push_back(po::close(Layer::kPosix, "dst"));
    }
    ph.ops.push_back(po::barrier());
    drv.phases.push_back(std::move(ph));
  }
  pat.groups.push_back(std::move(drv));

  // --- mAddMPI group --------------------------------------------------------
  pattern::LaneGroup add;
  add.comm = "add";
  add.rng_seed = 0xADD;
  add.stdio_buffer = cfg.stdio_buffer;
  {
    pattern::PhasePattern ph;
    ph.app = "mAddMPI";
    const std::string kRpn = std::to_string(P.add_ranks_per_node);
    const std::string proj = tmp + "proj_{node}";
    const std::string slice =
        "size_of(\"" + proj + "\") / " + kRpn;  // this rank's read share
    ph.ops.push_back(po::wait_event("add_start"));
    ph.ops.push_back(po::open(Layer::kStdio, "in", proj, io::OpenMode::kRead));
    {
      std::vector<pattern::Op> body;
      body.push_back(
          po::seek(Layer::kStdio, "in", Expr("local * (" + slice + ")")));
      body.push_back(po::read(
          Layer::kStdio, "in", lit(P.add_read_transfer),
          Expr(slice + " / " + std::to_string(P.add_read_transfer))));
      ph.ops.push_back(po::when(
          Expr(slice + " >= " + std::to_string(P.add_read_transfer)),
          std::move(body)));
    }
    ph.ops.push_back(po::close(Layer::kStdio, "in"));
    ph.ops.push_back(po::compute(P.add_compute, 0.9, 0.2));
    const auto write_slice =
        P.mosaic_per_node / static_cast<util::Bytes>(P.add_ranks_per_node);
    ph.ops.push_back(po::open(Layer::kStdio, "out", tmp + "mosaic_{node}",
                              io::OpenMode::kWrite));
    ph.ops.push_back(po::seek(
        Layer::kStdio, "out",
        Expr("local * " + std::to_string(write_slice))));
    ph.ops.push_back(po::write(
        Layer::kStdio, "out", lit(P.mosaic_write_transfer),
        lit(std::max<util::Bytes>(write_slice / P.mosaic_write_transfer, 1))));
    ph.ops.push_back(po::close(Layer::kStdio, "out"));
    ph.ops.push_back(po::barrier());
    ph.ops.push_back(po::signal("add_done"));
    add.phases.push_back(std::move(ph));
  }
  pat.groups.push_back(std::move(add));
  return pat;
}

}  // namespace

MontageMpiParams MontageMpiParams::test() {
  MontageMpiParams P;
  P.nodes = 2;
  P.add_ranks_per_node = 4;
  P.fits_files = 8;
  P.fits_size = 256 * util::kKiB;
  P.projected_per_node = 4 * util::kMiB;
  P.mosaic_per_node = 16 * util::kMiB;
  P.shrunk_per_node = 256 * util::kKiB;
  P.png_per_node = 256 * util::kKiB;
  P.project_compute_per_file = sim::seconds(0.2);
  P.imgtbl_compute = sim::seconds(0.1);
  P.add_compute = sim::seconds(0.5);
  P.shrink_compute = sim::seconds(0.1);
  P.viewer_compute = sim::seconds(0.3);
  return P;
}

Workload make_montage_mpi(const MontageMpiParams& params) {
  Workload w;
  w.decl.name = "MontageMPI";
  w.decl.data_repr = "4D";
  w.decl.data_distribution = "uniform";
  w.decl.dataset_format = "bin";
  w.decl.format_attributes = "type: int, #dims: 3, enc: FITS";
  w.decl.file_size_dist = util::format_bytes(params.mosaic_per_node) +
                          " mosaic / " + util::format_bytes(params.fits_size) +
                          " fits";
  w.decl.job_time_limit_hours = 2;
  w.decl.cpu_cores_used_per_node = params.add_ranks_per_node;
  w.decl.app_memory_per_node = 60 * util::kGiB;

  w.setup = [params](runtime::Simulation& sim) {
    return stage_inputs(sim, params);
  };
  w.compile = [params](runtime::Simulation& sim,
                       const advisor::RunConfig& cfg) {
    return compile_montage_mpi(sim, params, cfg);
  };
  return w;
}

}  // namespace wasp::workloads
