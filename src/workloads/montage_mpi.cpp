#include "workloads/montage_mpi.hpp"

#include <algorithm>
#include <memory>

#include "io/posix.hpp"
#include "io/stdio.hpp"
#include "sim/sync.hpp"
#include "util/rng.hpp"

namespace wasp::workloads {
namespace {

constexpr const char* kFitsDir = "/p/gpfs1/montage/fits/";
constexpr const char* kOutDir = "/p/gpfs1/montage/out/";

struct AppIds {
  std::uint16_t project, imgtbl, add, shrink, viewer;
};

/// Cross-stage coordination shared by all spawned coroutines.
struct Sync {
  explicit Sync(sim::Engine& eng)
      : add_start(eng), add_done(eng) {}
  sim::Event add_start;
  sim::Event add_done;
  int stage_nodes_remaining = 0;  ///< nodes still in the pre-add stages
  int add_remaining = 0;          ///< mAddMPI ranks still running
};

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

/// Sequential per-node part of the workflow (everything except mAddMPI).
sim::Task<void> node_driver(runtime::Simulation& sim, AppIds ids,
                            mpi::Comm& node_comm, int node,
                            MontageMpiParams P, advisor::RunConfig cfg,
                            std::shared_ptr<Sync> sync) {
  const std::string tmp = intermediate_dir(sim, cfg);
  util::Rng rng = util::Rng(0x305A1C).fork(static_cast<std::uint64_t>(node));

  // --- Stage 1: mProject ---------------------------------------------------
  {
    runtime::Proc p(sim, ids.project, node, node, &node_comm);
    io::Stdio stdio(p, cfg.stdio_buffer);
    const int first = node * P.fits_files / P.nodes;
    const int last = (node + 1) * P.fits_files / P.nodes;
    auto out = co_await stdio.fopen(tmp + "proj_" + std::to_string(node),
                                    io::OpenMode::kWrite);
    const util::Bytes per_file =
        P.projected_per_node /
        static_cast<util::Bytes>(std::max(last - first, 1));
    for (int i = first; i < last; ++i) {
      auto in = co_await stdio.fopen(kFitsDir + std::to_string(i) + ".fits",
                                     io::OpenMode::kRead);
      co_await stdio.fread(in, P.fits_read_transfer,
                           static_cast<std::uint32_t>(std::max<util::Bytes>(
                               P.fits_size / P.fits_read_transfer, 1)));
      co_await stdio.fclose(in);
      co_await p.compute(static_cast<sim::Time>(
          static_cast<double>(P.project_compute_per_file) *
          (0.9 + 0.2 * rng.uniform())));
      co_await stdio.fwrite(out, P.projected_write_transfer,
                            static_cast<std::uint32_t>(std::max<util::Bytes>(
                                per_file / P.projected_write_transfer, 1)));
    }
    co_await stdio.fclose(out);
    co_await p.barrier();
  }

  // --- Stage 2: mImgtbl ----------------------------------------------------
  {
    runtime::Proc p(sim, ids.imgtbl, node, node, &node_comm);
    io::Posix posix(p);
    const int first = node * P.fits_files / P.nodes;
    const int last = (node + 1) * P.fits_files / P.nodes;
    for (int i = first; i < last; ++i) {
      co_await posix.stat(kFitsDir + std::to_string(i) + ".fits");
    }
    co_await p.compute(P.imgtbl_compute);
    io::Stdio stdio(p, cfg.stdio_buffer);
    auto tbl = co_await stdio.fopen(
        std::string(kOutDir) + "images_" + std::to_string(node) + ".tbl",
        io::OpenMode::kWrite);
    co_await stdio.fwrite(tbl, 4 * util::kKiB, 16);
    co_await stdio.fclose(tbl);
    co_await p.barrier();
  }

  // --- Stage 3: hand off to mAddMPI ---------------------------------------
  if (--sync->stage_nodes_remaining == 0) sync->add_start.set();
  co_await sync->add_done.wait();

  // --- Stage 4: mShrink ----------------------------------------------------
  {
    runtime::Proc p(sim, ids.shrink, node, node, &node_comm);
    io::Stdio stdio(p, cfg.stdio_buffer);
    io::Posix posix(p);
    const util::Bytes mosaic_size =
        posix.size_of(tmp + "mosaic_" + std::to_string(node));
    auto in = co_await stdio.fopen(tmp + "mosaic_" + std::to_string(node),
                                   io::OpenMode::kRead);
    co_await stdio.fread(in, 64 * util::kKiB,
                         static_cast<std::uint32_t>(std::max<util::Bytes>(
                             mosaic_size / 40 / (64 * util::kKiB), 1)));
    co_await stdio.fclose(in);
    co_await p.compute(P.shrink_compute);
    auto out = co_await stdio.fopen(tmp + "shrunk_" + std::to_string(node),
                                    io::OpenMode::kWrite);
    co_await stdio.fwrite(out, 64 * util::kKiB,
                          static_cast<std::uint32_t>(std::max<util::Bytes>(
                              P.shrunk_per_node / (64 * util::kKiB), 1)));
    co_await stdio.fclose(out);
    co_await p.barrier();
  }

  // --- Stage 5: mViewer -----------------------------------------------------
  {
    // Locality-aware placement reads the node's own mosaic; otherwise the
    // viewer is assigned a neighbor's segment (cross-node PFS reads).
    const int src = cfg.locality_aware_placement ||
                            cfg.intermediates_to_node_local
                        ? node
                        : (node + 1) % P.nodes;
    runtime::Proc p(sim, ids.viewer, node, node, &node_comm);
    io::Stdio stdio(p, cfg.stdio_buffer);
    io::Posix posix(p);
    const util::Bytes mosaic_size =
        posix.size_of(tmp + "mosaic_" + std::to_string(src));
    auto in = co_await stdio.fopen(tmp + "mosaic_" + std::to_string(src),
                                   io::OpenMode::kRead);
    co_await stdio.fread(in, P.viewer_read_transfer,
                         static_cast<std::uint32_t>(std::max<util::Bytes>(
                             mosaic_size / P.viewer_read_transfer, 1)));
    co_await stdio.fclose(in);
    co_await p.compute(static_cast<sim::Time>(
        static_cast<double>(P.viewer_compute) * (0.9 + 0.2 * rng.uniform())));
    auto out = co_await stdio.fopen(
        std::string(kOutDir) + "mosaic_" + std::to_string(node) + ".png",
        io::OpenMode::kWrite);
    co_await stdio.fwrite(out, P.png_write_transfer,
                          static_cast<std::uint32_t>(std::max<util::Bytes>(
                              P.png_per_node / P.png_write_transfer, 1)));
    co_await stdio.fclose(out);

    // Node-local tiers are volatile: when intermediates live on shm, the
    // final mosaic segment must be drained back to the PFS at the end
    // (the persistence caveat of §IV-D's Datawarp discussion).
    if (cfg.intermediates_to_node_local) {
      auto seg = co_await stdio.fopen(tmp + "mosaic_" + std::to_string(node),
                                      io::OpenMode::kRead);
      co_await stdio.fread(seg, util::kMiB,
                           static_cast<std::uint32_t>(std::max<util::Bytes>(
                               mosaic_size / util::kMiB, 1)));
      co_await stdio.fclose(seg);
      auto dst = co_await posix.open(
          std::string(kOutDir) + "mosaic_" + std::to_string(node) + ".fits",
          io::OpenMode::kWrite);
      co_await posix.pwrite_sync(
          dst, 0, 64 * util::kKiB,
          static_cast<std::uint32_t>(std::max<util::Bytes>(
              mosaic_size / (64 * util::kKiB), 1)));
      co_await posix.close(dst);
    }
    co_await p.barrier();
  }
}

/// One mAddMPI rank: reads its slice of the node's projected image, writes
/// its slice of the node's mosaic segment.
sim::Task<void> add_rank(runtime::Simulation& sim, AppIds ids,
                         mpi::Comm& add_comm, int rank, MontageMpiParams P,
                         advisor::RunConfig cfg, std::shared_ptr<Sync> sync) {
  co_await sync->add_start.wait();
  const int node = add_comm.node_of(rank);
  const std::string tmp = intermediate_dir(sim, cfg);
  runtime::Proc p(sim, ids.add, rank, node, &add_comm);
  io::Stdio stdio(p, cfg.stdio_buffer);
  util::Rng rng = util::Rng(0xADD).fork(static_cast<std::uint64_t>(rank));

  const auto rpn = static_cast<util::Bytes>(
      add_comm.ranks_on_node(node).size());
  const int local = rank - add_comm.node_leader(rank);

  // Read this rank's slice of the projected image (sized from the actual
  // file so STDIO-buffer rounding in mProject cannot push us past EOF).
  io::Posix posix(p);
  const util::Bytes proj_size =
      posix.size_of(tmp + "proj_" + std::to_string(node));
  const util::Bytes read_slice = proj_size / rpn;
  auto in = co_await stdio.fopen(tmp + "proj_" + std::to_string(node),
                                 io::OpenMode::kRead);
  if (read_slice >= P.add_read_transfer) {
    co_await stdio.fseek(in, static_cast<util::Bytes>(local) * read_slice);
    co_await stdio.fread(in, P.add_read_transfer,
                         static_cast<std::uint32_t>(
                             read_slice / P.add_read_transfer));
  }
  co_await stdio.fclose(in);

  co_await p.compute(static_cast<sim::Time>(
      static_cast<double>(P.add_compute) * (0.9 + 0.2 * rng.uniform())));

  // Write this rank's slice of the mosaic segment.
  const util::Bytes write_slice = P.mosaic_per_node / rpn;
  auto out = co_await stdio.fopen(tmp + "mosaic_" + std::to_string(node),
                                  io::OpenMode::kWrite);
  co_await stdio.fseek(out, static_cast<util::Bytes>(local) * write_slice);
  co_await stdio.fwrite(out, P.mosaic_write_transfer,
                        static_cast<std::uint32_t>(std::max<util::Bytes>(
                            write_slice / P.mosaic_write_transfer, 1)));
  co_await stdio.fclose(out);

  co_await p.barrier();
  if (--sync->add_remaining == 0) sync->add_done.set();
}

/// Compile the five-stage MPI workflow into the pattern IR: one lane group
/// of per-node drivers (mProject -> mImgtbl -> mShrink -> mViewer as
/// successive phases) and one of mAddMPI ranks, coordinated by countdown
/// events exactly like the imperative Sync struct.
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
  w.launch_reference = [params](runtime::Simulation& sim,
                                const advisor::RunConfig& cfg) {
    AppIds ids;
    ids.project = sim.tracer().register_app("mProject");
    ids.imgtbl = sim.tracer().register_app("mImgtbl");
    ids.add = sim.tracer().register_app("mAddMPI");
    ids.shrink = sim.tracer().register_app("mShrink");
    ids.viewer = sim.tracer().register_app("mViewer");

    auto sync = std::make_shared<Sync>(sim.engine());
    sync->stage_nodes_remaining = params.nodes;
    sync->add_remaining = params.nodes * params.add_ranks_per_node;

    auto& node_comm = sim.add_comm(params.nodes, params.nodes);
    auto& add_comm = sim.add_comm(params.nodes * params.add_ranks_per_node,
                                  params.nodes);
    for (int node = 0; node < params.nodes; ++node) {
      sim.engine().spawn(
          node_driver(sim, ids, node_comm, node, params, cfg, sync));
    }
    for (int r = 0; r < add_comm.size(); ++r) {
      sim.engine().spawn(add_rank(sim, ids, add_comm, r, params, cfg, sync));
    }
  };
  return w;
}

}  // namespace wasp::workloads
