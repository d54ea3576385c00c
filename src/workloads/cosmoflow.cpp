#include "workloads/cosmoflow.hpp"

#include <algorithm>
#include <string>

#include "advisor/pattern_rewrites.hpp"
#include "io/hdf5.hpp"
#include "io/posix.hpp"
#include "sim/waitgroup.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace wasp::workloads {
namespace {

constexpr const char* kDatasetDir = "/p/gpfs1/cosmoflow/data/";
constexpr const char* kCheckpointPath = "/p/gpfs1/cosmoflow/model.ckpt";

std::string file_path(std::uint64_t i) {
  return kDatasetDir + std::to_string(i) + ".h5";
}

sim::Task<void> stage_writer(runtime::Simulation& s, std::uint16_t a, int id,
                             int stride, CosmoflowParams params) {
  runtime::Proc p(s, a, id, id % params.nodes);
  io::Posix posix(p);
  for (std::uint64_t i = static_cast<std::uint64_t>(id); i < params.files;
       i += static_cast<std::uint64_t>(stride)) {
    auto f = co_await posix.open(file_path(i), io::OpenMode::kWrite);
    co_await posix.write(f, params.file_size, 1);
    co_await posix.close(f);
  }
}

sim::Task<void> stage_dataset(runtime::Simulation& sim, CosmoflowParams P) {
  const auto app = sim.tracer().register_app("cosmoflow-stage");
  // Stage with several parallel writers to keep setup simulated-time sane.
  sim::WaitGroup wg(sim.engine());
  const int writers = std::min(P.nodes, 16);
  for (int w = 0; w < writers; ++w) {
    wg.launch(stage_writer(sim, app, w, writers, P));
  }
  co_await wg.wait();
}

/// One GPU process. `comm` is the per-node group used for collective I/O;
/// `rank` is the global trace identity, `local` the comm rank.
sim::Task<void> rank_body(runtime::Simulation& sim, std::uint16_t app,
                          mpi::Comm& comm, mpi::Comm& world, int rank,
                          int local, int node, CosmoflowParams P,
                          advisor::RunConfig cfg) {
  runtime::Proc p(sim, app, rank, node, &comm, local);
  io::Posix posix(p);
  io::Hdf5 hdf5(p, cfg.mpiio);
  util::Rng rng = util::Rng(0xC05).fork(static_cast<std::uint64_t>(rank));

  const auto ppn = static_cast<util::Bytes>(comm.size());
  const util::Bytes per_rank = P.file_size / ppn;
  const auto reads_per_file = static_cast<std::uint32_t>(
      std::max<util::Bytes>(per_rank / P.transfer, 1));

  // Optimized configuration: MPIFileUtils-style parallel preload of this
  // node's shard into node-local storage before training (§V-A).
  const bool preload = cfg.preload_input_to_node_local;
  const std::string tier_mount =
      preload ? sim.node_local(cfg.node_local_tier).mount() : "";
  if (preload) {
    for (std::uint64_t i = static_cast<std::uint64_t>(node);
         i < P.files; i += static_cast<std::uint64_t>(P.nodes)) {
      // Files of this node are split among its local ranks.
      if (i / static_cast<std::uint64_t>(P.nodes) % ppn !=
          static_cast<std::uint64_t>(local)) {
        continue;
      }
      co_await posix.stat(file_path(i));
      auto src = co_await posix.open(file_path(i), io::OpenMode::kRead);
      auto dst = co_await posix.open(tier_mount + "/cosmoflow/" +
                                         std::to_string(i) + ".h5",
                                     io::OpenMode::kWrite);
      const util::Bytes chunk = 4 * util::kMiB;
      const auto chunks = static_cast<std::uint32_t>(
          std::max<util::Bytes>(P.file_size / chunk, 1));
      // MPIFileUtils pacing: the copy pipeline (checksum, attribute copy,
      // small-file bookkeeping) bounds per-node staging throughput; the
      // whole paced copy is what the tracer sees as the read.
      const sim::Time copy_start = p.now();
      {
        runtime::Proc::Suppression mute(p);
        co_await posix.read(src, chunk, chunks);
      }
      const auto floor_ns = static_cast<sim::Time>(
          static_cast<double>(P.file_size) * static_cast<double>(ppn) /
          P.preload_node_bps * 1e9);
      const sim::Time elapsed = p.now() - copy_start;
      if (elapsed < floor_ns) {
        co_await sim::Delay(p.engine(), floor_ns - elapsed);
      }
      p.record(trace::Iface::kPosix, trace::Op::kRead, src.key(), 0, chunk,
               chunks, copy_start);
      co_await posix.write(dst, chunk, chunks);
      co_await posix.close(src);
      co_await posix.close(dst);
    }
    co_await p.barrier();
  }

  // Training: one pass over this node's shard of the dataset, collective
  // HDF5 reads interleaved with GPU compute.
  io::Hdf5Config h5cfg;
  h5cfg.use_mpiio = true;
  h5cfg.chunk_size = cfg.hdf5_chunk_size;
  h5cfg.meta_reads_per_open = 8;  // unchunked: deep object-header walk
  h5cfg.meta_reads_per_access = 1;
  std::uint64_t processed = 0;
  const int checkpoint_every =
      P.checkpoints > 0
          ? std::max<int>(static_cast<int>(P.files_per_node() /
                                           static_cast<std::uint64_t>(
                                               P.checkpoints + 1)),
                          1)
          : 0;
  for (std::uint64_t i = static_cast<std::uint64_t>(node); i < P.files;
       i += static_cast<std::uint64_t>(P.nodes)) {
    const std::string path =
        preload ? tier_mount + "/cosmoflow/" + std::to_string(i) + ".h5"
                : file_path(i);
    auto f = co_await hdf5.open(path, io::OpenMode::kRead, h5cfg);
    co_await hdf5.read(f, static_cast<util::Bytes>(local) * per_rank,
                       P.transfer, reads_per_file);
    co_await hdf5.close(f);
    co_await p.gpu_compute(static_cast<sim::Time>(
        static_cast<double>(P.gpu_per_file) * (0.95 + 0.1 * rng.uniform())));
    // Synchronous data-parallel step: gradient allreduce across the whole
    // job keeps the nodes' I/O windows aligned (and paces the input
    // pipeline at the slowest reader, as LBANN does).
    {
      const sim::Time t0 = p.now();
      co_await world.allreduce(16 * util::kMiB);
      p.record(trace::Iface::kMpi, trace::Op::kSendRecv, {}, 0,
               16 * util::kMiB, 1, t0);
    }
    ++processed;

    // Periodic model checkpoint from the global rank 0.
    if (rank == 0 && checkpoint_every > 0 &&
        processed % static_cast<std::uint64_t>(checkpoint_every) == 0) {
      auto ck = co_await posix.open(kCheckpointPath, io::OpenMode::kWrite);
      co_await posix.write(
          ck, P.checkpoint_transfer,
          static_cast<std::uint32_t>(std::max<util::Bytes>(
              P.checkpoint_bytes / P.checkpoint_transfer, 1)));
      co_await posix.close(ck);
    }
  }
  co_await p.barrier();
}

/// Compile the training pass into the pattern IR. The §IV-D.1 preload is
/// NOT modeled here: the baseline pattern carries a "preload.*" meta block
/// and the advisor's apply_preload() rewrite grafts the paced stage-in
/// onto it — so cfg.preload_input_to_node_local and the what-if rewrite
/// produce the same pattern by construction.
pattern::JobPattern compile_cosmoflow(runtime::Simulation& sim,
                                      const CosmoflowParams& P,
                                      const advisor::RunConfig& cfg) {
  namespace po = pattern::ops;
  using pattern::Expr;
  const auto lit = [](auto v) {
    return Expr::lit(static_cast<std::int64_t>(v));
  };

  const auto ppn = static_cast<util::Bytes>(P.procs_per_node);
  const util::Bytes per_rank = P.file_size / ppn;
  const auto reads_per_file =
      std::max<util::Bytes>(per_rank / P.transfer, 1);
  const int checkpoint_every =
      P.checkpoints > 0
          ? std::max<int>(static_cast<int>(
                              P.files_per_node() /
                              static_cast<std::uint64_t>(P.checkpoints + 1)),
                          1)
          : 0;
  const auto preload_floor_ns = static_cast<std::uint64_t>(
      static_cast<double>(P.file_size) * static_cast<double>(ppn) /
      P.preload_node_bps * 1e9);
  const std::string kN = std::to_string(P.nodes);

  pattern::JobPattern pat;
  pat.name = "cosmoflow";
  pat.apps = {"cosmoflow"};
  pat.comms.push_back({"world", P.nodes * P.procs_per_node, P.nodes, false});
  pat.comms.push_back({"nodecomm", P.procs_per_node, P.nodes, true});

  pattern::LaneGroup g;
  g.comm = "nodecomm";
  g.rng_seed = 0xC05;
  g.mpiio = cfg.mpiio;
  g.hdf5.use_mpiio = true;
  g.hdf5.chunk_size = cfg.hdf5_chunk_size;
  g.hdf5.meta_reads_per_open = 8;  // unchunked: deep object-header walk
  g.hdf5.meta_reads_per_access = 1;

  pattern::PhasePattern ph;
  ph.app = "cosmoflow";

  // One pass over this node's shard: collective HDF5 reads + GPU compute +
  // gradient allreduce, with periodic rank-0 checkpoints.
  std::vector<pattern::Op> file_body;
  file_body.push_back(po::open(pattern::Layer::kHdf5, "f",
                               std::string(kDatasetDir) + "{i}.h5",
                               io::OpenMode::kRead));
  file_body.push_back(po::read(pattern::Layer::kHdf5, "f", lit(P.transfer),
                               lit(reads_per_file),
                               Expr("local * " + std::to_string(per_rank))));
  file_body.push_back(po::close(pattern::Layer::kHdf5, "f"));
  file_body.push_back(po::gpu_compute(P.gpu_per_file, 0.95, 0.1));
  file_body.push_back(po::allreduce("world", lit(16 * util::kMiB)));
  if (checkpoint_every > 0) {
    std::vector<pattern::Op> ck;
    ck.push_back(po::open(pattern::Layer::kPosix, "ck", kCheckpointPath,
                          io::OpenMode::kWrite));
    ck.push_back(po::write(
        pattern::Layer::kPosix, "ck", lit(P.checkpoint_transfer),
        lit(std::max<util::Bytes>(P.checkpoint_bytes / P.checkpoint_transfer,
                                  1))));
    ck.push_back(po::close(pattern::Layer::kPosix, "ck"));
    file_body.push_back(po::when(
        Expr("rank == 0 && ((i - node) / " + kN + " + 1) % " +
             std::to_string(checkpoint_every) + " == 0"),
        std::move(ck)));
  }
  ph.ops.push_back(po::loop("i", Expr("node"), lit(P.files),
                            std::move(file_body), Expr(kN)));
  ph.ops.push_back(po::barrier());

  g.phases.push_back(std::move(ph));
  pat.groups.push_back(std::move(g));

  // Preload what-if inputs (§IV-D.1 / Fig. 7): enough for apply_preload()
  // to graft the paced stage-in onto a dumped pattern.
  pat.set_meta("preload.src_dir", kDatasetDir);
  pat.set_meta("preload.suffix", ".h5");
  pat.set_meta("preload.files", std::to_string(P.files));
  pat.set_meta("preload.nodes", std::to_string(P.nodes));
  pat.set_meta("preload.ppn", std::to_string(P.procs_per_node));
  pat.set_meta("preload.file_size", std::to_string(P.file_size));
  pat.set_meta("preload.chunk", std::to_string(4 * util::kMiB));
  pat.set_meta("preload.floor_ns", std::to_string(preload_floor_ns));

  if (cfg.preload_input_to_node_local) {
    advisor::PreloadSpec spec;
    const bool ok = advisor::preload_spec_from_meta(
        pat, sim.node_local(cfg.node_local_tier).mount(), &spec);
    WASP_CHECK_MSG(ok, "cosmoflow: preload meta missing");
    advisor::apply_preload(pat, spec);
  }
  return pat;
}

}  // namespace

CosmoflowParams CosmoflowParams::test() {
  CosmoflowParams P;
  P.nodes = 2;
  P.procs_per_node = 2;
  P.files = 16;
  P.file_size = 4 * util::kMiB;
  P.transfer = util::kMiB;
  P.gpu_per_file = sim::seconds(0.1);
  P.checkpoints = 2;
  P.checkpoint_bytes = 400 * util::kKB;
  return P;
}

Workload make_cosmoflow(const CosmoflowParams& params) {
  Workload w;
  w.decl.name = "Cosmoflow";
  w.decl.data_repr = "3D";
  w.decl.data_distribution = "gamma";
  w.decl.dataset_format = "HDF5";
  w.decl.format_attributes = "chunk: NA, #datasets: 1, #dims: 3";
  w.decl.file_size_dist = util::format_bytes(params.file_size);
  w.decl.job_time_limit_hours = 6;
  w.decl.cpu_cores_used_per_node = params.procs_per_node;
  w.decl.gpus_used_per_node = params.procs_per_node;
  w.decl.app_memory_per_node = 60 * util::kGiB;

  w.setup = [params](runtime::Simulation& sim) {
    return stage_dataset(sim, params);
  };
  w.compile = [params](runtime::Simulation& sim,
                       const advisor::RunConfig& cfg) {
    return compile_cosmoflow(sim, params, cfg);
  };
  w.launch_reference = [params](runtime::Simulation& sim,
                                const advisor::RunConfig& cfg) {
    const auto app = sim.tracer().register_app("cosmoflow");
    auto& world = sim.add_comm(params.nodes * params.procs_per_node,
                               params.nodes);
    for (int node = 0; node < params.nodes; ++node) {
      // Per-node communicator: local ranks 0..ppn-1 all mapped to `node`.
      std::vector<int> map(static_cast<std::size_t>(params.procs_per_node),
                           node);
      auto& node_comm = sim.add_comm_mapped(std::move(map));
      for (int local = 0; local < params.procs_per_node; ++local) {
        const int rank = node * params.procs_per_node + local;
        sim.engine().spawn(rank_body(sim, app, node_comm, world, rank, local,
                                     node, params, cfg));
      }
    }
  };
  return w;
}

}  // namespace wasp::workloads
