#include "workloads/cosmoflow.hpp"

#include <algorithm>
#include <string>

#include "advisor/pattern_rewrites.hpp"
#include "io/posix.hpp"
#include "sim/waitgroup.hpp"
#include "util/error.hpp"

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
  return w;
}

}  // namespace wasp::workloads
