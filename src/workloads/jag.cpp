#include "workloads/jag.hpp"

#include <algorithm>
#include <string>

#include "io/posix.hpp"

namespace wasp::workloads {
namespace {

constexpr const char* kDatasetPath = "/p/gpfs1/jag/samples.npy";
constexpr const char* kCheckpointDir = "/p/gpfs1/jag/ckpt/";

sim::Task<void> stage_dataset(runtime::Simulation& sim, JagParams P) {
  const auto app = sim.tracer().register_app("jag-stage");
  runtime::Proc p(sim, app, 0, 0);
  io::Posix posix(p);
  auto f = co_await posix.open(kDatasetPath, io::OpenMode::kWrite);
  co_await posix.write(f, P.dataset_bytes, 1);
  co_await posix.close(f);
}

/// Compile the JAG training loop into the pattern IR: a shuffled STDIO
/// epoch over the whole dataset, cached epochs with rank-0 checkpoints, and
/// a validation pass over a quarter of the samples.
pattern::JobPattern compile_jag(const JagParams& P,
                                const advisor::RunConfig& cfg) {
  namespace po = pattern::ops;
  using pattern::Expr;
  const auto lit = [](auto v) {
    return Expr::lit(static_cast<std::int64_t>(v));
  };

  const auto samples_per_rank =
      std::max<util::Bytes>(P.dataset_bytes / P.sample_size, 1);
  const auto samples_per_batch = std::max<std::uint32_t>(
      static_cast<std::uint32_t>(samples_per_rank) /
          static_cast<std::uint32_t>(P.batches_per_epoch),
      1);
  const auto fetch_ops =
      std::max<std::uint32_t>(samples_per_batch / P.samples_per_fetch, 1);
  const auto ckpt_ops =
      std::max<util::Bytes>(P.checkpoint_bytes / (4 * util::kKB), 1);
  const auto val_samples =
      std::max<std::uint32_t>(static_cast<std::uint32_t>(samples_per_rank) / 4,
                              1);
  const auto val_fetch =
      std::max<std::uint32_t>(val_samples / P.samples_per_fetch, 1);

  pattern::JobPattern pat;
  pat.name = "jag";
  pat.apps = {"jag-icf"};
  pat.comms.push_back({"world", P.nodes * P.procs_per_node, P.nodes, false});

  pattern::LaneGroup g;
  g.comm = "world";
  g.rng_seed = 0x1A6;
  g.stdio_buffer = cfg.stdio_buffer;

  pattern::PhasePattern ph;
  ph.app = "jag-icf";

  // Epoch 1: shuffled sample reads interleaved with compute.
  ph.ops.push_back(po::open(pattern::Layer::kStdio, "f", kDatasetPath,
                            io::OpenMode::kRead));
  {
    std::vector<pattern::Op> batch;
    batch.push_back(po::seek_if_wrap(
        "f", lit(static_cast<util::Bytes>(samples_per_batch) * P.sample_size),
        lit(P.dataset_bytes)));
    batch.push_back(po::seek_batch(pattern::Layer::kStdio, "f",
                                   lit(2 * samples_per_batch)));
    batch.push_back(po::read_scattered("f", lit(P.sample_size),
                                       lit(samples_per_batch),
                                       lit(fetch_ops)));
    batch.push_back(
        po::gpu_compute(P.first_epoch_batch_compute, 0.9, 0.2));
    ph.ops.push_back(po::loop("b", Expr::lit(0), lit(P.batches_per_epoch),
                              std::move(batch)));
  }
  ph.ops.push_back(po::close(pattern::Layer::kStdio, "f"));
  ph.ops.push_back(po::barrier());

  // Epochs 2..N: cache hits, pure compute; rank 0 checkpoints per epoch.
  {
    std::vector<pattern::Op> batch;
    batch.push_back(po::gpu_compute(P.later_epoch_batch_compute, 0.9, 0.2));
    std::vector<pattern::Op> rank0;
    rank0.push_back(po::open(pattern::Layer::kPosix, "ck",
                             std::string(kCheckpointDir) + "model.ckpt",
                             io::OpenMode::kAppend));
    rank0.push_back(po::write(pattern::Layer::kPosix, "ck", lit(4 * util::kKB),
                              lit(ckpt_ops)));
    rank0.push_back(po::close(pattern::Layer::kPosix, "ck"));
    std::vector<pattern::Op> epoch;
    epoch.push_back(po::loop("b", Expr::lit(0), lit(P.batches_per_epoch),
                             std::move(batch)));
    epoch.push_back(po::when(Expr("rank == 0"), std::move(rank0)));
    ph.ops.push_back(
        po::loop("e", Expr::lit(1), lit(P.epochs), std::move(epoch)));
  }
  ph.ops.push_back(po::barrier());

  // Validation pass: re-read a quarter of the samples.
  ph.ops.push_back(po::open(pattern::Layer::kStdio, "v", kDatasetPath,
                            io::OpenMode::kRead));
  ph.ops.push_back(
      po::seek_batch(pattern::Layer::kStdio, "v", lit(val_samples)));
  ph.ops.push_back(po::read_scattered("v", lit(P.sample_size),
                                      lit(val_samples), lit(val_fetch)));
  ph.ops.push_back(po::close(pattern::Layer::kStdio, "v"));
  ph.ops.push_back(po::barrier());

  g.phases.push_back(std::move(ph));
  pat.groups.push_back(std::move(g));
  return pat;
}

}  // namespace

JagParams JagParams::test() {
  JagParams P;
  P.nodes = 2;
  P.procs_per_node = 2;
  P.dataset_bytes = 8 * util::kMiB;
  P.sample_size = 2 * util::kKiB;
  P.epochs = 3;
  P.batches_per_epoch = 4;
  P.first_epoch_batch_compute = sim::seconds(0.3);
  P.later_epoch_batch_compute = sim::seconds(0.4);
  return P;
}

Workload make_jag(const JagParams& params) {
  Workload w;
  w.decl.name = "JAG";
  w.decl.data_repr = "3D";
  w.decl.data_distribution = "normal";
  w.decl.dataset_format = "npy";
  w.decl.format_attributes = "type: float, #datasets: 1, #dims: 3";
  w.decl.file_size_dist = util::format_bytes(params.dataset_bytes);
  w.decl.job_time_limit_hours = 6;
  w.decl.cpu_cores_used_per_node = params.procs_per_node;
  w.decl.gpus_used_per_node = params.procs_per_node;
  w.decl.app_memory_per_node = 60 * util::kGiB;

  w.setup = [params](runtime::Simulation& sim) {
    return stage_dataset(sim, params);
  };
  w.compile = [params](runtime::Simulation&, const advisor::RunConfig& cfg) {
    return compile_jag(params, cfg);
  };
  return w;
}

}  // namespace wasp::workloads
