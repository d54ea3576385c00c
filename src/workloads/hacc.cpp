#include "workloads/hacc.hpp"

#include <algorithm>
#include <string>

namespace wasp::workloads {
namespace {

/// Compile the HACC file-per-process checkpoint/restart cycle into the
/// declarative pattern IR.
pattern::JobPattern compile_hacc(runtime::Simulation& sim, const HaccParams& P,
                                 const advisor::RunConfig& cfg) {
  namespace po = pattern::ops;
  using pattern::Expr;

  const bool async_drain = cfg.async_checkpoint_drain;
  std::string fast_dir;
  if (async_drain) {
    fast_dir = sim.has_shared_bb()
                   ? sim.shared_bb().mount() + "/hacc/"
                   : sim.node_local(cfg.node_local_tier).mount() + "/hacc/";
  }
  const std::string pfs_dir = sim.pfs().mount() + "/hacc/";
  const std::string path = (async_drain ? fast_dir : pfs_dir) + "{rank}.ckpt";

  const auto total_ops = static_cast<std::uint64_t>(
      std::max<util::Bytes>((P.per_rank_bytes + P.transfer - 1) / P.transfer,
                            1));
  const auto rounds = static_cast<std::uint64_t>(
      std::max<std::uint64_t>(1, std::min<std::uint64_t>(
                                     static_cast<std::uint64_t>(P.rounds),
                                     total_ops)));
  const std::uint64_t per = (total_ops + rounds - 1) / rounds;
  const bool compress = cfg.compress_checkpoints;
  const pattern::Layer xfer =
      compress ? pattern::Layer::kCompressed : pattern::Layer::kPosix;
  // Per-op bytes actually stored on disk: the compressed layer shrinks each
  // transfer (io::CompressedPosix), which the restart seek offsets track.
  const auto stored = compress
                          ? static_cast<util::Bytes>(std::max(
                                static_cast<double>(P.transfer) *
                                    cfg.compression_ratio,
                                1.0))
                          : P.transfer;

  const std::string kTotal = std::to_string(total_ops);
  const std::string kPer = std::to_string(per);
  const std::string kT = std::to_string(P.transfer);
  // Ops in round r; the guard skips rounds past the tail.
  const std::string ops_r = "min(" + kPer + ", " + kTotal + " - r * " + kPer +
                            ")";
  const std::string guard_r = kTotal + " - r * " + kPer + " > 0";

  pattern::JobPattern pat;
  pat.name = "hacc-fpp";
  pat.apps = {"hacc-io"};
  pat.comms.push_back({"world", P.nodes * P.ranks_per_node, P.nodes, false});

  pattern::LaneGroup g;
  g.comm = "world";
  g.rng_seed = 0x44ACC;
  g.stdio_buffer = cfg.stdio_buffer;
  g.mpiio = cfg.mpiio;
  g.codec.use_gpu = cfg.compress_on_gpu;
  g.codec.ratio = cfg.compression_ratio;

  pattern::PhasePattern ph;
  ph.app = "hacc-io";

  // Particle generation in memory.
  ph.ops.push_back(po::compute(P.generate_compute, 0.95, 0.1));
  ph.ops.push_back(po::barrier());

  // Checkpoint round 0 (truncating open); rounds >= 1 append.
  ph.ops.push_back(
      po::open(pattern::Layer::kPosix, "f", path, io::OpenMode::kWrite));
  ph.ops.push_back(
      po::seek_batch(pattern::Layer::kPosix, "f",
                     Expr::lit(static_cast<std::int64_t>(per))));
  ph.ops.push_back(po::write(xfer, "f", Expr::lit(static_cast<std::int64_t>(
                                            P.transfer)),
                             Expr::lit(static_cast<std::int64_t>(per))));
  ph.ops.push_back(po::close(pattern::Layer::kPosix, "f"));
  if (rounds > 1) {
    std::vector<pattern::Op> body;
    body.push_back(
        po::open(pattern::Layer::kPosix, "f", path, io::OpenMode::kAppend));
    body.push_back(po::seek_batch(pattern::Layer::kPosix, "f", Expr(ops_r)));
    body.push_back(po::write(xfer, "f", Expr(kT), Expr(ops_r)));
    body.push_back(po::close(pattern::Layer::kPosix, "f"));
    ph.ops.push_back(po::loop("r", Expr::lit(1),
                              Expr::lit(static_cast<std::int64_t>(rounds)),
                              std::move(body), {}, Expr(guard_r)));
  }

  if (async_drain) {
    // Background flush of the fast-tier copy to the PFS (SCR-style async
    // drain); the restart phase reads the fast copy concurrently.
    const std::string src = fast_dir + "{rank}.ckpt";
    const std::string dst = pfs_dir + "{rank}.ckpt";
    const std::string drain_ops =
        "max(size_of(\"" + src + "\") / " + kT + ", 1)";
    std::vector<pattern::Op> body;
    body.push_back(
        po::open(pattern::Layer::kPosix, "in", src, io::OpenMode::kRead));
    body.push_back(
        po::open(pattern::Layer::kPosix, "out", dst, io::OpenMode::kWrite));
    body.push_back(po::read(pattern::Layer::kPosix, "in", Expr(kT),
                            Expr(drain_ops)));
    body.push_back(po::write(pattern::Layer::kPosix, "out", Expr(kT),
                             Expr(drain_ops)));
    body.push_back(po::close(pattern::Layer::kPosix, "in"));
    body.push_back(po::close(pattern::Layer::kPosix, "out"));
    ph.ops.push_back(po::spawn("hacc-io", std::move(body)));
  }
  ph.ops.push_back(po::barrier());

  // Restart: read the checkpoint back with the same round structure.
  if (P.do_restart_read) {
    const std::string offset_r = "min(r * " + kPer + ", " + kTotal + ") * " +
                                 std::to_string(stored);
    std::vector<pattern::Op> body;
    body.push_back(
        po::open(pattern::Layer::kPosix, "f", path, io::OpenMode::kRead));
    body.push_back(po::seek(pattern::Layer::kPosix, "f", Expr(offset_r)));
    body.push_back(po::seek_batch(pattern::Layer::kPosix, "f", Expr(ops_r)));
    body.push_back(po::read(xfer, "f", Expr(kT), Expr(ops_r)));
    body.push_back(po::close(pattern::Layer::kPosix, "f"));
    ph.ops.push_back(po::loop("r", Expr::lit(0),
                              Expr::lit(static_cast<std::int64_t>(rounds)),
                              std::move(body), {}, Expr(guard_r)));
  }
  ph.ops.push_back(po::barrier());

  g.phases.push_back(std::move(ph));
  pat.groups.push_back(std::move(g));
  return pat;
}

}  // namespace

HaccParams HaccParams::test() {
  HaccParams P;
  P.nodes = 2;
  P.ranks_per_node = 4;
  P.per_rank_bytes = 256 * util::kMiB;
  P.transfer = 4 * util::kMiB;
  P.rounds = 2;
  P.generate_compute = sim::seconds(0.05);
  return P;
}

Workload make_hacc(const HaccParams& params) {
  Workload w;
  w.decl.name = "HACC";
  w.decl.data_repr = "1D";
  w.decl.data_distribution = "uniform";
  w.decl.dataset_format = "bin";
  w.decl.format_attributes = "type: float, 9 variables";
  w.decl.file_size_dist = util::format_bytes(params.per_rank_bytes);
  w.decl.job_time_limit_hours = 2;
  w.decl.cpu_cores_used_per_node = params.ranks_per_node;
  w.decl.app_memory_per_node = 56 * util::kGiB;

  w.compile = [params](runtime::Simulation& sim,
                       const advisor::RunConfig& cfg) {
    return compile_hacc(sim, params, cfg);
  };
  return w;
}

}  // namespace wasp::workloads
