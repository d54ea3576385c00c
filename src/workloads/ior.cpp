#include "workloads/ior.hpp"

#include <algorithm>
#include <string>

namespace wasp::workloads {
namespace {

/// Compile the benchmark into the pattern IR: a barrier-fenced write phase
/// and, with read_back, a read phase over the same offsets.
pattern::JobPattern compile_ior(runtime::Simulation& sim, const IorParams& P) {
  namespace po = pattern::ops;
  using pattern::Expr;
  const auto lit = [](auto v) {
    return Expr::lit(static_cast<std::int64_t>(v));
  };

  const std::string dir =
      P.target_dir.empty() ? sim.pfs().mount() + "/ior/" : P.target_dir;
  const std::string path =
      P.file_per_process ? dir + "data.{rank}" : dir + "data.shared";
  const auto ops = std::max<util::Bytes>(P.block / P.transfer, 1);
  const Expr offset = P.file_per_process
                          ? Expr::lit(0)
                          : Expr("rank * " + std::to_string(P.block));

  pattern::JobPattern pat;
  pat.name = "ior";
  pat.apps = {"ior"};
  pat.comms.push_back({"world", P.nodes * P.ranks_per_node, P.nodes, false});

  pattern::LaneGroup g;
  g.comm = "world";

  pattern::PhasePattern ph;
  ph.app = "ior";
  ph.ops.push_back(po::barrier());
  ph.ops.push_back(
      po::open(pattern::Layer::kPosix, "w", path, io::OpenMode::kWrite));
  ph.ops.push_back(po::pwrite("w", offset, lit(P.transfer), lit(ops)));
  ph.ops.push_back(po::close(pattern::Layer::kPosix, "w"));
  ph.ops.push_back(po::barrier());
  if (P.read_back) {
    ph.ops.push_back(
        po::open(pattern::Layer::kPosix, "r", path, io::OpenMode::kRead));
    ph.ops.push_back(po::pread("r", offset, lit(P.transfer), lit(ops)));
    ph.ops.push_back(po::close(pattern::Layer::kPosix, "r"));
    ph.ops.push_back(po::barrier());
  }

  g.phases.push_back(std::move(ph));
  pat.groups.push_back(std::move(g));
  return pat;
}

}  // namespace

IorParams IorParams::test() {
  IorParams P;
  P.nodes = 2;
  P.ranks_per_node = 2;
  P.block = 64 * util::kMiB;
  P.transfer = 4 * util::kMiB;
  return P;
}

Workload make_ior(const IorParams& params) {
  Workload w;
  w.decl.name = "IOR";
  w.decl.data_repr = "1D";
  w.decl.dataset_format = "bin";
  w.decl.cpu_cores_used_per_node = params.ranks_per_node;
  w.compile = [params](runtime::Simulation& sim, const advisor::RunConfig&) {
    return compile_ior(sim, params);
  };
  return w;
}

std::pair<double, double> measure_ior(const cluster::ClusterSpec& spec,
                                      const IorParams& params) {
  // IOR reports the bandwidth of each phase separately; turn the client
  // cache off so the read phase measures the servers, not local reuse.
  cluster::ClusterSpec uncached = spec;
  uncached.pfs.client_cache_bytes = 0;
  runtime::Simulation sim(uncached);
  auto out = run_with(sim, make_ior(params), advisor::RunConfig{},
                      analysis::Analyzer::Options{});
  const double total = static_cast<double>(params.block) *
                       params.nodes * params.ranks_per_node;
  // Phase durations from the profile: write phase is the span of write
  // ops, read phase the span of reads.
  sim::Time w0 = ~sim::Time{0};
  sim::Time w1 = 0;
  sim::Time r0 = ~sim::Time{0};
  sim::Time r1 = 0;
  for (const auto& rec : sim.tracer().records()) {
    if (rec.op == trace::Op::kWrite) {
      w0 = std::min(w0, rec.tstart);
      w1 = std::max(w1, rec.tend);
    } else if (rec.op == trace::Op::kRead) {
      r0 = std::min(r0, rec.tstart);
      r1 = std::max(r1, rec.tend);
    }
  }
  const double write_bw =
      w1 > w0 ? total / sim::to_seconds(w1 - w0) / 1e9 : 0.0;
  const double read_bw =
      r1 > r0 ? total / sim::to_seconds(r1 - r0) / 1e9 : 0.0;
  return {write_bw, read_bw};
}

}  // namespace wasp::workloads
