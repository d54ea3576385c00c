#include "workloads/montage_pegasus.hpp"

#include <algorithm>

#include "io/posix.hpp"
#include "sim/waitgroup.hpp"

namespace wasp::workloads {
namespace {

constexpr const char* kBase = "/p/gpfs1/mpegasus/";

std::string input_path(int i) {
  return std::string(kBase) + "fits/" + std::to_string(i) + ".fits";
}

sim::Task<void> stage_writer(runtime::Simulation& s, std::uint16_t a, int id,
                             int stride, MontagePegasusParams params) {
  runtime::Proc p(s, a, id, 0);
  io::Posix posix(p);
  for (int i = id; i < params.input_files; i += stride) {
    auto f = co_await posix.open(input_path(i), io::OpenMode::kWrite);
    co_await posix.write(f, params.input_size, 1);
    co_await posix.close(f);
  }
}

sim::Task<void> stage_inputs(runtime::Simulation& sim,
                             MontagePegasusParams P) {
  const auto app = sim.tracer().register_app("mpegasus-stage");
  sim::WaitGroup wg(sim.engine());
  const int writers = 16;
  for (int w = 0; w < writers; ++w) {
    wg.launch(stage_writer(sim, app, w, writers, P));
  }
  co_await wg.wait();
}

std::uint32_t ops_for(util::Bytes total, util::Bytes transfer) {
  return static_cast<std::uint32_t>(
      std::max<util::Bytes>(total / transfer, 1));
}

/// Compile the Pegasus DAG into the pattern IR's declarative dag block:
/// each kernel becomes a stage whose per-instance I/O is expressed over the
/// `id` variable, and the dependency wiring becomes index expressions. The
/// generic replayer builds the workflow::Dag from it and runs it through
/// workflow::PegasusScheduler.
pattern::JobPattern compile_montage_pegasus(const MontagePegasusParams& P,
                                            const advisor::RunConfig& cfg) {
  namespace po = pattern::ops;
  using pattern::Expr;
  using pattern::Layer;
  const auto lit = [](auto v) {
    return Expr::lit(static_cast<std::int64_t>(v));
  };
  const std::string kPT = std::to_string(P.project_tasks);
  const std::string kT = std::to_string(P.transfer);
  const std::string kST = std::to_string(P.small_transfer);

  pattern::JobPattern pat;
  pat.name = "montage-pegasus";
  pat.dag.slots = P.slots;
  pat.dag.nodes = P.nodes;
  pat.dag.stdio_buffer = cfg.stdio_buffer;

  auto& stages = pat.dag.stages;

  {  // stage 0: mProject
    pattern::DagStage st;
    st.app = "mProject";
    st.count = P.project_tasks;
    st.rng_seed = 0x9E6;
    const std::string in = std::string(kBase) + "fits/{(id * " +
                           std::to_string(P.inputs_per_project) + " + k) % " +
                           std::to_string(P.input_files) + "}.fits";
    std::vector<pattern::Op> body;
    body.push_back(po::stat(in));
    body.push_back(po::open(Layer::kStdio, "in", in, io::OpenMode::kRead));
    body.push_back(po::read(Layer::kStdio, "in", lit(P.transfer),
                            lit(ops_for(P.input_size, P.transfer))));
    body.push_back(po::close(Layer::kStdio, "in"));
    st.ops.push_back(po::loop("k", Expr::lit(0), lit(P.inputs_per_project),
                              std::move(body)));
    st.ops.push_back(po::compute(P.project_compute, 0.8, 0.4));
    st.ops.push_back(po::open(Layer::kStdio, "out",
                              std::string(kBase) + "proj/{id}",
                              io::OpenMode::kWrite));
    st.ops.push_back(po::write(Layer::kStdio, "out", lit(P.transfer),
                               lit(ops_for(P.projected_size, P.transfer))));
    st.ops.push_back(po::close(Layer::kStdio, "out"));
    st.ops.push_back(po::open(Layer::kStdio, "hdr",
                              std::string(kBase) + "proj/{id}.hdr",
                              io::OpenMode::kWrite));
    st.ops.push_back(po::write(Layer::kStdio, "hdr", lit(util::kKiB), lit(2)));
    st.ops.push_back(po::close(Layer::kStdio, "hdr"));
    stages.push_back(std::move(st));
  }
  {  // stage 1: mDiff — reads both neighbouring projections
    pattern::DagStage st;
    st.app = "mDiff";
    st.count = P.diff_tasks;
    st.rng_seed = 0xD1FF;
    st.deps.push_back({0, Expr("id % " + kPT)});
    st.deps.push_back({0, Expr("(id + 1) % " + kPT)});
    const std::string side =
        std::string(kBase) + "proj/{(id + s) % " + kPT + "}";
    const std::string ops = "max(size_of(\"" + side + "\") / 2 / " + kST +
                            ", 1)";
    std::vector<pattern::Op> body;
    body.push_back(po::open(Layer::kStdio, "in", side, io::OpenMode::kRead));
    body.push_back(po::seek_batch(Layer::kStdio, "in",
                                  Expr("max((" + ops + ") / 4, 1)")));
    body.push_back(
        po::read(Layer::kStdio, "in", lit(P.small_transfer), Expr(ops)));
    body.push_back(po::close(Layer::kStdio, "in"));
    st.ops.push_back(po::loop("s", Expr::lit(0), Expr::lit(2),
                              std::move(body)));
    st.ops.push_back(po::compute(P.diff_compute, 0.7, 0.6));
    st.ops.push_back(po::open(
        Layer::kStdio, "out",
        std::string(kBase) + "diff/shard_{id % " +
            std::to_string(P.diff_shards) + "}.tbl",
        io::OpenMode::kAppend));
    st.ops.push_back(po::write(Layer::kStdio, "out", lit(P.small_transfer),
                               lit(ops_for(P.diff_output, P.small_transfer))));
    st.ops.push_back(po::close(Layer::kStdio, "out"));
    stages.push_back(std::move(st));
  }
  {  // stage 2: mConcatFit — all diff shards into fits.tbl
    pattern::DagStage st;
    st.app = "mConcatFit";
    st.deps.push_back({1, Expr{}});
    const std::string shard = std::string(kBase) + "diff/shard_{s}.tbl";
    std::vector<pattern::Op> body;
    body.push_back(po::open(Layer::kStdio, "in", shard, io::OpenMode::kRead));
    body.push_back(po::read(
        Layer::kStdio, "in", lit(P.small_transfer),
        Expr("max(size_of(\"" + shard + "\") / " + kST + ", 1)")));
    body.push_back(po::close(Layer::kStdio, "in"));
    st.ops.push_back(po::loop("s", Expr::lit(0), lit(P.diff_shards),
                              std::move(body)));
    st.ops.push_back(po::compute(P.concat_compute));
    st.ops.push_back(po::open(Layer::kStdio, "out",
                              std::string(kBase) + "fits.tbl",
                              io::OpenMode::kWrite));
    st.ops.push_back(
        po::write(Layer::kStdio, "out", lit(P.small_transfer), lit(64)));
    st.ops.push_back(po::close(Layer::kStdio, "out"));
    stages.push_back(std::move(st));
  }
  {  // stage 3: mBgModel
    pattern::DagStage st;
    st.app = "mBgModel";
    st.deps.push_back({2, Expr{}});
    const std::string tbl = std::string(kBase) + "fits.tbl";
    st.ops.push_back(po::open(Layer::kStdio, "in", tbl, io::OpenMode::kRead));
    st.ops.push_back(po::read(
        Layer::kStdio, "in", lit(P.small_transfer),
        Expr("max(size_of(\"" + tbl + "\") / " + kST + ", 1)")));
    st.ops.push_back(po::close(Layer::kStdio, "in"));
    st.ops.push_back(po::compute(P.bgmodel_compute));
    st.ops.push_back(po::open(Layer::kStdio, "out",
                              std::string(kBase) + "corrections.tbl",
                              io::OpenMode::kWrite));
    st.ops.push_back(
        po::write(Layer::kStdio, "out", lit(P.small_transfer), lit(1280)));
    st.ops.push_back(po::close(Layer::kStdio, "out"));
    stages.push_back(std::move(st));
  }
  {  // stage 4: mBackground
    pattern::DagStage st;
    st.app = "mBackground";
    st.count = P.background_tasks;
    st.rng_seed = 0xB6;
    st.deps.push_back({3, Expr{}});
    st.deps.push_back({0, Expr("id % " + kPT)});
    const std::string proj = std::string(kBase) + "proj/{id % " + kPT + "}";
    const std::string ops = "max(size_of(\"" + proj + "\") / 2 / " + kST +
                            ", 1)";
    st.ops.push_back(po::open(Layer::kStdio, "in", proj, io::OpenMode::kRead));
    st.ops.push_back(po::seek_batch(Layer::kStdio, "in",
                                    Expr("max((" + ops + ") / 4, 1)")));
    st.ops.push_back(
        po::read(Layer::kStdio, "in", lit(P.small_transfer), Expr(ops)));
    st.ops.push_back(po::close(Layer::kStdio, "in"));
    st.ops.push_back(po::open(Layer::kStdio, "corr",
                              std::string(kBase) + "corrections.tbl",
                              io::OpenMode::kRead));
    st.ops.push_back(
        po::read(Layer::kStdio, "corr", lit(P.small_transfer), lit(2)));
    st.ops.push_back(po::close(Layer::kStdio, "corr"));
    st.ops.push_back(po::compute(P.background_compute, 0.8, 0.4));
    st.ops.push_back(po::open(Layer::kStdio, "out",
                              std::string(kBase) + "bg/{id}",
                              io::OpenMode::kWrite));
    st.ops.push_back(po::write(Layer::kStdio, "out", lit(P.transfer),
                               lit(ops_for(P.corrected_size, P.transfer))));
    st.ops.push_back(po::close(Layer::kStdio, "out"));
    stages.push_back(std::move(st));
  }
  {  // stage 5: mImgtbl — header sweep over corrected images
    pattern::DagStage st;
    st.app = "mImgtbl";
    st.deps.push_back({4, Expr{}});
    std::vector<pattern::Op> body;
    body.push_back(po::stat(std::string(kBase) + "bg/{i}"));
    st.ops.push_back(po::loop("i", Expr::lit(0), lit(P.background_tasks),
                              std::move(body), Expr::lit(8)));
    st.ops.push_back(po::compute(P.imgtbl_compute));
    stages.push_back(std::move(st));
  }
  {  // stage 6: mAdd — each tile sums its group of corrected images
    pattern::DagStage st;
    st.app = "mAdd";
    st.count = P.add_tasks;
    st.deps.push_back({5, Expr{}});
    const int group = P.background_tasks / std::max(P.add_tasks, 1);
    const std::string kG = std::to_string(group);
    const std::string corrected =
        std::string(kBase) + "bg/{id * " + kG + " + k}";
    std::vector<pattern::Op> body;
    body.push_back(po::open(Layer::kStdio, "in", corrected,
                            io::OpenMode::kRead));
    body.push_back(po::read(
        Layer::kStdio, "in", lit(P.transfer),
        Expr("max(size_of(\"" + corrected + "\") / " + kT + ", 1)")));
    body.push_back(po::close(Layer::kStdio, "in"));
    st.ops.push_back(po::loop(
        "k", Expr::lit(0), lit(group), std::move(body), Expr{},
        Expr("id * " + kG + " + k < " + std::to_string(P.background_tasks))));
    st.ops.push_back(po::compute(P.add_compute));
    st.ops.push_back(po::open(Layer::kStdio, "out",
                              std::string(kBase) + "tile/{id}",
                              io::OpenMode::kWrite));
    st.ops.push_back(po::write(Layer::kStdio, "out", lit(P.transfer),
                               lit(ops_for(P.tile_size, P.transfer))));
    st.ops.push_back(po::close(Layer::kStdio, "out"));
    stages.push_back(std::move(st));
  }
  {  // stage 7: mViewer — few very large writes (Fig. 6a spikes)
    pattern::DagStage st;
    st.app = "mViewer";
    st.count = P.viewer_tasks;
    st.deps.push_back({6, Expr("id % " + std::to_string(P.add_tasks))});
    const std::string tile = std::string(kBase) + "tile/{id}";
    st.ops.push_back(po::open(Layer::kStdio, "in", tile, io::OpenMode::kRead));
    st.ops.push_back(po::read(
        Layer::kStdio, "in", lit(P.transfer),
        Expr("max(size_of(\"" + tile + "\") / " + kT + ", 1)")));
    st.ops.push_back(po::close(Layer::kStdio, "in"));
    st.ops.push_back(po::compute(P.viewer_compute));
    st.ops.push_back(po::open(Layer::kStdio, "out",
                              std::string(kBase) + "out/{id}.png",
                              io::OpenMode::kWrite));
    st.ops.push_back(
        po::write(Layer::kStdio, "out", lit(P.image_size / 2), lit(2)));
    st.ops.push_back(po::close(Layer::kStdio, "out"));
    stages.push_back(std::move(st));
  }
  return pat;
}

}  // namespace

MontagePegasusParams MontagePegasusParams::test() {
  MontagePegasusParams P;
  P.nodes = 2;
  P.slots = 8;
  P.input_files = 20;
  P.input_size = 256 * util::kKiB;
  P.project_tasks = 6;
  P.inputs_per_project = 3;
  P.projected_size = util::kMiB;
  P.diff_tasks = 12;
  P.diff_output = 16 * util::kKiB;
  P.diff_shards = 4;
  P.background_tasks = 6;
  P.corrected_size = util::kMiB;
  P.add_tasks = 2;
  P.tile_size = 2 * util::kMiB;
  P.viewer_tasks = 2;
  P.image_size = util::kMiB;
  P.project_compute = sim::seconds(0.2);
  P.diff_compute = sim::seconds(0.1);
  P.concat_compute = sim::seconds(0.3);
  P.bgmodel_compute = sim::seconds(0.3);
  P.background_compute = sim::seconds(0.2);
  P.imgtbl_compute = sim::seconds(0.1);
  P.add_compute = sim::seconds(0.3);
  P.viewer_compute = sim::seconds(0.3);
  return P;
}

Workload make_montage_pegasus(const MontagePegasusParams& params) {
  Workload w;
  w.decl.name = "MontagePegasus";
  w.decl.data_repr = "2D";
  w.decl.data_distribution = "uniform";
  w.decl.dataset_format = "bin";
  w.decl.format_attributes = "type: int, #dims: 2, enc: FITS";
  w.decl.file_size_dist = util::format_bytes(params.tile_size) + " tiles / " +
                          util::format_bytes(params.input_size) + " fits";
  w.decl.job_time_limit_hours = 12;
  w.decl.cpu_cores_used_per_node = 40;
  w.decl.app_memory_per_node = 60 * util::kGiB;

  w.setup = [params](runtime::Simulation& sim) {
    return stage_inputs(sim, params);
  };
  w.compile = [params](runtime::Simulation&, const advisor::RunConfig& cfg) {
    return compile_montage_pegasus(params, cfg);
  };
  return w;
}

}  // namespace wasp::workloads
