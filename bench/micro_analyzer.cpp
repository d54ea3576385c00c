// google-benchmark microbenchmarks for the analysis pipeline: the tracer's
// row append into its ColumnStore and full profile computation.
#include <benchmark/benchmark.h>

#include "analysis/analyzer.hpp"
#include "io/posix.hpp"
#include "runtime/proc.hpp"
#include "runtime/simulation.hpp"
#include "util/rng.hpp"

namespace {

using namespace wasp;

sim::Task<void> traffic(runtime::Simulation& sim, std::uint16_t app,
                        int rank, int files) {
  runtime::Proc p(sim, app, rank, rank % sim.spec().nodes);
  io::Posix posix(p);
  util::Rng rng(static_cast<std::uint64_t>(rank) + 1);
  for (int i = 0; i < files; ++i) {
    const std::string path =
        "/p/gpfs1/a" + std::to_string(rank) + "_" + std::to_string(i);
    auto f = co_await posix.open(path, io::OpenMode::kWrite);
    co_await posix.write(f, 4096 + rng.below(1 << 20), 4);
    co_await posix.close(f);
  }
}

runtime::Simulation* make_traffic(int ranks, int files) {
  auto* sim = new runtime::Simulation(cluster::tiny(4));
  const auto app = sim->tracer().register_app("traffic");
  for (int r = 0; r < ranks; ++r) {
    sim->engine().spawn(traffic(*sim, app, r, files));
  }
  sim->engine().run();
  return sim;
}

void BM_ColumnStorePush(benchmark::State& state) {
  auto* sim = make_traffic(16, static_cast<int>(state.range(0)));
  const std::vector<trace::Record> records(sim->tracer().records().begin(),
                                           sim->tracer().records().end());
  delete sim;
  for (auto _ : state) {
    analysis::ColumnStore cs;
    for (const trace::Record& r : records) cs.push_back(r);
    benchmark::DoNotOptimize(cs.chunk(0).cols.app);
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(records.size()));
}
BENCHMARK(BM_ColumnStorePush)->Arg(16)->Arg(256);

void BM_FullProfileAnalysis(benchmark::State& state) {
  auto* sim = make_traffic(16, static_cast<int>(state.range(0)));
  analysis::Analyzer analyzer;
  for (auto _ : state) {
    auto profile = analyzer.analyze(sim->tracer());
    benchmark::DoNotOptimize(profile.totals.total_ops());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(
                              sim->tracer().records().size()));
  delete sim;
}
BENCHMARK(BM_FullProfileAnalysis)->Arg(16)->Arg(256);

}  // namespace

BENCHMARK_MAIN();
