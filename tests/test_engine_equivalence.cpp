// The queue seam's contract at full-workload scale: running any paper
// workload on the timer-wheel engine produces a trace byte-identical to the
// heap-oracle engine — same records, same event counts, same profiles.
// Unit-level ordering is pinned by the EngineQueue property tests; this file
// pins it end-to-end through runtime::Simulation, the I/O stack, tracing,
// and analysis.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "sim/engine.hpp"
#include "workloads/ior.hpp"
#include "workloads/registry.hpp"

namespace wasp::workloads {
namespace {

cluster::ClusterSpec test_cluster(int nodes = 4) {
  auto spec = cluster::lassen(nodes);
  spec.node.cpu_cores = 8;
  return spec;
}

struct TracedRun {
  RunOutput out;
  std::vector<trace::Record> records;
  std::vector<std::string> apps;
};

TracedRun traced_run(const Workload& w, sim::Engine::QueueKind kind) {
  sim::Engine::Options opts;
  opts.queue = kind;
  runtime::Simulation sim(test_cluster(), opts);
  TracedRun r;
  r.out = run_with(sim, w, advisor::RunConfig{},
                   analysis::Analyzer::Options{});
  const auto& records = sim.tracer().records();
  r.records.assign(records.begin(), records.end());
  for (std::size_t a = 0; a < sim.tracer().num_apps(); ++a) {
    r.apps.push_back(sim.tracer().app_name(static_cast<std::uint16_t>(a)));
  }
  return r;
}

void expect_queue_invariant(const Workload& w) {
  const TracedRun wheel = traced_run(w, sim::Engine::QueueKind::kWheel);
  const TracedRun heap = traced_run(w, sim::Engine::QueueKind::kHeap);
  EXPECT_EQ(wheel.apps, heap.apps);
  ASSERT_EQ(wheel.records.size(), heap.records.size());
  for (std::size_t i = 0; i < heap.records.size(); ++i) {
    if (!(wheel.records[i] == heap.records[i])) {
      const auto& a = wheel.records[i];
      const auto& b = heap.records[i];
      FAIL() << "record " << i << " diverges: wheel(app=" << a.app
             << " rank=" << a.rank << " op=" << static_cast<int>(a.op)
             << " off=" << a.offset << " size=" << a.size
             << " count=" << a.count << " t=" << a.tstart << ".." << a.tend
             << ") vs heap(app=" << b.app << " rank=" << b.rank
             << " op=" << static_cast<int>(b.op) << " off=" << b.offset
             << " size=" << b.size << " count=" << b.count << " t="
             << b.tstart << ".." << b.tend << ")";
    }
  }
  EXPECT_EQ(wheel.out.job_seconds, heap.out.job_seconds);
  EXPECT_EQ(wheel.out.engine_events, heap.out.engine_events);
  EXPECT_EQ(wheel.out.characterization.to_yaml(),
            heap.out.characterization.to_yaml());
}

TEST(EngineEquivalence, AllSixWorkloadsTraceByteIdenticalAcrossQueues) {
  for (const auto& entry : paper_workloads()) {
    SCOPED_TRACE(entry.id);
    expect_queue_invariant(entry.make_test());
  }
}

TEST(EngineEquivalence, IorTraceByteIdenticalAcrossQueues) {
  expect_queue_invariant(make_ior(IorParams::test()));
  auto P = IorParams::test();
  P.file_per_process = false;
  P.read_back = true;
  expect_queue_invariant(make_ior(P));
}

}  // namespace
}  // namespace wasp::workloads
