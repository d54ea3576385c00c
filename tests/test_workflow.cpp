// DAG and Pegasus-style scheduler tests.
#include <gtest/gtest.h>

#include <set>

#include "cluster/spec.hpp"
#include "workflow/dag.hpp"

namespace wasp::workflow {
namespace {

using runtime::Proc;
using runtime::Simulation;

TaskSpec noop_task(const std::string& app, std::vector<int>* order, int id,
                   sim::Time dur = 10 * sim::kMs) {
  TaskSpec spec;
  spec.app = app;
  spec.body = [order, id, dur](Proc& p) -> sim::Task<void> {
    co_await p.compute(dur);
    if (order != nullptr) order->push_back(id);
  };
  return spec;
}

TEST(Dag, AcyclicDetection) {
  Dag dag;
  const int a = dag.add_task(noop_task("a", nullptr, 0));
  const int b = dag.add_task(noop_task("b", nullptr, 1));
  const int c = dag.add_task(noop_task("c", nullptr, 2));
  dag.add_dependency(b, a);
  dag.add_dependency(c, b);
  EXPECT_TRUE(dag.acyclic());
  dag.add_dependency(a, c);  // close the cycle
  EXPECT_FALSE(dag.acyclic());
}

TEST(Dag, RejectsSelfDependency) {
  Dag dag;
  const int a = dag.add_task(noop_task("a", nullptr, 0));
  EXPECT_THROW(dag.add_dependency(a, a), util::SimError);
}

TEST(PegasusScheduler, RunsTasksInDependencyOrder) {
  Simulation sim(cluster::tiny(2));
  std::vector<int> order;
  Dag dag;
  const int a = dag.add_task(noop_task("stage1", &order, 0));
  const int b = dag.add_task(noop_task("stage1", &order, 1));
  const int c = dag.add_task(noop_task("stage2", &order, 2));
  dag.add_dependency(c, a);
  dag.add_dependency(c, b);

  PegasusScheduler::Options opts;
  opts.slots = 4;
  opts.nodes = 2;
  PegasusScheduler sched(sim, opts);
  auto& tracer = sim.tracer();
  sim.engine().spawn(sched.run(dag, [&tracer](const std::string& name) {
    return tracer.register_app(name);
  }));
  sim.engine().run();

  ASSERT_EQ(order.size(), 3u);
  EXPECT_EQ(order.back(), 2);  // c strictly after a and b
  EXPECT_EQ(sched.tasks_executed(), 3u);
}

TEST(PegasusScheduler, SlotPoolBoundsConcurrency) {
  Simulation sim(cluster::tiny(2));
  Dag dag;
  for (int i = 0; i < 10; ++i) {
    dag.add_task(noop_task("t", nullptr, i, 100 * sim::kMs));
  }
  PegasusScheduler::Options opts;
  opts.slots = 2;  // 10 tasks, two at a time -> 5 waves of 100ms
  opts.nodes = 2;
  PegasusScheduler sched(sim, opts);
  auto& tracer = sim.tracer();
  sim.engine().spawn(sched.run(dag, [&tracer](const std::string& name) {
    return tracer.register_app(name);
  }));
  sim.engine().run();
  EXPECT_EQ(sim.engine().now(), 500 * sim::kMs);
}

TEST(PegasusScheduler, WideFanoutCompletes) {
  Simulation sim(cluster::tiny(4));
  Dag dag;
  const int root = dag.add_task(noop_task("root", nullptr, -1));
  const int join = dag.add_task(noop_task("join", nullptr, -2));
  for (int i = 0; i < 200; ++i) {
    const int t = dag.add_task(noop_task("fan", nullptr, i));
    dag.add_dependency(t, root);
    dag.add_dependency(join, t);
  }
  PegasusScheduler::Options opts;
  opts.slots = 16;
  opts.nodes = 4;
  PegasusScheduler sched(sim, opts);
  auto& tracer = sim.tracer();
  sim.engine().spawn(sched.run(dag, [&tracer](const std::string& name) {
    return tracer.register_app(name);
  }));
  sim.engine().run();
  EXPECT_EQ(sched.tasks_executed(), 202u);
  EXPECT_TRUE(sim.engine().all_roots_done());
}

TEST(PegasusScheduler, RoundRobinWithoutLocality) {
  Simulation sim(cluster::tiny(4));
  std::set<int> nodes_used;
  Dag dag;
  for (int i = 0; i < 8; ++i) {
    TaskSpec spec;
    spec.app = "t";
    spec.body = [&nodes_used](Proc& p) -> sim::Task<void> {
      co_await p.compute(1 * sim::kMs);
      nodes_used.insert(p.node());
    };
    dag.add_task(std::move(spec));
  }
  PegasusScheduler::Options opts;
  opts.slots = 8;
  opts.nodes = 4;
  PegasusScheduler sched(sim, opts);
  auto& tracer = sim.tracer();
  sim.engine().spawn(sched.run(dag, [&tracer](const std::string& name) {
    return tracer.register_app(name);
  }));
  sim.engine().run();
  EXPECT_EQ(nodes_used.size(), 4u);
}

TEST(PegasusScheduler, CyclicDagIsRejected) {
  Simulation sim(cluster::tiny(2));
  Dag dag;
  const int a = dag.add_task(noop_task("a", nullptr, 0));
  const int b = dag.add_task(noop_task("b", nullptr, 1));
  dag.add_dependency(a, b);
  dag.add_dependency(b, a);
  PegasusScheduler sched(sim, {});
  auto& tracer = sim.tracer();
  sim.engine().spawn(sched.run(dag, [&tracer](const std::string& name) {
    return tracer.register_app(name);
  }));
  EXPECT_THROW(sim.engine().run(), util::SimError);
}

}  // namespace
}  // namespace wasp::workflow
