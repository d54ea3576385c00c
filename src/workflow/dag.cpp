#include "workflow/dag.hpp"

#include <deque>

#include "sim/sync.hpp"
#include "sim/waitgroup.hpp"
#include "util/error.hpp"

namespace wasp::workflow {

int Dag::add_task(TaskSpec spec) {
  tasks_.push_back(std::move(spec));
  deps_.emplace_back();
  return static_cast<int>(tasks_.size() - 1);
}

void Dag::add_dependency(int task, int dep) {
  WASP_CHECK_MSG(task >= 0 && static_cast<std::size_t>(task) < tasks_.size(),
                 "bad task id");
  WASP_CHECK_MSG(dep >= 0 && static_cast<std::size_t>(dep) < tasks_.size(),
                 "bad dependency id");
  WASP_CHECK_MSG(dep != task, "self dependency");
  deps_[static_cast<std::size_t>(task)].push_back(dep);
}

bool Dag::acyclic() const {
  // Kahn's algorithm.
  std::vector<int> remaining(tasks_.size(), 0);
  std::vector<std::vector<int>> dependents(tasks_.size());
  for (std::size_t t = 0; t < tasks_.size(); ++t) {
    remaining[t] = static_cast<int>(deps_[t].size());
    for (int d : deps_[t]) {
      dependents[static_cast<std::size_t>(d)].push_back(static_cast<int>(t));
    }
  }
  std::deque<int> ready;
  for (std::size_t t = 0; t < tasks_.size(); ++t) {
    if (remaining[t] == 0) ready.push_back(static_cast<int>(t));
  }
  std::size_t seen = 0;
  while (!ready.empty()) {
    const int t = ready.front();
    ready.pop_front();
    ++seen;
    for (int d : dependents[static_cast<std::size_t>(t)]) {
      if (--remaining[static_cast<std::size_t>(d)] == 0) ready.push_back(d);
    }
  }
  return seen == tasks_.size();
}

PegasusScheduler::PegasusScheduler(runtime::Simulation& sim, Options opts)
    : sim_(sim), opts_(opts) {
  WASP_CHECK_MSG(opts_.slots > 0, "scheduler needs at least one slot");
  WASP_CHECK_MSG(opts_.nodes > 0, "scheduler needs at least one node");
}

namespace {

struct RunState {
  const Dag* dag = nullptr;
  std::vector<int> remaining;
  std::vector<std::vector<int>> dependents;
  std::deque<int> ready;
  std::size_t completed = 0;
  int dispatch_counter = 0;
  sim::Resource* slots = nullptr;
  sim::Event* wake = nullptr;
  bool failed = false;  ///< a task body threw; launch nothing more
};

}  // namespace

sim::Task<void> PegasusScheduler::run(
    const Dag& dag,
    std::function<std::uint16_t(const std::string&)> app_id_of) {
  WASP_CHECK_MSG(dag.acyclic(), "workflow DAG has a cycle");
  const std::size_t n = dag.size();
  if (n == 0) co_return;

  sim::Resource slots(sim_.engine(), static_cast<std::size_t>(opts_.slots));
  sim::Event wake(sim_.engine());
  RunState st;
  st.dag = &dag;
  st.remaining.assign(n, 0);
  st.dependents.assign(n, {});
  st.slots = &slots;
  st.wake = &wake;
  for (std::size_t t = 0; t < n; ++t) {
    st.remaining[t] = static_cast<int>(dag.deps(static_cast<int>(t)).size());
    for (int d : dag.deps(static_cast<int>(t))) {
      st.dependents[static_cast<std::size_t>(d)].push_back(
          static_cast<int>(t));
    }
    if (st.remaining[t] == 0) st.ready.push_back(static_cast<int>(t));
  }

  auto run_task = [this, &app_id_of](RunState& s, int id) -> sim::Task<void> {
    auto slot = co_await s.slots->acquire();
    const TaskSpec& spec = s.dag->task(id);
    const int node = s.dispatch_counter++ % opts_.nodes;
    runtime::Proc proc(sim_, app_id_of(spec.app), /*rank=*/id, node);
    try {
      co_await spec.body(proc);
    } catch (...) {
      // Its dependents never become ready: wake the driver so it stops
      // launching and lets wg.wait() rethrow this error.
      s.failed = true;
      s.wake->set();
      throw;
    }
    slot.release();
    ++executed_;
    ++s.completed;
    for (int d : s.dependents[static_cast<std::size_t>(id)]) {
      if (--s.remaining[static_cast<std::size_t>(d)] == 0) {
        s.ready.push_back(d);
      }
    }
    s.wake->set();
  };

  sim::WaitGroup wg(sim_.engine());
  std::size_t launched = 0;
  while (launched < n && !st.failed) {
    while (!st.ready.empty() && !st.failed) {
      const int id = st.ready.front();
      st.ready.pop_front();
      ++launched;
      wg.launch(run_task(st, id));
    }
    if (launched < n && !st.failed) {
      wake.reset();
      co_await wake.wait();
    }
  }
  // Rethrows the first task error once the tasks still running finish.
  co_await wg.wait();
  WASP_CHECK(st.completed == n);
}

}  // namespace wasp::workflow
