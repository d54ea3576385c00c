// Workflow DAG + schedulers.
//
// Two execution models from the paper:
//  * MPI-style (Montage-with-MPI): hand-sequenced stages, some parallel —
//    the workload code drives that directly.
//  * Pegasus-style (Montage-with-Pegasus): thousands of single-process
//    tasks scheduled by pegasus-mpi-cluster onto a fixed pool of MPI worker
//    slots. PegasusScheduler models that master/worker slot pool, placing
//    tasks round-robin over the pool's nodes in dispatch order.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "runtime/proc.hpp"
#include "runtime/simulation.hpp"
#include "sim/task.hpp"

namespace wasp::workflow {

/// A single-process task (one executable invocation in the workflow).
struct TaskSpec {
  std::string app;  ///< kernel name ("mProject", "mDiff", ...)
  /// Body runs in a Proc placed on the node the scheduler picks.
  std::function<sim::Task<void>(runtime::Proc&)> body;
};

class Dag {
 public:
  /// Returns the task id.
  int add_task(TaskSpec spec);
  /// `task` cannot start until `dep` finished.
  void add_dependency(int task, int dep);

  std::size_t size() const noexcept { return tasks_.size(); }
  const TaskSpec& task(int id) const { return tasks_.at(static_cast<std::size_t>(id)); }
  const std::vector<int>& deps(int id) const {
    return deps_.at(static_cast<std::size_t>(id));
  }

  /// True when the dependency graph has no cycle.
  bool acyclic() const;

 private:
  std::vector<TaskSpec> tasks_;
  std::vector<std::vector<int>> deps_;
};

/// pegasus-mpi-cluster model: `slots` worker processes spread over the
/// job's nodes execute ready tasks; each task occupies one slot.
class PegasusScheduler {
 public:
  struct Options {
    int slots = 64;            ///< total worker processes
    int nodes = 1;             ///< nodes the pool spans
  };

  PegasusScheduler(runtime::Simulation& sim, Options opts);

  /// Run the whole DAG to completion. `dag` must outlive the returned
  /// task; `app_id_of` is taken by value because coroutines outlive their
  /// call expression (a reference to a temporary would dangle). A task
  /// that throws stops further launches; run() rethrows the first error
  /// once the tasks already running finish.
  sim::Task<void> run(const Dag& dag,
                      std::function<std::uint16_t(const std::string&)>
                          app_id_of);

  std::uint64_t tasks_executed() const noexcept { return executed_; }

 private:
  runtime::Simulation& sim_;
  Options opts_;
  std::uint64_t executed_ = 0;
};

}  // namespace wasp::workflow
