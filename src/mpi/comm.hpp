// Simulated MPI communicator.
//
// Models the synchronization and network cost of the MPI operations the
// workload patterns replay — barrier and allreduce — plus the node topology
// queries collective I/O aggregation needs. Collectives charge an analytic
// log2(P) latency + bandwidth term.
#pragma once

#include <coroutine>
#include <cstdint>
#include <vector>

#include "sim/engine.hpp"
#include "sim/task.hpp"
#include "util/units.hpp"

namespace wasp::mpi {

struct NetParams {
  double bandwidth_bps = 12.5e9;
  sim::Time latency = 1 * sim::kUs;
};

class Comm {
 public:
  /// rank_to_node[r] = node hosting rank r.
  Comm(sim::Engine& eng, std::vector<int> rank_to_node, NetParams net);

  int size() const noexcept { return static_cast<int>(rank_to_node_.size()); }
  int node_of(int rank) const;
  int num_nodes() const noexcept { return num_nodes_; }
  const std::vector<int>& ranks_on_node(int node) const;
  /// Lowest rank mapped to the same node as `rank`. Precomputed at
  /// construction: the MPI-IO aggregation path asks on every collective op.
  int node_leader(int rank) const {
    WASP_CHECK_MSG(rank >= 0 && rank < size(), "rank out of range");
    return leader_by_rank_[static_cast<std::size_t>(rank)];
  }
  bool is_node_leader(int rank) const { return node_leader(rank) == rank; }

  /// Awaitable returned by barrier(). A plain awaiter, not a Task: an
  /// arrival costs no coroutine frame, and every rank parks on the
  /// communicator's one waiter list.
  class BarrierAwaiter {
   public:
    explicit BarrierAwaiter(Comm& comm) noexcept : comm_(comm) {}
    bool await_ready() const noexcept { return false; }
    bool await_suspend(std::coroutine_handle<> h);
    void await_resume() {
      if (last_) comm_.release_barrier();
    }

   private:
    Comm& comm_;
    bool last_ = false;
  };

  /// All ranks must call; completes when the last arrives (+ log2 latency).
  /// The last arrival waits out the tree latency itself, then wakes the
  /// others in arrival order at that instant.
  BarrierAwaiter barrier() noexcept { return BarrierAwaiter(*this); }

  /// Allreduce of n bytes; all ranks call.
  sim::Task<void> allreduce(util::Bytes n);

  const NetParams& net() const noexcept { return net_; }

  /// Latency of a log-tree collective over P ranks.
  sim::Time tree_latency() const noexcept { return tree_latency_; }

 private:
  /// Wake the size() - 1 oldest barrier waiters: the generation whose last
  /// arrival is resuming. Releases run in generation order (a later
  /// generation's last rank arrives, and so resumes, no earlier), so that
  /// generation is always the front of the list.
  void release_barrier();

  sim::Engine& eng_;
  std::vector<int> rank_to_node_;
  std::vector<std::vector<int>> node_ranks_;
  std::vector<int> leader_by_rank_;
  sim::Time tree_latency_ = 0;
  int num_nodes_ = 0;
  NetParams net_;

  // Arrivals in the open barrier generation, and the ranks parked on any
  // generation not yet released.
  int barrier_arrived_ = 0;
  std::vector<std::coroutine_handle<>> barrier_waiters_;
};

}  // namespace wasp::mpi
