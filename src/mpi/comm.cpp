#include "mpi/comm.hpp"

#include <algorithm>

#include "util/error.hpp"

namespace wasp::mpi {
namespace {

int ceil_log2(int n) noexcept {
  int bits = 0;
  for (int v = n - 1; v > 0; v >>= 1) ++bits;
  return std::max(bits, 1);
}

}  // namespace

Comm::Comm(sim::Engine& eng, std::vector<int> rank_to_node, NetParams net)
    : eng_(eng), rank_to_node_(std::move(rank_to_node)), net_(net) {
  WASP_CHECK_MSG(!rank_to_node_.empty(), "empty communicator");
  num_nodes_ = *std::max_element(rank_to_node_.begin(), rank_to_node_.end()) +
               1;
  node_ranks_.resize(static_cast<std::size_t>(num_nodes_));
  for (int r = 0; r < size(); ++r) {
    node_ranks_[static_cast<std::size_t>(rank_to_node_[
        static_cast<std::size_t>(r)])].push_back(r);
  }
  leader_by_rank_.resize(rank_to_node_.size());
  for (int r = 0; r < size(); ++r) {
    const auto& ranks =
        node_ranks_[static_cast<std::size_t>(rank_to_node_[
            static_cast<std::size_t>(r)])];
    WASP_CHECK(!ranks.empty());
    leader_by_rank_[static_cast<std::size_t>(r)] = ranks.front();
  }
  tree_latency_ = net_.latency * static_cast<sim::Time>(ceil_log2(size()));
}

int Comm::node_of(int rank) const {
  WASP_CHECK_MSG(rank >= 0 && rank < size(), "rank out of range");
  return rank_to_node_[static_cast<std::size_t>(rank)];
}

const std::vector<int>& Comm::ranks_on_node(int node) const {
  WASP_CHECK_MSG(node >= 0 && node < num_nodes_, "node out of range");
  return node_ranks_[static_cast<std::size_t>(node)];
}

bool Comm::BarrierAwaiter::await_suspend(std::coroutine_handle<> h) {
  Comm& c = comm_;
  if (++c.barrier_arrived_ < c.size()) {
    c.barrier_waiters_.push_back(h);
    return true;
  }
  c.barrier_arrived_ = 0;
  last_ = true;
  if (c.tree_latency_ == 0) return false;  // release in await_resume now
  c.eng_.schedule_after(c.tree_latency_, h);
  return true;
}

void Comm::release_barrier() {
  const auto n = static_cast<std::size_t>(size() - 1);
  for (std::size_t i = 0; i < n; ++i) {
    eng_.schedule(eng_.now(), barrier_waiters_[i]);
  }
  barrier_waiters_.erase(barrier_waiters_.begin(),
                         barrier_waiters_.begin() +
                             static_cast<std::ptrdiff_t>(n));
}

sim::Task<void> Comm::allreduce(util::Bytes n) {
  co_await barrier();
  if (n > 0) {
    // Recursive-doubling: log2(P) rounds, each moving n bytes.
    const double sec = static_cast<double>(n) / net_.bandwidth_bps *
                       ceil_log2(size());
    co_await sim::Delay(eng_, tree_latency() + sim::seconds(sec));
  }
}

}  // namespace wasp::mpi
