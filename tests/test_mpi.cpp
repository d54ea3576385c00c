// Simulated MPI communicator tests.
#include <gtest/gtest.h>

#include <vector>

#include "mpi/comm.hpp"
#include "sim/engine.hpp"
#include "sim/frame_pool.hpp"

namespace wasp::mpi {
namespace {

using sim::Engine;
using sim::Task;

TEST(Comm, TopologyQueries) {
  Engine eng;
  Comm comm(eng, {0, 0, 1, 1, 2, 2}, NetParams{});
  EXPECT_EQ(comm.size(), 6);
  EXPECT_EQ(comm.num_nodes(), 3);
  EXPECT_EQ(comm.node_of(3), 1);
  EXPECT_EQ(comm.node_leader(3), 2);
  EXPECT_TRUE(comm.is_node_leader(2));
  EXPECT_FALSE(comm.is_node_leader(3));
  EXPECT_EQ(comm.ranks_on_node(2), (std::vector<int>{4, 5}));
}

TEST(Comm, BarrierReleasesAllAtLastArrival) {
  Engine eng;
  Comm comm(eng, {0, 0, 1, 1}, NetParams{12.5e9, 1 * sim::kUs});
  std::vector<sim::Time> released;
  auto rank_prog = [](Engine& e, Comm& c, int rank,
                      std::vector<sim::Time>& out) -> Task<void> {
    co_await sim::Delay(e, static_cast<sim::Time>(rank) * sim::kMs);
    co_await c.barrier();
    out.push_back(e.now());
  };
  for (int r = 0; r < 4; ++r) eng.spawn(rank_prog(eng, comm, r, released));
  eng.run();
  ASSERT_EQ(released.size(), 4u);
  // Everyone releases at last arrival (3ms) + log2(4)*1us tree latency.
  for (auto t : released) EXPECT_EQ(t, 3 * sim::kMs + 2 * sim::kUs);
}

TEST(Comm, BarrierGenerationsDoNotMix) {
  Engine eng;
  Comm comm(eng, {0, 0}, NetParams{});
  int phase_counter = 0;
  auto prog = [](Comm& c, int& counter) -> Task<void> {
    co_await c.barrier();
    ++counter;
    co_await c.barrier();
    ++counter;
  };
  eng.spawn(prog(comm, phase_counter));
  eng.spawn(prog(comm, phase_counter));
  eng.run();
  EXPECT_EQ(phase_counter, 4);
}

TEST(Comm, BarrierWithZeroTreeLatencyReleasesAtLastArrival) {
  Engine eng;
  Comm comm(eng, {0, 0, 1}, NetParams{12.5e9, 0});
  ASSERT_EQ(comm.tree_latency(), 0);
  std::vector<int> order;
  std::vector<sim::Time> released;
  auto rank_prog = [](Engine& e, Comm& c, int rank, std::vector<int>& ord,
                      std::vector<sim::Time>& out) -> Task<void> {
    co_await sim::Delay(e, static_cast<sim::Time>(rank) * sim::kMs);
    co_await c.barrier();
    ord.push_back(rank);
    out.push_back(e.now());
  };
  for (int r = 0; r < 3; ++r) {
    eng.spawn(rank_prog(eng, comm, r, order, released));
  }
  eng.run();
  // The last arrival continues at once; the others wake in arrival order.
  EXPECT_EQ(order, (std::vector<int>{2, 0, 1}));
  for (auto t : released) EXPECT_EQ(t, 2 * sim::kMs);
}

TEST(Comm, OneRankBarrierPaysOnlyTreeLatency) {
  Engine eng;
  Comm comm(eng, {0}, NetParams{12.5e9, 1 * sim::kUs});
  auto prog = [](Comm& c) -> Task<void> {
    for (int i = 0; i < 3; ++i) co_await c.barrier();
  };
  eng.spawn(prog(comm));
  eng.run();
  EXPECT_TRUE(eng.all_roots_done());
  EXPECT_EQ(eng.now(), 3 * comm.tree_latency());
}

// A barrier is a plain awaitable: only the rank programs' own frames come
// from the frame pool, however many rounds they run.
TEST(Comm, BarrierRoundsAllocateNoFrames) {
  auto frames_for = [](int rounds) {
    const auto before = sim::FramePool::thread_stats();
    {
      Engine eng;
      Comm comm(eng, {0, 0, 1, 1}, NetParams{});
      auto prog = [](Comm& c, int n) -> Task<void> {
        for (int i = 0; i < n; ++i) co_await c.barrier();
      };
      for (int r = 0; r < 4; ++r) eng.spawn(prog(comm, rounds));
      eng.run();
      EXPECT_TRUE(eng.all_roots_done());
    }
    const auto after = sim::FramePool::thread_stats();
    return (after.hits + after.misses + after.oversize) -
           (before.hits + before.misses + before.oversize);
  };
  const std::uint64_t one_round = frames_for(1);
  EXPECT_EQ(frames_for(100), one_round);
}

TEST(Comm, AllreduceSynchronizes) {
  Engine eng;
  Comm comm(eng, {0, 1, 2, 3}, NetParams{1e9, 1 * sim::kUs});
  std::vector<sim::Time> done;
  auto prog = [](Engine& e, Comm& c, int rank,
                 std::vector<sim::Time>& out) -> Task<void> {
    co_await sim::Delay(e, static_cast<sim::Time>(rank) * sim::kMs);
    co_await c.allreduce(1024);
    out.push_back(e.now());
  };
  for (int r = 0; r < 4; ++r) eng.spawn(prog(eng, comm, r, done));
  eng.run();
  ASSERT_EQ(done.size(), 4u);
  for (auto t : done) EXPECT_GE(t, 3 * sim::kMs);
}

}  // namespace
}  // namespace wasp::mpi
