// Additional engine/coroutine coverage: spawn-during-run, WaitGroup error
// propagation and reuse, zero-byte collectives, Task value semantics.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "mpi/comm.hpp"
#include "sim/engine.hpp"
#include "sim/frame_pool.hpp"
#include "sim/waitgroup.hpp"

namespace wasp::sim {
namespace {

Task<void> marker(Engine& eng, Time d, std::vector<Time>& out) {
  co_await Delay(eng, d);
  out.push_back(eng.now());
}

TEST(EngineExtra, SpawnDuringRunIsProcessed) {
  Engine eng;
  std::vector<Time> marks;
  auto spawner = [](Engine& e, std::vector<Time>& out) -> Task<void> {
    co_await Delay(e, 1 * kSec);
    e.spawn(marker(e, 2 * kSec, out));  // a drain-style background task
    out.push_back(e.now());
  };
  eng.spawn(spawner(eng, marks));
  eng.run();
  ASSERT_EQ(marks.size(), 2u);
  EXPECT_EQ(marks[0], 1 * kSec);
  EXPECT_EQ(marks[1], 3 * kSec);
  EXPECT_TRUE(eng.all_roots_done());
}

TEST(TaskExtra, MoveOnlyValuesPropagate) {
  Engine eng;
  auto child = [](Engine& e) -> Task<std::unique_ptr<std::string>> {
    co_await Delay(e, 1);
    co_return std::make_unique<std::string>("payload");
  };
  std::string got;
  auto parent = [&got, child](Engine& e) -> Task<void> {
    auto p = co_await child(e);
    got = *p;
  };
  eng.spawn(parent(eng));
  eng.run();
  EXPECT_EQ(got, "payload");
}

TEST(WaitGroupExtra, PropagatesFirstChildError) {
  Engine eng;
  auto ok = [](Engine& e) -> Task<void> { co_await Delay(e, 5); };
  auto bad = [](Engine& e) -> Task<void> {
    co_await Delay(e, 1);
    throw std::runtime_error("child failed");
  };
  bool caught = false;
  auto parent = [&](Engine& e) -> Task<void> {
    WaitGroup wg(e);
    wg.launch(ok(e));
    wg.launch(bad(e));
    wg.launch(ok(e));
    try {
      co_await wg.wait();
    } catch (const std::runtime_error& ex) {
      caught = std::string(ex.what()) == "child failed";
    }
  };
  eng.spawn(parent(eng));
  eng.run();
  EXPECT_TRUE(caught);
}

TEST(WaitGroupExtra, ReusableAcrossWaves) {
  Engine eng;
  int completed = 0;
  auto work = [](Engine& e, int& n) -> Task<void> {
    co_await Delay(e, 10);
    ++n;
  };
  auto parent = [&](Engine& e) -> Task<void> {
    WaitGroup wg(e);
    for (int wave = 0; wave < 3; ++wave) {
      for (int i = 0; i < 4; ++i) wg.launch(work(e, completed));
      co_await wg.wait();
      EXPECT_EQ(wg.outstanding(), 0u);
    }
  };
  eng.spawn(parent(eng));
  eng.run();
  EXPECT_EQ(completed, 12);
}

TEST(WaitGroup, ChildFramesComeFromThePool) {
  // The children's own Task frames are made before the count starts; each
  // launch then adds exactly one frame, the child's wrapper.
  auto pooled = [] {
    const FramePool::ThreadStats s = FramePool::thread_stats();
    return s.hits + s.misses + s.oversize;
  };
  auto idle = []() -> Task<void> { co_return; };
  constexpr std::uint64_t kChildren = 16;
  std::vector<Task<void>> children;
  for (std::uint64_t i = 0; i < kChildren; ++i) children.push_back(idle());
  Engine eng;
  WaitGroup wg(eng);
  const std::uint64_t before = pooled();
  for (Task<void>& child : children) wg.launch(std::move(child));
  EXPECT_EQ(pooled() - before, kChildren);
  EXPECT_EQ(wg.outstanding(), 0u);
}

TEST(WaitGroupExtra, WaitWithNoChildrenReturnsImmediately) {
  Engine eng;
  bool done = false;
  auto parent = [&done](Engine& e) -> Task<void> {
    WaitGroup wg(e);
    co_await wg.wait();
    done = true;
  };
  eng.spawn(parent(eng));
  eng.run();
  EXPECT_TRUE(done);
  EXPECT_EQ(eng.now(), 0u);
}

TEST(CommExtra, ZeroByteCollectivesStillSynchronize) {
  Engine eng;
  mpi::Comm comm(eng, {0, 1}, mpi::NetParams{1e9, 1 * kUs});
  std::vector<Time> done(2);
  auto prog = [](Engine& e, mpi::Comm& c, int rank,
                 std::vector<Time>& out) -> Task<void> {
    co_await Delay(e, rank == 0 ? 0 : 5 * kSec);
    co_await c.allreduce(0);
    out[static_cast<std::size_t>(rank)] = e.now();
  };
  eng.spawn(prog(eng, comm, 0, done));
  eng.spawn(prog(eng, comm, 1, done));
  eng.run();
  EXPECT_GE(done[0], 5 * kSec);  // rank 0 waited for rank 1
}

}  // namespace
}  // namespace wasp::sim
