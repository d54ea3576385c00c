// Deterministic discrete-event engine.
//
// The engine owns a queue of (time, sequence, coroutine) wake-ups. Sequence
// numbers break ties FIFO, so two events at the same instant always run in
// schedule order — runs are bit-reproducible. Two interchangeable pop-min
// structures sit behind Options::queue (sim/event_queue.hpp): the bucketed
// timer wheel (default, O(1) for the same-instant barrier storms HPC
// workloads generate) and the binary heap kept as the equivalence oracle —
// the same seam shape as Analyzer::Options::reference_scan.
#pragma once

#include <cassert>
#include <coroutine>
#include <cstdint>
#include <vector>

#include "sim/event_queue.hpp"
#include "sim/task.hpp"
#include "sim/time.hpp"
#include "util/error.hpp"

namespace wasp::sim {

class Engine {
 public:
  enum class QueueKind { kHeap, kWheel };

  struct Options {
    QueueKind queue = QueueKind::kWheel;
  };

  Engine() = default;
  explicit Engine(const Options& opts) : opts_(opts) {}
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;
  ~Engine();

  Time now() const noexcept { return now_; }

  /// Wake coroutine `h` at absolute time `at`. Scheduling into the past is
  /// a contract violation: asserts in debug builds, throws util::SimError
  /// in every build.
  void schedule(Time at, std::coroutine_handle<> h) {
    assert(at >= now_ && "Engine::schedule into the past");
    WASP_CHECK_MSG(at >= now_, "scheduling into the past");
    const std::uint64_t seq = seq_++;
    if (opts_.queue == QueueKind::kWheel) {
      wheel_.push(at, seq, h);
    } else {
      heap_.push(at, seq, h);
    }
  }

  /// Wake coroutine `h` after `delay`.
  void schedule_after(Time delay, std::coroutine_handle<> h) {
    schedule(now_ + delay, h);
  }

  /// Adopt a root task: it starts at the current time and the engine keeps
  /// it alive until destruction.
  void spawn(Task<void> task);

  /// Run until the event queue is empty. Rethrows the first exception that
  /// escaped a root task.
  void run();

  /// Run until the event queue is empty or simulated time would pass `limit`.
  /// Returns true if the queue drained.
  bool run_until(Time limit);

  std::uint64_t events_processed() const noexcept { return events_; }
  std::size_t pending_events() const noexcept {
    return opts_.queue == QueueKind::kWheel ? wheel_.size() : heap_.size();
  }

  /// Wheel-tier traffic counters (all zero when running on the heap queue).
  const WheelEventQueue::Stats& wheel_stats() const noexcept {
    return wheel_.stats();
  }

  /// True when every spawned root task ran to completion (deadlock /
  /// starvation detector for tests).
  bool all_roots_done() const noexcept;

 private:
  template <typename Queue>
  void drain(Queue& q, Time limit);
  void check_root_errors();

  Options opts_;
  HeapEventQueue heap_;
  WheelEventQueue wheel_;
  std::vector<std::coroutine_handle<Task<void>::promise_type>> roots_;
  Time now_ = 0;
  std::uint64_t seq_ = 0;
  std::uint64_t events_ = 0;
};

/// Awaitable that advances the owning process's clock.
class Delay {
 public:
  Delay(Engine& eng, Time d) noexcept : eng_(eng), d_(d) {}
  bool await_ready() const noexcept { return d_ == 0; }
  void await_suspend(std::coroutine_handle<> h) { eng_.schedule_after(d_, h); }
  void await_resume() const noexcept {}

 private:
  Engine& eng_;
  Time d_;
};

}  // namespace wasp::sim
