// Fork/join support: run several Tasks concurrently inside one process and
// wait for all of them (used for striped transfers, collective I/O
// aggregators, and workflow stages).
#pragma once

#include <coroutine>
#include <exception>
#include <utility>
#include <vector>

#include "sim/engine.hpp"
#include "sim/sync.hpp"
#include "sim/task.hpp"

namespace wasp::sim {

/// Fire-and-forget coroutine: starts immediately and self-destructs on
/// completion. Exceptions must not escape (they would std::terminate), so it
/// is only created by WaitGroup, which routes errors into the group. Its
/// frame comes from the frame pool, like a Task's.
struct Detached {
  struct promise_type : detail::PooledFrame {
    Detached get_return_object() noexcept { return {}; }
    std::suspend_never initial_suspend() noexcept { return {}; }
    std::suspend_never final_suspend() noexcept { return {}; }
    void return_void() noexcept {}
    void unhandled_exception() noexcept { std::terminate(); }
  };
};

/// Counts outstanding children; wait() resumes when all have finished.
/// The first child exception is rethrown from wait().
class WaitGroup {
 public:
  explicit WaitGroup(Engine& eng) : eng_(eng), done_(eng) {}
  WaitGroup(const WaitGroup&) = delete;
  WaitGroup& operator=(const WaitGroup&) = delete;

  /// Launch a child task under this group. The child begins executing
  /// immediately (synchronously up to its first suspension).
  void launch(Task<void> task) {
    ++outstanding_;
    run_child(std::move(task));
  }

  Task<void> wait() {
    if (outstanding_ > 0) {
      done_.reset();
      co_await done_.wait();
    }
    if (error_) {
      auto e = std::exchange(error_, nullptr);
      std::rethrow_exception(e);
    }
  }

  std::size_t outstanding() const noexcept { return outstanding_; }

 private:
  Detached run_child(Task<void> task) {
    try {
      co_await std::move(task);
    } catch (...) {
      if (!error_) error_ = std::current_exception();
    }
    if (--outstanding_ == 0) done_.set();
  }

  Engine& eng_;
  Event done_;
  std::size_t outstanding_ = 0;
  std::exception_ptr error_;
};

}  // namespace wasp::sim
