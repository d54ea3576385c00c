// Coroutine task type for the discrete-event simulator.
//
// Every simulated activity (a rank's program, a file transfer, a collective)
// is a Task<T>. Awaiting a Task starts the child with symmetric transfer and
// resumes the parent when the child finishes, so a simulated process is plain
// structured code:
//
//   sim::Task<void> run_rank(Proc& p) {
//     co_await p.compute(10 * sim::kMs);
//     auto fd = co_await p.posix().open("/p/gpfs1/out", OpenMode::kWrite);
//     ...
//   }
//
// Tasks are lazy (initial_suspend = suspend_always): nothing runs until the
// task is awaited or spawned on an Engine. Exceptions propagate to the
// awaiter; exceptions escaping a root task abort Engine::run().
#pragma once

#include <coroutine>
#include <cstddef>
#include <exception>
#include <utility>

#include "sim/frame_pool.hpp"
#include "util/error.hpp"

namespace wasp::sim {

namespace detail {

/// Base of every promise type in the simulator: coroutine frames allocate
/// through the size-bucketed freelist arena (sim/frame_pool.hpp) instead of
/// the global allocator; both sized and unsized delete route back
/// (compilers differ on which one frames call).
struct PooledFrame {
  static void* operator new(std::size_t n) { return FramePool::allocate(n); }
  static void operator delete(void* p) noexcept { FramePool::deallocate(p); }
  static void operator delete(void* p, std::size_t) noexcept {
    FramePool::deallocate(p);
  }
};

struct PromiseBase : PooledFrame {
  std::coroutine_handle<> continuation;
  std::exception_ptr error;

  struct FinalAwaiter {
    bool await_ready() const noexcept { return false; }
    template <typename Promise>
    std::coroutine_handle<> await_suspend(
        std::coroutine_handle<Promise> h) noexcept {
      auto cont = h.promise().continuation;
      return cont ? cont : std::noop_coroutine();
    }
    void await_resume() const noexcept {}
  };

  std::suspend_always initial_suspend() noexcept { return {}; }
  FinalAwaiter final_suspend() noexcept { return {}; }
  void unhandled_exception() noexcept { error = std::current_exception(); }
};

}  // namespace detail

template <typename T = void>
class [[nodiscard]] Task;

template <typename T>
class [[nodiscard]] Task {
 public:
  struct promise_type : detail::PromiseBase {
    T value{};
    Task get_return_object() {
      return Task(std::coroutine_handle<promise_type>::from_promise(*this));
    }
    void return_value(T v) { value = std::move(v); }
  };

  Task() = default;
  explicit Task(std::coroutine_handle<promise_type> h) : handle_(h) {}
  Task(Task&& o) noexcept : handle_(std::exchange(o.handle_, {})) {}
  Task& operator=(Task&& o) noexcept {
    if (this != &o) {
      destroy();
      handle_ = std::exchange(o.handle_, {});
    }
    return *this;
  }
  Task(const Task&) = delete;
  Task& operator=(const Task&) = delete;
  ~Task() { destroy(); }

  bool valid() const noexcept { return static_cast<bool>(handle_); }
  bool done() const noexcept { return handle_ && handle_.done(); }

  // Awaiting interface.
  bool await_ready() const noexcept { return !handle_ || handle_.done(); }
  std::coroutine_handle<> await_suspend(std::coroutine_handle<> parent) {
    handle_.promise().continuation = parent;
    return handle_;  // symmetric transfer into the child
  }
  T await_resume() {
    WASP_CHECK_MSG(handle_ != nullptr, "awaiting empty Task");
    if (handle_.promise().error) {
      std::rethrow_exception(handle_.promise().error);
    }
    return std::move(handle_.promise().value);
  }

  std::coroutine_handle<promise_type> handle() const noexcept {
    return handle_;
  }
  /// Relinquish ownership (used by Engine::spawn to manage lifetime).
  std::coroutine_handle<promise_type> release() noexcept {
    return std::exchange(handle_, {});
  }

 private:
  void destroy() {
    if (handle_) {
      handle_.destroy();
      handle_ = {};
    }
  }
  std::coroutine_handle<promise_type> handle_;
};

template <>
class [[nodiscard]] Task<void> {
 public:
  struct promise_type : detail::PromiseBase {
    Task get_return_object() {
      return Task(std::coroutine_handle<promise_type>::from_promise(*this));
    }
    void return_void() noexcept {}
  };

  Task() = default;
  explicit Task(std::coroutine_handle<promise_type> h) : handle_(h) {}
  Task(Task&& o) noexcept : handle_(std::exchange(o.handle_, {})) {}
  Task& operator=(Task&& o) noexcept {
    if (this != &o) {
      destroy();
      handle_ = std::exchange(o.handle_, {});
    }
    return *this;
  }
  Task(const Task&) = delete;
  Task& operator=(const Task&) = delete;
  ~Task() { destroy(); }

  bool valid() const noexcept { return static_cast<bool>(handle_); }
  bool done() const noexcept { return handle_ && handle_.done(); }

  bool await_ready() const noexcept { return !handle_ || handle_.done(); }
  std::coroutine_handle<> await_suspend(std::coroutine_handle<> parent) {
    handle_.promise().continuation = parent;
    return handle_;
  }
  void await_resume() {
    WASP_CHECK_MSG(handle_ != nullptr, "awaiting empty Task");
    if (handle_.promise().error) {
      std::rethrow_exception(handle_.promise().error);
    }
  }

  std::coroutine_handle<promise_type> handle() const noexcept {
    return handle_;
  }
  std::coroutine_handle<promise_type> release() noexcept {
    return std::exchange(handle_, {});
  }

 private:
  void destroy() {
    if (handle_) {
      handle_.destroy();
      handle_ = {};
    }
  }
  std::coroutine_handle<promise_type> handle_;
};

}  // namespace wasp::sim
