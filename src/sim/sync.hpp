// Synchronization primitives for simulated processes: broadcast events,
// counted resources (FIFO semaphores) and RAII resource guards.
#pragma once

#include <coroutine>
#include <cstddef>
#include <deque>
#include <utility>
#include <vector>

#include "sim/engine.hpp"

namespace wasp::sim {

/// One-shot (resettable) broadcast event. All waiters resume, in wait order,
/// at the simulated instant set() is called.
class Event {
 public:
  explicit Event(Engine& eng) noexcept : eng_(eng) {}

  void set() {
    set_ = true;
    for (auto h : waiters_) eng_.schedule(eng_.now(), h);
    waiters_.clear();
  }

  void reset() noexcept { set_ = false; }

  auto wait() noexcept {
    struct Awaiter {
      Event& ev;
      bool await_ready() const noexcept { return ev.set_; }
      void await_suspend(std::coroutine_handle<> h) {
        ev.waiters_.push_back(h);
      }
      void await_resume() const noexcept {}
    };
    return Awaiter{*this};
  }

 private:
  Engine& eng_;
  bool set_ = false;
  std::vector<std::coroutine_handle<>> waiters_;
};

class Resource;

/// RAII token for a unit of a Resource; releasing wakes the next waiter.
class ResourceGuard {
 public:
  ResourceGuard() = default;
  explicit ResourceGuard(Resource* r) noexcept : res_(r) {}
  ResourceGuard(ResourceGuard&& o) noexcept
      : res_(std::exchange(o.res_, nullptr)) {}
  ResourceGuard& operator=(ResourceGuard&& o) noexcept {
    if (this != &o) {
      release();
      res_ = std::exchange(o.res_, nullptr);
    }
    return *this;
  }
  ResourceGuard(const ResourceGuard&) = delete;
  ResourceGuard& operator=(const ResourceGuard&) = delete;
  ~ResourceGuard() { release(); }

  void release() noexcept;
  bool owns() const noexcept { return res_ != nullptr; }

 private:
  Resource* res_ = nullptr;
};

/// Counted resource with strict FIFO admission — models bounded concurrency
/// (metadata-service slots, per-server stream slots, CPU cores).
class Resource {
 public:
  Resource(Engine& eng, std::size_t capacity) noexcept
      : eng_(eng), available_(capacity), capacity_(capacity) {}

  std::size_t capacity() const noexcept { return capacity_; }
  std::size_t available() const noexcept { return available_; }
  std::size_t queue_length() const noexcept { return waiters_.size(); }

  /// co_await acquire() -> ResourceGuard (released on destruction).
  auto acquire() noexcept {
    struct Awaiter {
      Resource& res;
      // Fast path takes the unit inside await_ready so that a process
      // resuming between a release() and its woken waiter cannot steal a
      // token that was transferred to the waiter.
      bool await_ready() noexcept {
        if (res.available_ > 0 && res.waiters_.empty()) {
          --res.available_;
          return true;
        }
        return false;
      }
      void await_suspend(std::coroutine_handle<> h) {
        res.waiters_.push_back(h);
      }
      ResourceGuard await_resume() noexcept { return ResourceGuard(&res); }
    };
    return Awaiter{*this};
  }

  void release() noexcept {
    if (!waiters_.empty()) {
      // Transfer the token directly to the next waiter; available_ is
      // unchanged because ownership never returns to the pool.
      auto h = waiters_.front();
      waiters_.pop_front();
      eng_.schedule(eng_.now(), h);
    } else {
      ++available_;
    }
  }

 private:
  Engine& eng_;
  std::size_t available_;
  std::size_t capacity_;
  std::deque<std::coroutine_handle<>> waiters_;
};

inline void ResourceGuard::release() noexcept {
  if (res_ != nullptr) {
    res_->release();
    res_ = nullptr;
  }
}

}  // namespace wasp::sim
