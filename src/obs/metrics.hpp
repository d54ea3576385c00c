// Process-wide metrics registry — the counter half of the telemetry layer
// (obs/span.hpp is the tracing half; obs/obs.hpp pulls in both).
//
// Three metric kinds, all named by stable string keys:
//
//   Counter    monotonic u64, thread-local sharded: add() touches only the
//              calling thread's shard slot, and snapshot() sums live shards
//              + the folded values of threads that already exited — hot
//              paths never share a cache line, and a snapshot never blocks
//              writers. A shard has one writer, so add() is a relaxed load
//              and store, not a locked read-modify-write.
//   Gauge      last-write-wins i64 (plus a monotonic-max variant).
//   Histogram  bounded power-of-two histogram of u64 samples: bucket b >= 1
//              counts values in [2^(b-1), 2^b), bucket 0 counts zeros.
//              Sharded exactly like counters.
//
// CounterCell is the per-instance escape hatch: an owned shard bound to a
// named metric. The owner reads its own cell for instance-local stats
// (SpillColumnStore's IoStats accessor) while the registry folds every cell
// into the same process-wide metric; destroyed cells fold into a retired
// accumulator so registry totals stay monotonic.
//
// Telemetry is strictly read-only with respect to simulation and analysis
// results: nothing here feeds back into any computation. Counter/histogram
// accumulation is always on (an add on a thread-owned slot); everything
// that must read a clock gates on Registry::timing_enabled(), so the
// disabled cost is one branch.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace wasp::obs {

/// Monotonic nanoseconds since the first call in this process (one shared
/// epoch, so metric timings and span timestamps line up).
std::uint64_t now_ns() noexcept;

/// One registry snapshot, decoupled from the live registry so callers can
/// diff two snapshots (per-phase deltas) and serialize without holding
/// locks. Entries are sorted by name.
struct Snapshot {
  enum class Kind { kCounter, kGauge, kHistogram };
  struct Entry {
    std::string name;
    Kind kind = Kind::kCounter;
    /// Counter total or gauge value (histograms: sum of samples).
    std::uint64_t value = 0;
    /// Histogram sample count (0 for counters/gauges).
    std::uint64_t count = 0;
    /// Histogram: (bucket index, count) for every non-empty bucket; bucket
    /// b >= 1 covers [2^(b-1), 2^b), bucket 0 is the zero-value bucket.
    std::vector<std::pair<std::uint32_t, std::uint64_t>> buckets;
  };
  std::vector<Entry> entries;

  const Entry* find(std::string_view name) const noexcept;
  /// Counter/gauge value, histogram sum; 0 when absent.
  std::uint64_t value(std::string_view name) const noexcept;
  /// Histogram sample count; 0 when absent or not a histogram.
  std::uint64_t hist_count(std::string_view name) const noexcept;
  /// This snapshot minus `earlier`: counters and histograms subtract
  /// (entries missing from `earlier` pass through), gauges keep the later
  /// value. Entries absent from *this* are dropped.
  Snapshot delta(const Snapshot& earlier) const;
};

namespace detail {
inline constexpr std::uint32_t kInvalidSlot = 0xffffffffu;
/// Hard cap on shard slots (a counter uses 1, a histogram 66). Metric
/// names are static in code; blowing the cap yields inert handles, never
/// UB. 4096 slots = 32 KiB per thread shard.
inline constexpr std::uint32_t kMaxSlots = 4096;
inline constexpr std::uint32_t kMaxGauges = 256;
inline constexpr std::uint32_t kHistBuckets = 65;  // zeros + log2 1..64
inline constexpr std::uint32_t kHistSlots = kHistBuckets + 1;  // + sum slot
/// The calling thread's shard slots (created and registered on first use;
/// folded into the retired accumulator when the thread exits).
std::atomic<std::uint64_t>* tls_slots();
std::uint32_t value_bucket(std::uint64_t v) noexcept;
/// Add to a slot that only the calling thread writes: a relaxed load and
/// store, no locked read-modify-write. Readers on other threads (snapshot())
/// still load whole values.
inline void bump(std::atomic<std::uint64_t>& slot,
                 std::uint64_t n) noexcept {
  slot.store(slot.load(std::memory_order_relaxed) + n,
             std::memory_order_relaxed);
}
}  // namespace detail

/// Cheap copyable handle; obtain from Registry::counter(). A
/// default-constructed (or cap-overflow) handle is inert.
class Counter {
 public:
  Counter() = default;
  void add(std::uint64_t n = 1) const noexcept {
    if (slot_ == detail::kInvalidSlot) return;
    detail::bump(detail::tls_slots()[slot_], n);
  }

 private:
  friend class Registry;
  friend class CounterCell;
  explicit Counter(std::uint32_t slot) : slot_(slot) {}
  std::uint32_t slot_ = detail::kInvalidSlot;
};

class Gauge {
 public:
  Gauge() = default;
  void set(std::int64_t v) const noexcept;
  /// Monotonic max update.
  void set_max(std::int64_t v) const noexcept;

 private:
  friend class Registry;
  explicit Gauge(std::uint32_t idx) : idx_(idx) {}
  std::uint32_t idx_ = detail::kInvalidSlot;
};

class Histogram {
 public:
  Histogram() = default;
  void add(std::uint64_t v) const noexcept {
    if (first_ == detail::kInvalidSlot) return;
    auto* s = detail::tls_slots();
    detail::bump(s[first_], v);  // sum slot
    detail::bump(s[first_ + 1 + detail::value_bucket(v)], 1);
  }

 private:
  friend class Registry;
  explicit Histogram(std::uint32_t first) : first_(first) {}
  std::uint32_t first_ = detail::kInvalidSlot;
};

/// An owned shard of a named counter: increments are instance-local (the
/// owner can read value() back), and the registry folds every live cell
/// into the metric's process-wide total. Destruction folds the final value
/// into the retired accumulator, keeping registry totals monotonic.
class CounterCell {
 public:
  explicit CounterCell(std::string_view name);
  ~CounterCell();
  CounterCell(const CounterCell&) = delete;
  CounterCell& operator=(const CounterCell&) = delete;

  /// Safe from any thread (the spill store's cells are bumped by cursors
  /// and its prefetch thread alike).
  void add(std::uint64_t n = 1) noexcept {
    v_.fetch_add(n, std::memory_order_relaxed);
  }
  /// add() for a cell that only one thread ever writes (FramePool's
  /// per-thread cache): no locked read-modify-write.
  void add_single_writer(std::uint64_t n = 1) noexcept {
    detail::bump(v_, n);
  }
  std::uint64_t value() const noexcept {
    return v_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t> v_{0};
  std::uint32_t slot_ = detail::kInvalidSlot;
};

class Registry {
 public:
  /// The process-wide registry (never destroyed: thread-exit hooks may fold
  /// shards in after static destruction began).
  static Registry& instance();

  /// Look up or create a metric. Handles for the same name alias the same
  /// metric; registering a name twice with different kinds returns an inert
  /// handle for the mismatched kind.
  Counter counter(std::string_view name);
  Gauge gauge(std::string_view name);
  Histogram histogram(std::string_view name);

  /// Gate for instrumentation that must read a clock (span/section timing).
  /// Off by default: the cost of disabled timing is this one branch.
  static bool timing_enabled() noexcept {
    return timing_.load(std::memory_order_relaxed);
  }
  static void set_timing_enabled(bool on) noexcept {
    timing_.store(on, std::memory_order_relaxed);
  }

  Snapshot snapshot() const;

 private:
  Registry() = default;

  static std::atomic<bool> timing_;
};

/// RAII wall-clock section: adds elapsed ns to `c` at scope exit. Inert
/// (one branch, no clock read) unless Registry::timing_enabled().
class TimerGuard {
 public:
  explicit TimerGuard(Counter c) noexcept
      : c_(c), t0_(Registry::timing_enabled() ? now_ns() + 1 : 0) {}
  ~TimerGuard() {
    if (t0_ != 0) c_.add(now_ns() + 1 - t0_);
  }
  TimerGuard(const TimerGuard&) = delete;
  TimerGuard& operator=(const TimerGuard&) = delete;

 private:
  Counter c_;
  std::uint64_t t0_;  // 0 = timing disabled at entry; else now_ns()+1
};

}  // namespace wasp::obs
