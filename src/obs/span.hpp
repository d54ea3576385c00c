// Pipeline span tracing — the timeline half of the telemetry layer.
//
// A Span is an RAII wall-clock scope recorded as a Chrome trace-event B/E
// pair on the calling thread's track. Buffers are strictly per-thread (one
// bounded vector each, retained after thread exit so short-lived pool
// workers still appear in the export), timestamps come from the shared
// obs::now_ns() monotonic epoch, and SpanTracer::write_chrome_trace() emits
// the JSON that chrome://tracing and Perfetto load directly.
//
// Guarantees the exported trace upholds (tools/wasp_trace_check verifies):
//   - per-track timestamps are monotonically non-decreasing (single
//     monotonic clock, single writer thread per track);
//   - every B has a matching E with the same name, properly nested (RAII;
//     a Span whose begin was dropped at the buffer cap never emits an end,
//     and begin reserves the end slot so a pair is never half-dropped).
//
// Disabled (the default), a Span costs one relaxed load + branch; nothing
// reads a clock or touches a buffer. Like the metrics registry, span
// tracing is strictly read-only with respect to simulation and analysis
// results.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

#include "obs/metrics.hpp"

namespace wasp::obs {

/// Per-name rollup of buffered spans (RunManifest's span table). total is
/// the sum of wall-clock durations over all completed instances; self is
/// total minus the durations of directly nested spans on the same track —
/// the time actually spent in that scope, not delegated to a child.
/// Sorted by name in aggregate() output.
struct SpanAgg {
  std::string name;
  std::uint64_t count = 0;
  std::uint64_t total_ns = 0;
  std::uint64_t self_ns = 0;
};

class SpanTracer {
 public:
  /// Process-wide tracer (never destroyed; see Registry::instance()).
  static SpanTracer& instance();

  /// Master switch; spans recorded only while enabled.
  void set_enabled(bool on) noexcept {
    enabled_.store(on, std::memory_order_relaxed);
  }
  bool enabled() const noexcept {
    return enabled_.load(std::memory_order_relaxed);
  }

  /// Stable storage for dynamic span names (scenario names). Span keeps
  /// only the pointer; interned strings live until process exit.
  const char* intern(std::string_view name);

  /// Label the calling thread's track in the export ("pool-worker", ...).
  void set_thread_name(std::string_view name);

  /// Cap on events per thread track (begin reserves the matching end slot,
  /// so pairs never split). Default 1<<18. Exposed for tests.
  void set_max_events_per_thread(std::size_t cap) noexcept;

  /// Spans whose begin was rejected at the buffer cap.
  std::uint64_t dropped_events() const;

  /// Emit every buffered span as Chrome trace-event JSON:
  /// {"traceEvents":[{"name":..,"ph":"B"|"E"|"M","ts":us,"pid":1,"tid":n}..]}
  void write_chrome_trace(std::ostream& os) const;

  /// Roll the buffered spans up per name (count / total / self time).
  /// Spans still open at the call are ignored; tracks merge by name.
  std::vector<SpanAgg> aggregate() const;

  /// Drop all buffered events and thread tracks (tests).
  void clear();

 private:
  friend class Span;
  SpanTracer() = default;
  /// Returns true when the begin event was recorded (end slot reserved).
  bool begin(const char* name);
  void end(const char* name);

  std::atomic<bool> enabled_{false};
};

/// RAII span scope. Construct with a string literal or an interned name —
/// the pointer must stay valid until export.
class Span {
 public:
  explicit Span(const char* name) noexcept {
    if (name == nullptr) return;
    SpanTracer& t = SpanTracer::instance();
    if (!t.enabled()) return;
    if (t.begin(name)) name_ = name;
  }
  ~Span() {
    if (name_ != nullptr) SpanTracer::instance().end(name_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  const char* name_ = nullptr;
};

#define WASP_OBS_CONCAT_IMPL(a, b) a##b
#define WASP_OBS_CONCAT(a, b) WASP_OBS_CONCAT_IMPL(a, b)
/// Drop-in scope instrumentation: WASP_OBS_SPAN("engine.run");
#define WASP_OBS_SPAN(name) \
  ::wasp::obs::Span WASP_OBS_CONCAT(wasp_obs_span_, __COUNTER__)(name)

}  // namespace wasp::obs
