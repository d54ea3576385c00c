// Umbrella header for the telemetry layer: the metrics registry
// (obs/metrics.hpp — counters, gauges, bounded histograms) and the span
// tracer (obs/span.hpp — RAII scopes exported as Chrome trace events).
//
// Instrumentation sites include this and use:
//   static const auto c = obs::Registry::instance().counter("engine.events");
//   c.add(n);                       // always on; uncontended relaxed add
//   obs::TimerGuard t(ns_counter);  // no-op branch unless timing_enabled()
//   WASP_OBS_SPAN("analyze.scan");  // no-op branch unless tracer enabled
//
// See DESIGN.md §9 for the model and the overhead budget.
#pragma once

#include "obs/manifest.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"
