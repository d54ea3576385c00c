// Shared --telemetry/--trace-out/--report plumbing for the CLI tools:
// enable the relevant obs switches up front, write the snapshot JSON,
// Chrome trace, and run-manifest files at exit.
#pragma once

#include <chrono>
#include <fstream>
#include <iostream>
#include <string>

#include "obs/obs.hpp"
#include "util/error.hpp"

namespace wasp::toolcli {

/// Call once after flag parsing. Timing turns on if any output is
/// requested (the snapshot's *_ns counters stay zero otherwise); span
/// recording when a trace file or a manifest (whose span table would
/// otherwise be empty) is wanted.
inline void enable_telemetry(const std::string& telemetry_out,
                             const std::string& trace_out,
                             const std::string& report_out = "") {
  if (!telemetry_out.empty() || !trace_out.empty() || !report_out.empty()) {
    obs::Registry::set_timing_enabled(true);
  }
  if (!trace_out.empty() || !report_out.empty()) {
    obs::SpanTracer::instance().set_enabled(true);
    obs::SpanTracer::instance().set_thread_name("main");
  }
}

/// Write the RunManifest for this process (no-op when `report_out` is
/// empty). `t0` is the stopwatch started before the run began.
inline void write_report(
    const std::string& report_out, const char* tool, int jobs,
    const std::string& backend,
    std::chrono::steady_clock::time_point t0) {
  if (report_out.empty()) return;
  const double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  const obs::RunManifest m =
      obs::RunManifest::capture(tool, jobs, backend, wall);
  std::ofstream os(report_out);
  WASP_CHECK_MSG(os.good(), "cannot open report file: " + report_out);
  m.write_json(os);
  os.flush();
  WASP_CHECK_MSG(os.good(), "short write to report file: " + report_out);
  std::cerr << "run manifest written to " << report_out << "\n";
}

/// Call once before exit; writes whichever outputs were requested.
inline void write_telemetry(const std::string& telemetry_out,
                            const std::string& trace_out) {
  if (!telemetry_out.empty()) {
    std::ofstream os(telemetry_out);
    WASP_CHECK_MSG(os.good(), "cannot open telemetry file: " + telemetry_out);
    obs::Registry::instance().snapshot().write_json(os);
    std::cerr << "telemetry written to " << telemetry_out << "\n";
  }
  if (!trace_out.empty()) {
    std::ofstream os(trace_out);
    WASP_CHECK_MSG(os.good(), "cannot open trace file: " + trace_out);
    obs::SpanTracer::instance().write_chrome_trace(os);
    std::cerr << "trace events written to " << trace_out << "\n";
  }
}

}  // namespace wasp::toolcli
