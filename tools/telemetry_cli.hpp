// Shared --trace-out/--report plumbing for the CLI tools: enable the
// relevant obs switches up front, write the Chrome trace and run-manifest
// files at exit.
#pragma once

#include <chrono>
#include <fstream>
#include <iostream>
#include <string>

#include "obs/obs.hpp"
#include "util/error.hpp"

namespace wasp::toolcli {

/// Call once after flag parsing. Either output turns on timing (the
/// manifest's *_ns counters stay zero otherwise) and span recording (the
/// manifest's span table would otherwise be empty).
inline void enable_telemetry(const std::string& trace_out,
                             const std::string& report_out) {
  if (trace_out.empty() && report_out.empty()) return;
  obs::Registry::set_timing_enabled(true);
  obs::SpanTracer::instance().set_enabled(true);
  obs::SpanTracer::instance().set_thread_name("main");
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

/// Write the span Chrome trace (no-op when `trace_out` is empty).
inline void write_trace(const std::string& trace_out) {
  if (trace_out.empty()) return;
  std::ofstream os(trace_out);
  WASP_CHECK_MSG(os.good(), "cannot open trace file: " + trace_out);
  obs::SpanTracer::instance().write_chrome_trace(os);
  std::cerr << "trace events written to " << trace_out << "\n";
}

}  // namespace wasp::toolcli
