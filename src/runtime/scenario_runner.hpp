// Concurrent execution of independent simulation scenarios.
//
// The DES engine stays single-threaded per scenario: each scenario callable
// builds and owns its entire world (sim::Engine, cluster spec, filesystems,
// Tracer) on the thread that runs it, so no mutable state crosses threads
// and every scenario's event order — hence its trace — is bit-identical to
// a sequential run. Results come back in submission order. This is the
// paper's pipeline shape: N independent runs fanned out task-parallel, with
// deterministic replay per run (Recorder-style reproducibility).
#pragma once

#include <cstddef>
#include <functional>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "util/parallel.hpp"

namespace wasp::runtime {

/// Opt-in spill-to-disk policy for scenario pipelines. When set on a runner
/// handed to workloads::run_many, each scenario's tracer flushes closed
/// record batches into an analysis::SpillColumnStore under
/// dir/<scenario name> mid-run, and analysis streams over the spilled
/// chunks — memory stays bounded regardless of trace length, and the
/// profile is byte-identical to the in-memory backend.
struct SpillPolicy {
  /// Root spill directory (one subdirectory per scenario).
  std::string dir;
  /// Tracer records buffered before a flush to the store.
  std::size_t flush_rows = 1u << 20;
  /// Rows per columnar chunk file.
  std::size_t chunk_rows = 65536;
  /// LRU cap on chunks resident during analysis.
  std::size_t max_resident_chunks = 8;
};

class ScenarioRunner {
 public:
  /// jobs == 0 picks up util::default_jobs() (WASP_JOBS / --jobs).
  explicit ScenarioRunner(int jobs = 0) : jobs_(util::resolve_jobs(jobs)) {}

  int jobs() const noexcept { return jobs_; }

  ScenarioRunner& set_spill(SpillPolicy policy) {
    spill_ = std::move(policy);
    return *this;
  }
  const std::optional<SpillPolicy>& spill() const noexcept { return spill_; }

  /// Run every scenario callable, at most jobs() at a time; the i-th result
  /// is scenarios[i]()'s return value. If scenarios throw, the exception of
  /// the lowest-numbered failing scenario is rethrown after all started
  /// scenarios finished.
  template <typename R>
  std::vector<R> run(const std::vector<std::function<R()>>& scenarios) const {
    std::vector<R> out(scenarios.size());
    util::ThreadPool pool(jobs_ - 1);
    pool.run(scenarios.size(),
             [&](std::size_t i) { out[i] = scenarios[i](); });
    return out;
  }

  void run(const std::vector<std::function<void()>>& scenarios) const {
    util::ThreadPool pool(jobs_ - 1);
    pool.run(scenarios.size(), [&](std::size_t i) { scenarios[i](); });
  }

 private:
  int jobs_;
  std::optional<SpillPolicy> spill_;
};

}  // namespace wasp::runtime
