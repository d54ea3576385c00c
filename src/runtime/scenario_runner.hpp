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

#include <algorithm>
#include <cstddef>
#include <functional>
#include <vector>

#include "util/parallel.hpp"

namespace wasp::runtime {

class ScenarioRunner {
 public:
  /// jobs == 0 picks up util::default_jobs() (WASP_JOBS / --jobs).
  explicit ScenarioRunner(int jobs = 0) : jobs_(util::resolve_jobs(jobs)) {}

  int jobs() const noexcept { return jobs_; }

  /// Run every scenario callable, at most jobs() at a time; the i-th result
  /// is scenarios[i]()'s return value. At one job or one scenario they run
  /// in order on the calling thread. If scenarios throw, the exception of
  /// the lowest-numbered failing scenario is rethrown after all started
  /// scenarios finished.
  template <typename R>
  std::vector<R> run(const std::vector<std::function<R()>>& scenarios) const {
    std::vector<R> out(scenarios.size());
    const auto width = std::min<std::size_t>(
        static_cast<std::size_t>(jobs_), scenarios.size());
    util::ThreadPool pool(static_cast<int>(width) - 1);
    pool.run(scenarios.size(),
             [&](std::size_t i) { out[i] = scenarios[i](); });
    return out;
  }

 private:
  int jobs_;
};

}  // namespace wasp::runtime
