// The three benchmark workloads. Each iteration runs the full simulate ->
// trace -> analyze -> characterize -> advise pipeline by calling the wasp
// layers' public functions in the order workloads::run_with uses them, with
// a Layer scope (obs span + stopwatch) around every call.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "advisor/rules.hpp"
#include "core/entities.hpp"
#include "layers.hpp"

namespace perfbench {

/// One pipeline run's output, checked after the iteration's clock stopped.
struct JobResult {
  /// Which run this is (the job or scenario name); fingerprints are pinned
  /// and compared per slot.
  std::string slot;
  wasp::charz::WorkloadCharacterization characterization;
  std::vector<wasp::advisor::Recommendation> recommendations;
  std::uint64_t engine_events = 0;
  std::uint64_t trace_rows = 0;
  double job_seconds = 0.0;
  /// Why the run failed (roots left unfinished, an exception); empty when it
  /// completed.
  std::string error;
  Sample sample;
};

struct Iteration {
  std::vector<JobResult> runs;
  /// The iteration's per-layer values: its runs' samples summed, plus
  /// whatever the iteration measures around them.
  Sample sample;
};

class Workload {
 public:
  virtual ~Workload() = default;
  /// Threads the workload occupies at once, the calling thread included.
  virtual int threads() const = 0;
  /// Scenario runner workers (1 when the workload runs no runner).
  virtual int workers() const { return 1; }
  /// Benchmark layer spans an iteration opens; the traced run's Chrome
  /// trace is checked to contain each.
  virtual std::vector<std::string> spans() const = 0;
  /// Builds the inputs from the seed and runs one untimed warm-up
  /// iteration, whose runs (and any run the set-up made) are returned for
  /// checking. Drops the state of an earlier set-up first.
  virtual Iteration setup() = 0;
  /// One timed iteration.
  virtual Iteration iterate() = 0;
  /// The characterization YAML a slot must produce, when the workload knows
  /// it independently of the fingerprint ("" otherwise).
  virtual std::string expected_yaml(const std::string& slot) const {
    (void)slot;
    return {};
  }
};

struct Options {
  std::uint64_t seed = 0;
  /// Directory for the files a workload writes (trace logs, spill chunks).
  std::string work_dir;
};

/// The workload names, in BENCHMARK.json order.
const std::vector<std::string>& workload_names();

/// nullptr for an unknown name.
std::unique_ptr<Workload> make_workload(const std::string& name,
                                        const Options& opts);

}  // namespace perfbench
