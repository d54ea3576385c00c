// Per-layer measurement for perfbench: the Sample a pipeline run fills, the
// Layer scope wrapped around each call into a wasp layer, the obs-registry
// counters read back as layer metrics, and the per-layer self-time table
// built from SpanTracer::aggregate().
#pragma once

#include <iosfwd>
#include <map>
#include <string>
#include <vector>

#include "obs/obs.hpp"
#include "trace/record.hpp"

namespace perfbench {

/// Additive per-layer quantities of one pipeline run or one iteration,
/// keyed by metric name: seconds for times, plain numbers for counts.
/// derive_ratios() turns the sums into the ratio metrics.
using Sample = std::map<std::string, double>;

void accumulate(Sample& into, const Sample& from);

/// Seconds on the steady clock.
double now_s();

/// Layer timing: the Layer stopwatches and the obs section timers. Spans:
/// obs span recording. The traced run turns both on for its traced
/// iterations; an untraced iteration runs with both off.
void set_timing(bool on);
void set_spans(bool on);
bool timing();

/// One call into a layer: an obs::Span named `span` and, while timing is on,
/// the call's wall seconds added to sample[metric].
class Layer {
 public:
  Layer(Sample& sample, const char* metric, const char* span);
  ~Layer();
  Layer(const Layer&) = delete;
  Layer& operator=(const Layer&) = delete;

 private:
  Sample& sample_;
  const char* metric_;
  double t0_;
  wasp::obs::Span span_;
};

/// Layer metrics read from obs registry counters between two snapshots:
/// engine bucket scans and frame-pool reuse when the engine ran, analyzer
/// pass times when the analyzer ran. Section timers only advance while
/// timing is on.
Sample registry_sample(const wasp::obs::Snapshot& delta);

/// Adds the ratio metrics to a summed iteration sample; a ratio whose base
/// is zero reads 0. `workers` is the scenario runner's worker count.
void derive_ratios(Sample& s, int workers);

/// Trace interfaces in enum order, and the per-interface row-count metric
/// name ("io.rows.mpiio" for MPI-IO).
inline constexpr int kNumIfaces = 7;
std::string iface_rows_metric(wasp::trace::Iface iface);

struct MetricDef {
  std::string name;
  std::string unit;
  /// Base a ratio is taken over, printed next to it ("" for non-ratios).
  std::string base;
};

/// Every per-layer metric a traced run reports, in print order. Metrics a
/// workload does not exercise read 0.
const std::vector<MetricDef>& per_layer_metrics();

/// Prints SpanTracer::aggregate() as a per-span self-time table, then
/// reconciles it with the traced iterations' wall time: the self times of
/// every span inside the iterations, plus the runner's idle worker time and
/// the iteration spans' own self time (the unattributed remainder), add up
/// to the iteration time. Spans inside a "runtime.wave" count 1/workers,
/// since `workers` threads share the wave's wall time. Self time on helper
/// threads outside any wave (the spill prefetcher) overlaps the main thread
/// and is printed apart.
void print_self_times(std::ostream& os, int workers);

}  // namespace perfbench
