// Knob accountability: each row pins whether one setting changes a registry
// workload's trace at test scale. Settings are the 13 RunConfig values and
// every emitted recommendation, applied alone via RuleEngine::configure.
// A knob no workload reads, or a recommendation without a row, fails. The
// "unchanged" rows pin known no-ops until they are made real or deleted.
#include <gtest/gtest.h>

#include <functional>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "workloads/registry.hpp"

namespace wasp::workloads {
namespace {

using Cfg = advisor::RunConfig;
using Edit = std::function<void(Cfg&)>;

/// A non-default value; `qualifier` is set on both sides of the comparison
/// for settings that only act together with another one.
struct Knob {
  Edit apply;
  Edit qualifier = nullptr;
};

const std::map<std::string, Knob>& knobs() {
  const Edit preload = [](Cfg& c) { c.preload_input_to_node_local = true; };
  const Edit compress = [](Cfg& c) { c.compress_checkpoints = true; };
  static const std::map<std::string, Knob> k = {
      {"stdio_buffer", {[](Cfg& c) { c.stdio_buffer = util::kMiB; }}},
      // Below the 16MB default: test-scale reads never fill a larger one.
      {"mpiio.cb_buffer", {[](Cfg& c) { c.mpiio.cb_buffer = util::kMiB; }}},
      {"mpiio.aggregators_per_node",
       {[](Cfg& c) { c.mpiio.aggregators_per_node = 0; }}},
      {"hdf5_chunk_size", {[](Cfg& c) { c.hdf5_chunk_size = util::kMiB; }}},
      {"preload_input_to_node_local", {preload}},
      {"intermediates_to_node_local",
       {[](Cfg& c) { c.intermediates_to_node_local = true; }}},
      {"node_local_tier", {[](Cfg& c) { c.node_local_tier = "tmp"; }, preload}},
      {"compress_checkpoints", {compress}},
      {"compress_on_gpu", {[](Cfg& c) { c.compress_on_gpu = true; }, compress}},
      {"compression_ratio",
       {[](Cfg& c) { c.compression_ratio = 0.25; }, compress}},
      {"locality_aware_placement",
       {[](Cfg& c) { c.locality_aware_placement = true; }}},
      {"async_checkpoint_drain",
       {[](Cfg& c) { c.async_checkpoint_drain = true; }}},
      {"faults", {[](Cfg& c) {
         c.faults = sim::FaultPlan::parse("seed=7; gpfs: slow=0.5, spike=20ms");
       }}},
  };
  return k;
}

/// `setting` is a knobs() key or "rec:<recommendation id>".
struct Row {
  const char* workload;
  const char* setting;
  bool changes;
};

const std::vector<Row> kRows = {
    {"jag", "stdio_buffer", true},
    {"cosmoflow", "mpiio.cb_buffer", true},
    {"cosmoflow", "mpiio.aggregators_per_node", true},
    {"cosmoflow", "hdf5_chunk_size", true},
    {"cosmoflow", "preload_input_to_node_local", true},
    {"cosmoflow", "node_local_tier", true},
    {"montage-mpi", "intermediates_to_node_local", true},
    {"hacc-fpp", "compress_checkpoints", true},
    {"hacc-fpp", "compress_on_gpu", true},
    {"hacc-fpp", "compression_ratio", true},
    {"montage-mpi", "locality_aware_placement", true},
    {"hacc-fpp", "async_checkpoint_drain", true},
    {"cm1", "faults", true},
    {"cm1", "async_checkpoint_drain", false},
    {"cm1", "compress_checkpoints", false},
    {"cosmoflow", "async_checkpoint_drain", false},
    {"cosmoflow", "compress_checkpoints", false},
    {"jag", "async_checkpoint_drain", false},
    {"jag", "compress_checkpoints", false},
    {"montage-pegasus", "intermediates_to_node_local", false},

    {"cm1", "rec:disable-locking", false},
    {"cm1", "rec:async-checkpoint", false},
    {"hacc-fpp", "rec:stripe-size", false},
    {"hacc-fpp", "rec:disable-locking", false},
    {"hacc-fpp", "rec:async-checkpoint", true},
    {"cosmoflow", "rec:preload-input", true},
    {"cosmoflow", "rec:disable-locking", false},
    {"cosmoflow", "rec:hdf5-chunking", true},
    {"cosmoflow", "rec:async-checkpoint", false},
    {"cosmoflow", "rec:cb-buffer", false},
    {"jag", "rec:disable-locking", false},
    {"jag", "rec:stdio-buffer", true},
    {"jag", "rec:async-checkpoint", false},
    {"montage-mpi", "rec:intermediates-node-local", true},
    {"montage-mpi", "rec:stdio-buffer", true},
    {"montage-mpi", "rec:locality-placement", true},
    {"montage-pegasus", "rec:intermediates-node-local", false},
    {"montage-pegasus", "rec:stdio-buffer", true},
    {"montage-pegasus", "rec:locality-placement", false},
};

std::vector<trace::Record> trace_of(const Workload& w, const Cfg& cfg) {
  runtime::Simulation sim(cluster::lassen(4));
  simulate(sim, w, cfg);
  const auto& records = sim.tracer().records();
  return {records.begin(), records.end()};
}

TEST(KnobAccountability, EverySettingHasAPinnedEffectOnTheTrace) {
  std::set<std::string> knobs_that_change;
  std::size_t rows_run = 0;
  for (const auto& entry : paper_workloads()) {
    SCOPED_TRACE(entry.id);
    const Workload w = entry.make_test();
    runtime::Simulation sim(cluster::lassen(4));
    const auto recs =
        run_with(sim, w, Cfg{}, analysis::Analyzer::Options{})
            .recommendations;
    const std::vector<trace::Record> default_trace(
        sim.tracer().records().begin(), sim.tracer().records().end());

    std::map<std::string, const advisor::Recommendation*> emitted;
    for (const auto& r : recs) emitted["rec:" + r.id] = &r;
    for (const Row& row : kRows) {
      if (entry.id != row.workload) continue;
      SCOPED_TRACE(row.setting);
      ++rows_run;
      Cfg base;
      Cfg cfg;
      bool qualified = false;
      if (const auto rec = emitted.find(row.setting); rec != emitted.end()) {
        cfg = advisor::RuleEngine::configure({*rec->second});
        emitted.erase(rec);
      } else {
        const auto knob = knobs().find(row.setting);
        ASSERT_NE(knob, knobs().end()) << "no such knob or recommendation";
        qualified = static_cast<bool>(knob->second.qualifier);
        if (qualified) knob->second.qualifier(base);
        cfg = base;
        knob->second.apply(cfg);
      }
      const bool changed = trace_of(w, cfg) !=
                           (qualified ? trace_of(w, base) : default_trace);
      EXPECT_EQ(changed, row.changes);
      if (changed) knobs_that_change.insert(row.setting);
    }
    for (const auto& [id, rec] : emitted) ADD_FAILURE() << id << " has no row";
  }
  EXPECT_EQ(rows_run, kRows.size()) << "a row names no registry workload";
  for (const auto& [name, knob] : knobs()) {
    EXPECT_EQ(knobs_that_change.count(name), 1u)
        << name << " changes no workload's trace";
  }
}

}  // namespace
}  // namespace wasp::workloads
