#include "advisor/rules.hpp"

#include <sstream>

#include "io/compression.hpp"
#include "util/units.hpp"

namespace wasp::advisor {
namespace {

using charz::WorkloadCharacterization;

std::string attr(const std::string& name, const std::string& value) {
  return name + "=" + value;
}

/// Rule: preload a read-dominated shared dataset into node-local memory
/// when a node's share of it fits (§V-A, CosmoFlow).
void rule_preload_input(const WorkloadCharacterization& c,
                        std::vector<Recommendation>& out) {
  const auto& w = c.workflow;
  const bool read_dominated =
      c.dataset.io_amount > 0 &&
      w.shared_files > w.fpp_files;  // shared-input style
  const bool metadata_heavy = c.dataset.data_ops_fraction < 0.5;
  if (!read_dominated || !metadata_heavy) return;
  if (c.node_local.empty() || c.job.nodes <= 0) return;
  const util::Bytes per_node_share =
      c.dataset.size / static_cast<util::Bytes>(c.job.nodes);
  const auto& tier = c.node_local.front();
  const util::Bytes usable =
      std::min(tier.capacity_per_node, c.middleware.memory_per_node);
  if (per_node_share == 0 || per_node_share > usable) return;

  Recommendation r;
  r.id = "preload-input";
  r.category = Category::kSoftwareAcceleration;
  r.parameter = "preload_input_to_node_local";
  r.value = "true (" + tier.dir + ")";
  r.rationale =
      attr("io_ops_dist_meta",
           util::format_percent(1 - c.dataset.data_ops_fraction)) + ", " +
      attr("shared_files", std::to_string(w.shared_files)) + ", " +
      attr("dataset_share_per_node", util::format_bytes(per_node_share)) +
      " fits " + attr("free_memory_per_node", util::format_bytes(usable));
  r.expected_speedup = 3.0;
  r.apply = [dir = tier.dir](RunConfig& cfg) {
    cfg.preload_input_to_node_local = true;
    cfg.node_local_tier = dir == "/dev/shm" ? "shm" : "tmp";
  };
  out.push_back(std::move(r));
}

/// Rule: route produced-then-consumed intermediate files to node-local
/// storage when stages exchange small-granularity data (§V-B, Montage).
void rule_intermediates_local(const WorkloadCharacterization& c,
                              std::vector<Recommendation>& out) {
  if (!c.workflow.has_app_data_dependency) return;
  if (c.high_level_io.meta_granularity > 64 * util::kKiB) return;
  if (c.node_local.empty()) return;
  const auto& tier = c.node_local.front();

  Recommendation r;
  r.id = "intermediates-node-local";
  r.category = Category::kSoftwareAcceleration;
  r.parameter = "intermediates_to_node_local";
  r.value = "true (" + tier.dir + ")";
  r.rationale =
      attr("app_data_dependency", "yes") + ", " +
      attr("granularity", util::format_bytes(c.high_level_io.meta_granularity)) +
      " (small transfers on intermediate files), " +
      attr("node_local_capacity", util::format_bytes(tier.capacity_per_node));
  r.expected_speedup = 4.0;
  r.apply = [dir = tier.dir](RunConfig& cfg) {
    cfg.intermediates_to_node_local = true;
    cfg.node_local_tier = dir == "/dev/shm" ? "shm" : "tmp";
  };
  out.push_back(std::move(r));
}

/// Rule: match the PFS stripe size to the dominant transfer granularity of
/// the most important files (§IV-D.3, Lustre example). Site advice: the
/// stripe layout is storage state (cluster::PfsSpec), so there is no apply.
void rule_stripe_size(const WorkloadCharacterization& c,
                      std::vector<Recommendation>& out) {
  const util::Bytes g = c.high_level_io.data_granularity;
  if (g < 64 * util::kKiB) return;
  // Values survive serialization with 3 significant digits; treat anything
  // within 5% of the default stripe as "already matching".
  const double rel = static_cast<double>(g) / static_cast<double>(util::kMiB);
  if (rel > 0.95 && rel < 1.05) return;  // default already fits
  Recommendation r;
  r.id = "stripe-size";
  r.category = Category::kSystemTuning;
  r.parameter = "PFS stripe size";
  r.value = util::format_bytes(g);
  r.rationale = attr("io_granularity_data", util::format_bytes(g)) +
                " on the highest-volume files";
  r.expected_speedup = 1.3;
  out.push_back(std::move(r));
}

/// Rule: disable shared-file locking when no data dependency exists between
/// processes or apps (§IV-D.3, GPFS ROMIO example). Site advice: the PFS
/// model has no locking switch, so there is no apply.
void rule_disable_locking(const WorkloadCharacterization& c,
                          std::vector<Recommendation>& out) {
  bool any_dep = c.workflow.has_app_data_dependency;
  for (const auto& a : c.applications) {
    any_dep = any_dep || a.has_process_data_dependency;
  }
  if (any_dep) return;
  Recommendation r;
  r.id = "disable-locking";
  r.category = Category::kSystemTuning;
  r.parameter = "PFS shared-file locking";
  r.value = "false";
  r.rationale = attr("app_data_dependency", "NA") + ", " +
                attr("process_data_dependency", "NA");
  r.expected_speedup = 1.2;
  out.push_back(std::move(r));
}

/// Rule: raise the STDIO stream buffer when the workload issues very small
/// sequential accesses through STDIO (§IV-D.1 buffering).
void rule_stdio_buffer(const WorkloadCharacterization& c,
                       std::vector<Recommendation>& out) {
  bool stdio_used = false;
  for (const auto& a : c.applications) {
    stdio_used = stdio_used || a.interface == "STDIO";
  }
  if (!stdio_used) return;
  if (c.high_level_io.meta_granularity >= 64 * util::kKiB) return;
  if (c.high_level_io.access_pattern != "Seq") return;
  Recommendation r;
  r.id = "stdio-buffer";
  r.category = Category::kSoftwareAcceleration;
  r.parameter = "stdio_buffer";
  r.value = "1MB";
  r.rationale =
      attr("interface", "STDIO") + ", " +
      attr("granularity", util::format_bytes(c.high_level_io.meta_granularity)) +
      ", " + attr("access_pattern", "Seq");
  r.expected_speedup = 1.5;
  r.apply = [](RunConfig& cfg) { cfg.stdio_buffer = util::kMiB; };
  out.push_back(std::move(r));
}

/// Rule: enable HDF5 chunking sized to the access granularity when an HDF5
/// dataset is read without chunking (§IV-D.5 dataset layout).
void rule_hdf5_chunking(const WorkloadCharacterization& c,
                        std::vector<Recommendation>& out) {
  if (c.dataset.format != "HDF5") return;
  if (c.dataset.data_ops_fraction >= 0.5) return;  // metadata not a problem
  Recommendation r;
  r.id = "hdf5-chunking";
  r.category = Category::kDatasetLayout;
  r.parameter = "hdf5_chunk_size";
  const util::Bytes chunk = std::max(c.high_level_io.data_granularity,
                                     util::kMiB);
  r.value = "chunk=" + util::format_bytes(chunk);
  r.rationale = attr("dataset_format", "HDF5") + ", " +
                attr("chunking", "NA") + ", " +
                attr("io_ops_dist_meta",
                     util::format_percent(1 - c.dataset.data_ops_fraction));
  r.expected_speedup = 1.8;
  r.apply = [chunk](RunConfig& cfg) { cfg.hdf5_chunk_size = chunk; };
  out.push_back(std::move(r));
}

/// Rule: locality-aware task placement for multi-app workflows
/// (§IV-D.4 process placement for workflow emulators).
void rule_placement(const WorkloadCharacterization& c,
                    std::vector<Recommendation>& out) {
  if (!c.workflow.has_app_data_dependency || c.workflow.num_apps < 2) return;
  Recommendation r;
  r.id = "locality-placement";
  r.category = Category::kProcessPlacement;
  r.parameter = "locality_aware_placement";
  r.value = "true";
  r.rationale = attr("app_data_dependency", "yes") + ", " +
                attr("num_apps", std::to_string(c.workflow.num_apps)) + ", " +
                attr("node_local_bb_dir", c.job.node_local_bb_dirs);
  r.expected_speedup = 1.4;
  r.apply = [](RunConfig& cfg) { cfg.locality_aware_placement = true; };
  out.push_back(std::move(r));
}

/// Rule: drain periodic checkpoint writes asynchronously when write phases
/// alternate with compute (§IV-D.2 async I/O).
void rule_async_checkpoint(const WorkloadCharacterization& c,
                           std::vector<Recommendation>& out) {
  // Periodic small write phases: more than 3 phases, write-dominated.
  int write_phases = 0;
  for (const auto& ph : c.phases) {
    (void)ph;
    ++write_phases;
  }
  const bool periodic = write_phases >= 1 && c.workflow.num_apps == 1 &&
                        c.workflow.io_amount > 0 &&
                        !c.workflow.has_app_data_dependency;
  if (!periodic) return;
  if (c.node_local.empty()) return;
  Recommendation r;
  r.id = "async-checkpoint";
  r.category = Category::kAsyncIo;
  r.parameter = "async_checkpoint_drain";
  r.value = "true";
  r.rationale = attr("io_phase_frequency", "periodic") + ", " +
                attr("node_local_bb_dir", c.node_local.front().dir) + ", " +
                attr("runtime_bound", "compute");
  r.expected_speedup = 1.3;
  r.apply = [](RunConfig& cfg) { cfg.async_checkpoint_drain = true; };
  out.push_back(std::move(r));
}

/// Rule: transparent checkpoint compression when the declared data
/// distribution compresses well — and explicitly NOT when it doesn't (the
/// paper's §I example where compression grew the data 12% and cost 1.5x).
/// GPUs, when present, host the codec (§IV-D.1 "# gpu/node ... use GPU for
/// accelerating data operations such as compression").
void rule_compression(const WorkloadCharacterization& c,
                      std::vector<Recommendation>& out) {
  if (c.dataset.io_amount < 100ull * util::kGB) return;
  const double ratio =
      io::CompressionModel::ratio_for(c.high_level_io.data_distribution);
  if (ratio >= 0.9) return;  // entropy too high: compression would hurt
  const bool gpu = c.workflow.gpus_used_per_node > 0 ||
                   c.job.gpus_per_node > 0;
  Recommendation r;
  r.id = "compress-checkpoints";
  r.category = Category::kSoftwareAcceleration;
  r.parameter = "compress_checkpoints";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "true (ratio %.2f, %s codec)", ratio,
                gpu ? "GPU" : "CPU");
  r.value = buf;
  r.rationale =
      attr("data_dist", c.high_level_io.data_distribution) + ", " +
      attr("io_amount", util::format_bytes(c.dataset.io_amount)) + ", " +
      attr("gpus_per_node", std::to_string(c.job.gpus_per_node));
  r.expected_speedup = 1.0 / std::max(ratio, 0.2);
  r.apply = [ratio, gpu](RunConfig& cfg) {
    cfg.compress_checkpoints = true;
    cfg.compress_on_gpu = gpu;
    cfg.compression_ratio = ratio;
  };
  out.push_back(std::move(r));
}

/// Rule: widen MPI-IO collective buffers when collective accesses move
/// small granularities (§IV-D.1 aggregation).
void rule_cb_buffer(const WorkloadCharacterization& c,
                    std::vector<Recommendation>& out) {
  bool mpiio_used = false;
  for (const auto& a : c.applications) {
    mpiio_used = mpiio_used || a.interface == "MPI-IO" ||
                 a.interface == "HDF5";
  }
  if (!mpiio_used) return;
  if (c.high_level_io.data_granularity >= 16 * util::kMiB) return;
  Recommendation r;
  r.id = "cb-buffer";
  r.category = Category::kSoftwareAcceleration;
  r.parameter = "mpiio.cb_buffer";
  r.value = "32MB";
  r.rationale =
      attr("interface", "MPI-IO") + ", " +
      attr("granularity_data",
           util::format_bytes(c.high_level_io.data_granularity));
  r.expected_speedup = 1.2;
  r.apply = [](RunConfig& cfg) { cfg.mpiio.cb_buffer = 32 * util::kMiB; };
  out.push_back(std::move(r));
}

}  // namespace

const char* to_string(Category c) noexcept {
  switch (c) {
    case Category::kSoftwareAcceleration: return "software-acceleration";
    case Category::kAsyncIo: return "async-io";
    case Category::kSystemTuning: return "system-tuning";
    case Category::kProcessPlacement: return "process-placement";
    case Category::kDatasetLayout: return "dataset-layout";
  }
  return "?";
}

std::vector<Recommendation> RuleEngine::evaluate(
    const charz::WorkloadCharacterization& c) const {
  std::vector<Recommendation> out;
  rule_preload_input(c, out);
  rule_intermediates_local(c, out);
  rule_stripe_size(c, out);
  rule_disable_locking(c, out);
  rule_stdio_buffer(c, out);
  rule_hdf5_chunking(c, out);
  rule_placement(c, out);
  rule_async_checkpoint(c, out);
  rule_cb_buffer(c, out);
  rule_compression(c, out);
  return out;
}

RunConfig RuleEngine::configure(const std::vector<Recommendation>& recs,
                                RunConfig base) {
  for (const auto& r : recs) {
    if (r.apply) r.apply(base);
  }
  return base;
}

std::string RuleEngine::report(const std::vector<Recommendation>& recs) {
  std::ostringstream os;
  if (recs.empty()) {
    os << "no workload-aware reconfiguration recommended\n";
    return os.str();
  }
  for (const auto& r : recs) {
    os << "[" << to_string(r.category) << "] " << r.id << ": set "
       << r.parameter << " = " << r.value << "\n    because " << r.rationale
       << "\n    expected I/O speedup ~" << r.expected_speedup << "x\n";
    if (!r.apply) {
      os << "    site advice: the simulation does not apply this setting\n";
    }
  }
  return os.str();
}

}  // namespace wasp::advisor
