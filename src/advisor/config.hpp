// RunConfig: the application-side knobs the advisor can turn, read only by
// the pattern compilers (Workload::compile) and, for `faults`, by
// workloads::simulate. Storage state (stripe layout, client cache, tiers)
// lives in cluster::ClusterSpec. The default is the paper's "baseline";
// the advisor rewrites fields from workload attributes ("optimized").
#pragma once

#include <string>

#include "io/mpiio.hpp"
#include "sim/faults.hpp"
#include "util/units.hpp"

namespace wasp::advisor {

struct RunConfig {
  // ---- Middleware configuration ----
  util::Bytes stdio_buffer = 4 * util::kKiB;  ///< setvbuf size
  io::MpiIoConfig mpiio;                      ///< cb_buffer / aggregators
  /// HDF5 dataset chunk size; 0 = contiguous (unchunked) layout.
  util::Bytes hdf5_chunk_size = 0;

  // ---- Data placement ----
  /// Stage the (read-only) input dataset into a node-local tier before the
  /// compute phase (the CosmoFlow case study, §V-A).
  bool preload_input_to_node_local = false;
  /// Create and consume intermediate workflow files on a node-local tier
  /// instead of the PFS (the Montage case study, §V-B).
  bool intermediates_to_node_local = false;
  /// Which node-local tier to use for either redirection.
  std::string node_local_tier = "shm";

  // ---- Data transformation ----
  /// Compress checkpoint/output streams (HCompress-style middleware).
  bool compress_checkpoints = false;
  /// Run the codec on the GPU (the "# gpu/node" attribute, §IV-D.1).
  bool compress_on_gpu = false;
  /// Expected stored/logical ratio (set by the advisor from the declared
  /// data distribution).
  double compression_ratio = 0.5;

  // ---- Scheduling ----
  /// Place workflow tasks on the node that produced their inputs.
  bool locality_aware_placement = false;
  /// Overlap checkpoint writes with the next compute phase.
  bool async_checkpoint_drain = false;

  // ---- Fault injection ----
  /// Deterministic fault schedule for the run (empty = fault-free). The
  /// runner installs it on the Simulation before launching the traced job.
  sim::FaultPlan faults;
};

}  // namespace wasp::advisor
