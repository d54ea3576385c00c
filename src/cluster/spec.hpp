// Static description of a simulated HPC system: nodes, NICs, the shared
// parallel file system, and node-local storage tiers. Presets mirror LLNL's
// Lassen (the paper's testbed) plus a tiny configuration for fast tests.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "sim/engine.hpp"
#include "util/units.hpp"

namespace wasp::cluster {

using util::Bytes;

struct NodeSpec {
  int cpu_cores = 40;              ///< usable cores per node
  int gpus = 4;                    ///< GPUs per node
  Bytes memory = 256 * util::kGiB; ///< node DRAM
};

struct NicSpec {
  double bandwidth_bps = 12.5e9;  ///< 100 Gb/s EDR InfiniBand
  sim::Time latency = 1 * sim::kUs;
  std::size_t max_streams = 128;
};

/// Metadata-service model: bounded concurrency plus load-dependent service
/// inflation. Under a metadata storm (many clients opening/stat-ing small
/// shared files) the effective per-op time grows with queue depth, which is
/// what turns CosmoFlow's 1.3M metadata ops into ~98% of its I/O time.
struct MetadataSpec {
  std::size_t concurrency = 16;            ///< parallel MDS worker slots
  sim::Time base_service = 150 * sim::kUs; ///< unloaded per-op service time
  double interference_per_waiter = 0.02;   ///< service *= 1 + k * queue_len
  double max_inflation = 24.0;             ///< cap on the inflation factor
};

struct PfsSpec {
  std::string name = "gpfs";
  std::string mount = "/p/gpfs1";
  Bytes capacity = 24ULL * 1024 * util::kTiB;  // 24 PiB
  int num_servers = 24;
  double server_bandwidth_bps = 3.0e9;  ///< per-server fair-shared data rate
  double per_stream_bps = 2.0e9;        ///< single-stream cap
  std::size_t max_streams_per_server = 64;
  sim::Time data_latency = 300 * sim::kUs;  ///< per-request RPC+disk latency
  Bytes efficiency_bytes = 256 * util::kKiB;  ///< small-transfer penalty knob
  Bytes stripe_size = util::kMiB;
  int stripe_count = 4;
  MetadataSpec metadata;
  /// Per-node client page cache devoted to this mount (read reuse of
  /// recently written data; invalidated on cross-node sharing). 0 turns
  /// the cache off.
  Bytes client_cache_bytes = 4 * util::kGiB;
  double client_cache_bandwidth_bps = 8.0e9;
  /// Synchronous small-request latency model: a sync_each_op request pays
  /// per-op latency of data_latency * (1 + factor * active^exponent), where
  /// `active` counts concurrent sync readers cluster-wide. This is the
  /// token/lock-manager contention that melts shared-small-file workloads.
  double sync_latency_factor = 0.0;
  double sync_latency_exponent = 0.7;
  /// Uncached reads below this granularity pay full per-op latency (seek-
  /// limited random/streamed small reads that miss readahead); 0 disables.
  Bytes small_read_latency_threshold = 0;
};

/// Shared burst buffer (Cray DataWarp-style): SSD servers with distributed
/// key-value metadata, shared across all nodes.
struct BurstBufferSpec {
  std::string name = "datawarp";
  std::string mount = "/p/bb";
  Bytes capacity = 1800ULL * util::kTiB;
  int num_servers = 288;
  double server_bandwidth_bps = 6.0e9;  ///< ~1.7TB/s aggregate on Cori
  double per_stream_bps = 4.0e9;
  std::size_t max_streams_per_server = 32;
  sim::Time data_latency = 50 * sim::kUs;
  sim::Time meta_latency = 20 * sim::kUs;
  Bytes efficiency_bytes = 16 * util::kKiB;  ///< SSDs tolerate small transfers
  Bytes shard_size = 8 * util::kMiB;
};

struct NodeLocalSpec {
  std::string name = "shm";
  std::string mount = "/dev/shm";
  Bytes capacity = 128 * util::kGiB;      ///< per node
  double bandwidth_bps = 32.0e9;          ///< memory-speed tier
  double per_stream_bps = 12.0e9;
  std::size_t parallel_ops = 64;          ///< controller queue depth
  sim::Time data_latency = 2 * sim::kUs;
  sim::Time meta_latency = 2 * sim::kUs;
  Bytes efficiency_bytes = 512;           ///< tiny per-op overhead
};

struct ClusterSpec {
  std::string name = "sim";
  int nodes = 4;
  NodeSpec node;
  NicSpec nic;
  PfsSpec pfs;
  std::vector<NodeLocalSpec> node_local = {NodeLocalSpec{}};
  /// Present only on systems deploying a shared burst buffer (e.g. Cori's
  /// DataWarp); Lassen has none (Table II: shared BB dir = NA).
  std::optional<BurstBufferSpec> shared_bb;

  int total_cores() const noexcept { return nodes * node.cpu_cores; }
  int total_gpus() const noexcept { return nodes * node.gpus; }
};

/// The paper's testbed: Lassen at LLNL (IBM Power9 + V100, 100 Gb/s EDR IB,
/// 24 PiB GPFS). Constants are calibrated against Table I / Figures 1-8;
/// see EXPERIMENTS.md for the calibration record.
ClusterSpec lassen(int nodes = 32);

/// A Cori-like system (§II-B): Haswell nodes, no GPUs, Lustre-style PFS
/// plus a shared DataWarp burst buffer.
ClusterSpec cori(int nodes = 32);

/// Small, fast configuration for unit tests (4 nodes x 4 cores).
ClusterSpec tiny(int nodes = 4);

}  // namespace wasp::cluster
