// Bandwidth-shared channel with snapshot fair-share rates.
//
// A transfer's rate is fixed when it starts:
//     rate = min(per_stream_cap, capacity / active_streams) * eff(size)
// where eff(size) = size / (size + efficiency_bytes) models per-request
// overhead that penalizes small transfers (the mechanism behind the paper's
// "64MB/s for 4KB writes vs 64GB/s for large reads" observations).
//
// Snapshot rates avoid O(active) fluid-model rebalancing on every event,
// keeping multi-million-op workloads fast while preserving contention shape.
// Admission is bounded by a FIFO slot pool, so overload turns into queueing
// delay exactly as on a real I/O server.
#pragma once

#include <cstdint>

#include "sim/engine.hpp"
#include "sim/sync.hpp"
#include "util/units.hpp"

namespace wasp::sim {

class SharedLink {
 public:
  struct Config {
    double capacity_bps = 1e9;    ///< aggregate bandwidth of the channel
    double per_stream_bps = 1e9;  ///< cap for a single stream
    std::size_t max_streams = 64; ///< admission slots before queueing
    Time latency = 0;             ///< fixed per-transfer latency
    util::Bytes efficiency_bytes = 0;  ///< small-transfer overhead knob
  };

  SharedLink(Engine& eng, const Config& cfg)
      : eng_(eng), cfg_(cfg), slots_(eng, cfg.max_streams) {}

  /// Move `n` bytes through the link; completes after queueing + latency +
  /// n / rate. A zero-byte transfer still pays the latency.
  ///
  /// `granularity` is the operation size the efficiency penalty keys on: a
  /// client that writes 1GB in 4KB operations moves 1GB but at 4KB-class
  /// rates. Zero means "same as n".
  Task<void> transfer(util::Bytes n, util::Bytes granularity = 0);

  /// Rate a transfer with the given op granularity would get right now
  /// (after admission).
  double snapshot_rate(util::Bytes granularity) const noexcept;

  const Config& config() const noexcept { return cfg_; }
  std::size_t peak_streams() const noexcept { return peak_; }
  std::uint64_t transfers_completed() const noexcept { return completed_; }
  util::Bytes bytes_moved() const noexcept { return bytes_; }

 private:
  Engine& eng_;
  Config cfg_;
  Resource slots_;
  std::size_t active_ = 0;
  std::size_t peak_ = 0;
  std::uint64_t completed_ = 0;
  util::Bytes bytes_ = 0;
};

}  // namespace wasp::sim
