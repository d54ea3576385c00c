// GPFS-like shared parallel filesystem model.
//
// Three mechanisms produce the paper's observed pathologies:
//  1. A bounded-concurrency metadata service whose per-op time inflates with
//     queue depth — metadata storms (CosmoFlow: 1.3M ops from 128 clients)
//     collapse to a few thousand ops/s.
//  2. Striped data servers with snapshot fair-share bandwidth and a
//     small-transfer efficiency penalty — 4KB-granularity streams run two
//     orders of magnitude below peak (CM1's 64MB/s writes).
//  3. A per-node client page cache with write-invalidation — produce-then-
//     consume on the same node is fast until capacity or cross-node sharing
//     evicts it (Montage's intermittent 600-1300MB/s spikes). The cache is
//     on exactly when PfsSpec::client_cache_bytes > 0.
#pragma once

#include <deque>
#include <memory>
#include <unordered_map>
#include <vector>

#include "cluster/spec.hpp"
#include "fs/filesystem.hpp"
#include "sim/link.hpp"
#include "sim/sync.hpp"

namespace wasp::fs {

class ParallelFS final : public FileSystemSim {
 public:
  ParallelFS(sim::Engine& eng, const cluster::PfsSpec& spec, int num_nodes);

  const std::string& mount() const noexcept override { return spec_.mount; }
  const std::string& name() const noexcept override { return spec_.name; }
  bool shared() const noexcept override { return true; }
  Namespace& ns(ProcSite) override { return ns_; }

  sim::Task<void> meta(ProcSite site, MetaOp op, FileId file) override;
  sim::Task<void> io(const IoRequest& req) override;
  Bytes free_bytes(ProcSite site) const override;
  void note_growth(ProcSite site, std::int64_t delta) override;

  const cluster::PfsSpec& spec() const noexcept { return spec_; }

  /// Aggregate observed data bandwidth per server (diagnostics/benchmarks).
  const sim::SharedLink& server(std::size_t i) const { return *servers_.at(i); }
  std::size_t num_servers() const noexcept { return servers_.size(); }

  /// Drop all client caches (used between the untraced staging phase and
  /// the traced run so staging writes don't fake warm caches).
  void drop_client_caches();

 private:
  struct CacheEntry {
    Bytes bytes = 0;            ///< cached prefix [0, bytes)
    std::uint64_t version = 0;  ///< inode version when cached
  };
  struct NodeCache {
    std::unordered_map<FileId, CacheEntry> entries;
    std::deque<FileId> fifo;
    Bytes used = 0;
  };

  bool cache_covers(const NodeCache& cache, const Inode& inode, Bytes offset,
                    Bytes len) const;
  void cache_insert(NodeCache& cache, const Inode& inode, Bytes end);

  sim::Engine& eng_;
  cluster::PfsSpec spec_;
  Namespace ns_;
  std::vector<std::unique_ptr<sim::SharedLink>> servers_;
  sim::Resource mds_slots_;
  std::vector<NodeCache> caches_;  ///< one per client node
  std::unordered_map<FileId, int> last_writer_node_;
  Bytes used_ = 0;
  std::size_t active_sync_ = 0;
};

}  // namespace wasp::fs
