#include "fs/pfs.hpp"

#include <algorithm>
#include <cmath>

#include "sim/faults.hpp"
#include "sim/waitgroup.hpp"
#include "util/error.hpp"

namespace wasp::fs {
namespace {

// Client-side syscall/VFS cost charged per operation in a coalesced batch.
constexpr sim::Time kClientOpOverhead = 1 * sim::kUs + 500;  // 1.5us

// Cross-node write-token revocation penalty (GPFS token ping-pong).
constexpr sim::Time kWriteTokenRevoke = 500 * sim::kUs;

}  // namespace

ParallelFS::ParallelFS(sim::Engine& eng, const cluster::PfsSpec& spec,
                       int num_nodes)
    : eng_(eng),
      spec_(spec),
      mds_slots_(eng, spec.metadata.concurrency),
      caches_(static_cast<std::size_t>(std::max(num_nodes, 1))) {
  servers_.reserve(static_cast<std::size_t>(spec_.num_servers));
  for (int i = 0; i < spec_.num_servers; ++i) {
    sim::SharedLink::Config cfg;
    cfg.capacity_bps = spec_.server_bandwidth_bps;
    cfg.per_stream_bps = spec_.per_stream_bps;
    cfg.max_streams = spec_.max_streams_per_server;
    cfg.latency = spec_.data_latency;
    cfg.efficiency_bytes = spec_.efficiency_bytes;
    servers_.push_back(std::make_unique<sim::SharedLink>(eng, cfg));
  }
}

sim::Task<void> ParallelFS::meta(ProcSite, MetaOp op, FileId) {
  ++counters_.meta_ops;
  if (op == MetaOp::kSeek) {
    // lseek never leaves the client: it only moves a file-table offset.
    co_await sim::Delay(eng_, 1 * sim::kUs);
    co_return;
  }
  if (faults_ != nullptr) {
    // Degraded-MDS spike: the op completes, slower.
    const sim::Time extra = faults_->spike(eng_.now());
    if (extra > 0) co_await sim::Delay(eng_, extra);
  }
  // Sample queue depth at arrival: the longer the storm, the slower each op.
  const auto waiting = static_cast<double>(mds_slots_.queue_length());
  const double inflation =
      std::min(spec_.metadata.max_inflation,
               1.0 + spec_.metadata.interference_per_waiter * waiting);
  const auto service =
      static_cast<sim::Time>(spec_.metadata.base_service * inflation);
  auto slot = co_await mds_slots_.acquire();
  co_await sim::Delay(eng_, service);
}

bool ParallelFS::cache_covers(const NodeCache& cache, const Inode& inode,
                              Bytes offset, Bytes len) const {
  auto it = cache.entries.find(inode.id);
  if (it == cache.entries.end()) return false;
  return it->second.version == inode.version &&
         offset + len <= it->second.bytes;
}

void ParallelFS::cache_insert(NodeCache& cache, const Inode& inode,
                              Bytes end) {
  if (end > spec_.client_cache_bytes) return;  // too big to cache
  auto& entry = cache.entries[inode.id];
  if (entry.bytes == 0) cache.fifo.push_back(inode.id);
  const Bytes grow = end > entry.bytes ? end - entry.bytes : 0;
  entry.bytes = std::max(entry.bytes, end);
  entry.version = inode.version;
  cache.used += grow;
  while (cache.used > spec_.client_cache_bytes && !cache.fifo.empty()) {
    const FileId victim = cache.fifo.front();
    cache.fifo.pop_front();
    if (victim == inode.id) {
      // Never evict the entry we just inserted; re-queue it.
      cache.fifo.push_back(victim);
      if (cache.fifo.size() == 1) break;
      continue;
    }
    auto vit = cache.entries.find(victim);
    if (vit != cache.entries.end()) {
      cache.used -= vit->second.bytes;
      cache.entries.erase(vit);
    }
  }
}

sim::Task<void> ParallelFS::io(const IoRequest& req) {
  WASP_CHECK_MSG(req.file != kInvalidFile, "io on invalid file");
  counters_.data_ops += req.op_count;
  const Bytes total = req.total_bytes();
  // NOTE: never hold an Inode& across a co_await — concurrent file creation
  // reallocates the inode vector. Fetch fresh references at each use.
  auto& cache = caches_.at(static_cast<std::size_t>(req.site.node));

  // Per-op client cost (syscall + VFS) applies regardless of where the data
  // comes from.
  co_await sim::Delay(eng_, kClientOpOverhead * req.op_count);

  if (faults_ != nullptr) {
    // Slow-stripe spike: a degraded server stalls the whole request.
    const sim::Time extra = faults_->spike(eng_.now());
    if (extra > 0) co_await sim::Delay(eng_, extra);
  }

  if (req.sync_each_op && spec_.sync_latency_factor > 0) {
    // Serialized, contention-inflated per-op latency (library metadata
    // walks). The rate is snapshotted at entry like data transfers.
    ++active_sync_;
    const double active = static_cast<double>(active_sync_);
    const double mult =
        1.0 + spec_.sync_latency_factor *
                  std::pow(active, spec_.sync_latency_exponent);
    const auto per_op = static_cast<sim::Time>(
        static_cast<double>(spec_.data_latency) * mult);
    co_await sim::Delay(eng_, per_op * req.op_count);
    --active_sync_;
  }

  if (req.kind == IoKind::kRead) {
    counters_.bytes_read += total;
    if (spec_.client_cache_bytes > 0 &&
        cache_covers(cache, ns_.inode(req.file), req.offset, total)) {
      ++counters_.cache_hits;
      const double sec = static_cast<double>(total) /
                         spec_.client_cache_bandwidth_bps;
      co_await sim::Delay(eng_, sim::seconds(sec));
      co_return;
    }
    if (req.size < spec_.small_read_latency_threshold && !req.sync_each_op) {
      // Uncached small reads are seek-limited: each op is a server round
      // trip that readahead/writeback cannot hide. Writes don't pay this —
      // writeback coalesces them into stripe-sized flushes.
      co_await sim::Delay(eng_, spec_.data_latency * req.op_count);
    }
  } else {
    counters_.bytes_written += total;
    auto [it, inserted] = last_writer_node_.try_emplace(req.file,
                                                        req.site.node);
    if (!inserted && it->second != req.site.node) {
      // Write token held by another node: revocation round-trip.
      it->second = req.site.node;
      co_await sim::Delay(eng_, kWriteTokenRevoke);
    }
    if (req.latency_each_op) {
      // Durable writes: each op is acknowledged by the server before the
      // next is issued; writeback cannot absorb them.
      co_await sim::Delay(eng_, spec_.data_latency * req.op_count);
    }
    ns_.inode(req.file).version++;
  }

  // Stripe the batch across data servers. A request spanning k stripes
  // touches min(k, stripe_count) servers in parallel; chunks to the same
  // server are merged so the event count stays bounded.
  const Bytes stripe = std::max<Bytes>(spec_.stripe_size, 1);
  const Bytes first_stripe = req.offset / stripe;
  const auto stripes_touched =
      static_cast<int>(std::min<Bytes>((total + stripe - 1) / stripe,
                                       static_cast<Bytes>(spec_.stripe_count)));
  const int fanout = std::max(stripes_touched, 1);
  const Bytes chunk = total / static_cast<Bytes>(fanout);
  Bytes remainder = total - chunk * static_cast<Bytes>(fanout);

  sim::WaitGroup wg(eng_);
  for (int i = 0; i < fanout; ++i) {
    const auto server_idx = static_cast<std::size_t>(
        (req.file * 131 + first_stripe + static_cast<Bytes>(i)) %
        static_cast<Bytes>(spec_.num_servers));
    Bytes piece = chunk + (remainder > 0 ? 1 : 0);
    if (remainder > 0) --remainder;
    if (piece == 0 && i > 0) continue;
    wg.launch(servers_[server_idx]->transfer(piece, req.size));
  }
  co_await wg.wait();

  if (spec_.client_cache_bytes > 0) {
    cache_insert(cache, ns_.inode(req.file), req.offset + total);
  }
}

void ParallelFS::drop_client_caches() {
  for (auto& cache : caches_) {
    cache.entries.clear();
    cache.fifo.clear();
    cache.used = 0;
  }
}

Bytes ParallelFS::free_bytes(ProcSite) const {
  const Bytes cap = faults_ != nullptr
                        ? faults_->clamp_capacity(spec_.capacity, eng_.now())
                        : spec_.capacity;
  return used_ >= cap ? 0 : cap - used_;
}

void ParallelFS::note_growth(ProcSite, std::int64_t delta) {
  if (delta < 0 && static_cast<Bytes>(-delta) > used_) {
    used_ = 0;
    return;
  }
  used_ = static_cast<Bytes>(static_cast<std::int64_t>(used_) + delta);
}

}  // namespace wasp::fs
