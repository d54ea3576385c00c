#include "sim/frame_pool.hpp"

#include <cstring>
#include <new>

#include "obs/obs.hpp"

namespace wasp::sim {
namespace {

struct PoolMetrics {
  obs::Counter hits =
      obs::Registry::instance().counter("engine.frame_pool.hits");
  obs::Counter misses =
      obs::Registry::instance().counter("engine.frame_pool.misses");
  obs::Counter bytes =
      obs::Registry::instance().counter("engine.frame_pool.bytes");
};

const PoolMetrics& pool_metrics() {
  static const PoolMetrics m;
  return m;
}

std::size_t read_header(void* frame) noexcept {
  std::size_t size;
  std::memcpy(&size, static_cast<char*>(frame) - FramePool::kHeaderSize,
              sizeof(size));
  return size;
}

void* make_block(std::size_t block_size) {
  void* base = ::operator new(block_size);
  std::memcpy(base, &block_size, sizeof(block_size));
  return static_cast<char*>(base) + FramePool::kHeaderSize;
}

// Set when the thread's Cache has been destroyed (thread exit while some
// engine still frees frames): from then on both paths degrade to the heap.
thread_local bool tls_cache_dead = false;

struct Cache {
  // Freelist nodes live inside the freed blocks themselves.
  struct Node {
    Node* next;
  };

  Node* free_[FramePool::kBucketCount] = {};
  std::size_t count_[FramePool::kBucketCount] = {};
  FramePool::ThreadStats stats;

  // Registry shards owned by the cache: allocate/deallocate run once per
  // coroutine frame (millions of times per run), so the process-wide
  // counters are fed through instance-local cells — only this thread writes
  // them, so a bump is a relaxed load and store on a thread-owned cacheline
  // — instead of a registry TLS-slot call per op. The registry folds live
  // cells into the totals at snapshot time.
  obs::CounterCell hits{"engine.frame_pool.hits"};
  obs::CounterCell misses{"engine.frame_pool.misses"};
  obs::CounterCell bytes{"engine.frame_pool.bytes"};

  void trim() noexcept {
    for (std::size_t i = 0; i < FramePool::kBucketCount; ++i) {
      while (free_[i] != nullptr) {
        Node* n = free_[i];
        free_[i] = n->next;
        ::operator delete(static_cast<char*>(static_cast<void*>(n)) -
                          FramePool::kHeaderSize);
      }
      count_[i] = 0;
    }
    stats.cached_bytes = 0;
  }

  ~Cache() {
    trim();
    tls_cache_dead = true;
  }
};

thread_local Cache tls_cache;

}  // namespace

void* FramePool::allocate(std::size_t bytes) {
  const std::size_t need = bytes + kHeaderSize;
  if (need > kMaxPooled) {
    if (!tls_cache_dead) {
      ++tls_cache.stats.oversize;
      tls_cache.bytes.add_single_writer(need);
    } else {
      pool_metrics().bytes.add(need);
    }
    return make_block(need);
  }
  // Pooled blocks are always canonical sizes, even when allocated after the
  // thread cache died, so any thread can safely recycle them.
  const std::size_t block = (need + (kBucketStep - 1)) & ~(kBucketStep - 1);
  if (tls_cache_dead) {
    pool_metrics().bytes.add(block);
    return make_block(block);
  }
  const std::size_t idx = block / kBucketStep - 1;
  Cache& c = tls_cache;
  if (Cache::Node* n = c.free_[idx]) {
    c.free_[idx] = n->next;
    --c.count_[idx];
    c.stats.cached_bytes -= block;
    ++c.stats.hits;
    c.hits.add_single_writer(1);
    return n;  // header in front of the node still holds `block`
  }
  ++c.stats.misses;
  c.misses.add_single_writer(1);
  c.bytes.add_single_writer(block);
  return make_block(block);
}

void FramePool::deallocate(void* p) noexcept {
  if (p == nullptr) return;
  const std::size_t block = read_header(p);
  char* base = static_cast<char*>(p) - kHeaderSize;
  if (block > kMaxPooled || tls_cache_dead) {
    ::operator delete(base);
    return;
  }
  const std::size_t idx = block / kBucketStep - 1;
  Cache& c = tls_cache;
  if (c.count_[idx] * block >= kCacheBytesPerBucket) {
    ++c.stats.evictions;
    ::operator delete(base);
    return;
  }
  auto* n = static_cast<Cache::Node*>(p);
  n->next = c.free_[idx];
  c.free_[idx] = n;
  ++c.count_[idx];
  c.stats.cached_bytes += block;
  ++c.stats.returns;
}

FramePool::ThreadStats FramePool::thread_stats() noexcept {
  return tls_cache_dead ? ThreadStats{} : tls_cache.stats;
}

void FramePool::trim_thread_cache() noexcept {
  if (!tls_cache_dead) tls_cache.trim();
}

}  // namespace wasp::sim
