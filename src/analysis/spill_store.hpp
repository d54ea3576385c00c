// SpillColumnStore — the spill-to-disk TraceStore backend (the on-disk
// parquet stand-in). Records append in trace order; every chunk_rows rows
// the open chunk's columns are written to one versioned chunk file in the
// spill directory and dropped from memory, so writing a trace of any length
// holds at most one open chunk. Reads load chunk files on demand into a
// bounded LRU cache of resident chunks.
//
// Chunk files are WSPCHK02: each column is compressed independently
// (varint zigzag delta / RLE / raw, whichever is smallest — see
// chunk_codec.hpp). Only the store that wrote a chunk file reads it, and
// the destructor removes them all.
//
// Concurrency: the cache mutex is never held across a disk read. A miss
// registers an in-flight future under the lock, loads and decodes the
// chunk off-lock, then publishes it; concurrent readers of the same chunk
// share the one load instead of stampeding, and readers of other chunks
// proceed in parallel. On sequential scans a background prefetch thread
// double-buffers: while the analyzer consumes chunk k, chunk k+1 is read
// and decoded so the next fetch is a cache hit.
//
// Memory bound: with K = max_resident_chunks and W concurrent cursors, at
// most K cached/in-flight chunks plus one buffer per cursor (a pin or an
// in-flight demand load — never both) plus the one prefetch buffer are
// alive: resident rows <= chunk_rows * (K + W + 1); a single-cursor scan
// with prefetch is bounded by chunk_rows * (K + 1). peak_resident_chunks()
// counts actual alive chunk buffers (cached, in-flight, or pinned) so
// tests can assert the bound.
//
// A trace reaches the store as a trace log streamed through
// analysis::load_log, which also supplies the offline log's auxiliary
// columns (path-table index, end-of-run file size). The open chunk and each
// loaded chunk are analysis::Columns, the in-memory store's column set.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <future>
#include <limits>
#include <list>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "analysis/column_store.hpp"
#include "obs/metrics.hpp"

namespace wasp::analysis {

class SpillColumnStore final : public TraceStore {
 public:
  struct Options {
    /// Spill directory; created on construction. Each store instance
    /// writes its chunk files under a unique per-instance subdirectory,
    /// so any number of stores (or processes) may share one dir. The
    /// destructor removes the instance subdirectory, and `dir` itself
    /// once it is empty.
    std::string dir;
    std::size_t chunk_rows = 65536;
    std::size_t max_resident_chunks = 8;
  };

  explicit SpillColumnStore(Options opts);
  ~SpillColumnStore() override;
  SpillColumnStore(const SpillColumnStore&) = delete;
  SpillColumnStore& operator=(const SpillColumnStore&) = delete;

  // --- Write side (single-threaded, before finalize) ----------------------
  void append(std::span<const trace::Record> records);
  /// Append log rows with their aux columns. A store is either aux or
  /// non-aux for its whole life — the first append decides, mixing is an
  /// error.
  void append(std::span<const trace::Record> records,
              std::span<const std::uint32_t> path_idx,
              std::span<const std::uint64_t> file_sizes) override;
  /// Flush the partial tail chunk and seal the store for reading (this is
  /// also where the prefetch thread starts). Required before
  /// chunk()/row(); append() afterwards is an error.
  void finalize() override;
  bool finalized() const noexcept { return finalized_; }

  // --- TraceStore ---------------------------------------------------------
  std::size_t size() const noexcept override { return total_rows_; }
  std::size_t chunk_rows() const noexcept override { return opts_.chunk_rows; }
  ChunkHandle chunk(std::size_t chunk_index) const override;
  /// Waits for the read-ahead in flight first, so every chunk load the
  /// store has started is counted.
  IoStats io_stats() const override;
  bool has_aux() const noexcept { return has_aux_; }

  // --- Observability ------------------------------------------------------
  std::size_t resident_chunks() const noexcept;
  std::size_t peak_resident_chunks() const noexcept;
  std::uint64_t chunk_loads() const noexcept { return loads_.value(); }
  std::uint64_t chunk_evictions() const noexcept {
    return evictions_.value();
  }
  std::size_t spilled_chunks() const noexcept { return chunks_written_; }
  const Options& options() const noexcept { return opts_; }
  /// The per-instance directory the chunk files actually live in (a unique
  /// subdirectory of options().dir).
  const std::string& spill_dir() const noexcept { return dir_; }
  /// On-disk path of chunk `index` (tests corrupt files through this).
  std::string chunk_file_path(std::size_t index) const;
  /// Whether a chunk is currently in the LRU cache (tests use this to wait
  /// for the prefetcher deterministically).
  bool chunk_cached(std::size_t index) const;

 private:
  /// Alive-chunk accounting, shared with every loaded chunk so buffers that
  /// outlive eviction (still pinned by a cursor) keep counting as resident.
  struct Residency {
    std::atomic<std::size_t> resident{0};
    std::atomic<std::size_t> peak{0};
  };

  struct ChunkData {
    Columns cols;
    /// Null until load_chunk fully validated the chunk and bumped the
    /// resident counter — the destructor's decrement is armed only then,
    /// so a throw mid-load cannot underflow the counter.
    std::shared_ptr<Residency> residency;
    ~ChunkData();
  };

  struct CacheEntry {
    std::shared_ptr<const ChunkData> data;
    std::list<std::size_t>::iterator lru_it;
    /// Inserted by the prefetch thread and not yet demanded.
    bool prefetched = false;
  };

  struct Inflight {
    std::shared_future<std::shared_ptr<const ChunkData>> fut;
    bool prefetch = false;
  };

  static constexpr std::size_t kNoChunk =
      std::numeric_limits<std::size_t>::max();

  /// Rows the open chunk takes before it is full.
  std::size_t open_room() const noexcept {
    return opts_.chunk_rows - open_.rows();
  }
  void maybe_flush();
  void flush_open_chunk();
  template <typename T>
  void write_col(std::ostream& os, const Column<T>& col, Columns::Id id);
  std::shared_ptr<const ChunkData> load_chunk(std::size_t index) const;
  /// Cache lookup / shared in-flight wait / off-lock load. Returns null
  /// only on the prefetch path when the chunk is already cached or being
  /// loaded by someone else.
  std::shared_ptr<const ChunkData> acquire_chunk(std::size_t index,
                                                 bool for_prefetch) const;
  /// Drop LRU victims until cached + in-flight fits the cap (mu_ held).
  void make_room_locked() const;
  void evict_lru_back_locked() const;
  void maybe_schedule_prefetch(std::size_t just_served) const;
  void prefetch_loop();

  Options opts_;
  std::string dir_;  ///< per-instance subdirectory of opts_.dir
  bool has_aux_ = false;
  bool aux_decided_ = false;
  bool finalized_ = false;
  std::size_t total_rows_ = 0;
  std::size_t chunks_written_ = 0;
  Columns open_;
  /// Encoded-payload scratch reused by every column of every flush.
  std::vector<std::uint8_t> encode_buf_;

  // Write-side per-column stats (single writer thread, read only after
  // finalize). The byte totals live in CounterCells below.
  std::uint64_t col_raw_[Columns::kNumColumns] = {};
  std::uint64_t col_stored_[Columns::kNumColumns] = {};

  std::shared_ptr<Residency> residency_;
  mutable std::mutex mu_;
  mutable std::list<std::size_t> lru_;  // front = most recently used
  mutable std::unordered_map<std::size_t, CacheEntry> cache_;
  mutable std::unordered_map<std::size_t, Inflight> inflight_;
  mutable std::size_t last_seq_chunk_ = kNoChunk;  // guarded by mu_

  // Prefetch thread state. pf_target_ holds at most the single next chunk
  // (newer sequential progress overwrites it — double buffering, not a
  // queue); pf_busy_ is set while the thread loads one, and pf_idle_cv_
  // signals when it has none pending or in flight.
  std::thread prefetch_thread_;
  mutable std::mutex pf_mu_;
  mutable std::condition_variable pf_cv_;
  mutable std::condition_variable pf_idle_cv_;
  mutable std::size_t pf_target_ = kNoChunk;
  bool pf_busy_ = false;
  bool pf_stop_ = false;

  // I/O counters as registry cells: every increment lands in this
  // instance's cell — io_stats() and the accessors above read the cell
  // back (per-instance view, same as the old raw atomics) — while the
  // registry folds all instances into process-wide "spill.*" totals.
  mutable obs::CounterCell loads_{"spill.chunk_loads"};
  mutable obs::CounterCell hits_{"spill.cache_hits"};
  mutable obs::CounterCell evictions_{"spill.evictions"};
  mutable obs::CounterCell prefetch_issued_{"spill.prefetch_issued"};
  mutable obs::CounterCell prefetch_hits_{"spill.prefetch_hits"};
  mutable obs::CounterCell prefetch_wasted_{"spill.prefetch_wasted"};
  mutable obs::CounterCell bytes_read_{"spill.bytes_read"};
  obs::CounterCell bytes_written_{"spill.bytes_written"};
  obs::CounterCell raw_bytes_{"spill.raw_bytes"};
};

}  // namespace wasp::analysis
