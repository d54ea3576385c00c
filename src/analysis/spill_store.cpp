#include "analysis/spill_store.hpp"

#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <utility>

#include "analysis/chunk_codec.hpp"
#include "obs/obs.hpp"
#include "util/error.hpp"

namespace wasp::analysis {
namespace {

// Chunk file: 8-byte magic, u64 version (2), u64 rows, u64 flags (bit0 =
// aux columns present), then the columns in declaration order, each as
// [u8 encoding tag][u64 payload bytes][payload] (see chunk_codec.hpp).
constexpr char kChunkMagic[8] = {'W', 'S', 'P', 'C', 'H', 'K', '0', '2'};
constexpr std::uint64_t kChunkVersion = 2;
constexpr std::uint64_t kFlagAux = 1;

// One store per subdirectory: a process-wide sequence number plus the pid
// keeps two stores sharing one --spill-dir (even across processes) from
// ever colliding on chunk file names.
std::atomic<std::uint64_t> g_store_seq{0};

// A store's destructor removes the shared dir once it is empty. Stores in
// one process create and remove it under this lock, so that removal never
// lands between another store creating the dir and its subdirectory in it.
// A store in another process still can; creation retries then.
std::mutex g_dir_mu;

void write_u64(std::ostream& os, std::uint64_t v) {
  os.write(reinterpret_cast<const char*>(&v), sizeof(v));
}

std::uint64_t read_u64(std::istream& is) {
  std::uint64_t v = 0;
  is.read(reinterpret_cast<char*>(&v), sizeof(v));
  return v;
}

/// Remove a partially-written chunk so a disk-full flush never leaves a
/// truncated file that a later load would diagnose as corruption. Guarded:
/// only regular files and symlinks are unlinked (tests symlink chunk paths
/// at /dev/full; a device node must never be removed).
void remove_partial_chunk(const std::string& path) {
  std::error_code ec;
  const auto st = std::filesystem::symlink_status(path, ec);
  if (!ec && (std::filesystem::is_regular_file(st) ||
              std::filesystem::is_symlink(st))) {
    std::filesystem::remove(path, ec);
  }
}

template <typename Col>
void write_col_raw(std::ostream& os, const Col& col) {
  os.write(reinterpret_cast<const char*>(col.data()),
           static_cast<std::streamsize>(col.size() *
                                         sizeof(typename Col::value_type)));
}

template <typename Col>
void read_col_raw(std::istream& is, Col& col, std::size_t rows) {
  col.resize(rows);
  is.read(reinterpret_cast<char*>(col.data()),
          static_cast<std::streamsize>(rows *
                                       sizeof(typename Col::value_type)));
}

/// Read one WSPCHK02 column: tag, payload length, payload; decode into the
/// typed column. Every length and the decoded row count are validated, so
/// truncated or corrupt files throw instead of mis-decoding. `payload` is
/// scratch shared by the columns of one chunk.
template <typename Col>
void read_col(std::istream& is, Col& col, std::size_t rows,
              const std::string& path, std::vector<std::uint8_t>& payload) {
  using T = typename Col::value_type;
  std::uint8_t tag = 0xff;
  is.read(reinterpret_cast<char*>(&tag), 1);
  const std::uint64_t len = read_u64(is);
  WASP_CHECK_MSG(is.good(), "truncated spill chunk column header: " + path);
  switch (static_cast<codec::Encoding>(tag)) {
    case codec::Encoding::kRaw: {
      WASP_CHECK_MSG(len == rows * sizeof(T),
                     "raw column length mismatch in spill chunk: " + path);
      read_col_raw(is, col, rows);
      WASP_CHECK_MSG(is.good(), "truncated spill chunk: " + path);
      return;
    }
    case codec::Encoding::kDelta:
    case codec::Encoding::kRle: {
      WASP_CHECK_MSG(len <= codec::max_encoded_bytes(rows),
                     "oversized encoded column in spill chunk: " + path);
      const auto n = static_cast<std::size_t>(len);
      if (payload.size() < n) payload.resize(n);
      is.read(reinterpret_cast<char*>(payload.data()),
              static_cast<std::streamsize>(n));
      WASP_CHECK_MSG(is.good(), "truncated spill chunk: " + path);
      col.resize(rows);
      if (static_cast<codec::Encoding>(tag) == codec::Encoding::kDelta) {
        codec::decode_delta(payload.data(), n, col.data(), rows);
      } else {
        codec::decode_rle(payload.data(), n, col.data(), rows);
      }
      return;
    }
    default:
      WASP_CHECK_MSG(false, "unknown column encoding in spill chunk: " + path);
  }
}

}  // namespace

SpillColumnStore::ChunkData::~ChunkData() {
  if (residency) residency->resident.fetch_sub(1, std::memory_order_relaxed);
}

SpillColumnStore::SpillColumnStore(Options opts) : opts_(std::move(opts)) {
  if (opts_.chunk_rows == 0) opts_.chunk_rows = 1;
  if (opts_.max_resident_chunks == 0) opts_.max_resident_chunks = 1;
  WASP_CHECK_MSG(!opts_.dir.empty(), "spill directory must be set");
  dir_ = opts_.dir + "/store_" + std::to_string(::getpid()) + "_" +
         std::to_string(g_store_seq.fetch_add(1, std::memory_order_relaxed));
  std::error_code ec;
  {
    const std::lock_guard<std::mutex> lock(g_dir_mu);
    for (int attempt = 0; attempt < 10000; ++attempt) {
      std::filesystem::create_directories(dir_, ec);
      // Either error means another process removed the dir mid-create.
      if (ec != std::errc::no_such_file_or_directory &&
          ec != std::errc::file_exists) {
        break;
      }
    }
  }
  WASP_CHECK_MSG(!ec, "cannot create spill directory: " + dir_ + " (" +
                          ec.message() + ")");
  residency_ = std::make_shared<Residency>();
}

SpillColumnStore::~SpillColumnStore() {
  if (prefetch_thread_.joinable()) {
    {
      std::lock_guard<std::mutex> lock(pf_mu_);
      pf_stop_ = true;
    }
    pf_cv_.notify_one();
    prefetch_thread_.join();
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    cache_.clear();
    lru_.clear();
  }
  std::error_code ec;
  for (std::size_t c = 0; c < chunks_written_; ++c) {
    std::filesystem::remove(chunk_file_path(c), ec);
  }
  const std::lock_guard<std::mutex> lock(g_dir_mu);
  std::filesystem::remove(dir_, ec);
  // Only removed when empty — a shared spill dir with other stores'
  // subdirectories stays put.
  std::filesystem::remove(opts_.dir, ec);
}

std::string SpillColumnStore::chunk_file_path(std::size_t index) const {
  char name[32];
  std::snprintf(name, sizeof(name), "chunk_%06zu.wspc", index);
  return dir_ + "/" + name;
}

void SpillColumnStore::maybe_flush() {
  if (open_.rows() >= opts_.chunk_rows) flush_open_chunk();
}

void SpillColumnStore::append(std::span<const trace::Record> records) {
  WASP_CHECK_MSG(!finalized_, "append to finalized spill store");
  WASP_CHECK_MSG(!aux_decided_ || !has_aux_,
                 "mixing aux and non-aux appends on one spill store");
  aux_decided_ = true;
  for (std::size_t i = 0; i < records.size();) {
    const std::size_t n = std::min(records.size() - i, open_room());
    open_.append(records.subspan(i, n));
    i += n;
    maybe_flush();
  }
  total_rows_ += records.size();
  bounds_.add(records);
}

void SpillColumnStore::append(std::span<const trace::Record> records,
                              std::span<const std::uint32_t> path_idx,
                              std::span<const std::uint64_t> file_sizes) {
  WASP_CHECK_MSG(!finalized_, "append to finalized spill store");
  WASP_CHECK_MSG(!aux_decided_ || has_aux_,
                 "mixing aux and non-aux appends on one spill store");
  WASP_CHECK_MSG(
      records.size() == path_idx.size() && records.size() == file_sizes.size(),
      "aux columns must parallel the record span");
  aux_decided_ = true;
  has_aux_ = true;
  for (std::size_t i = 0; i < records.size();) {
    const std::size_t n = std::min(records.size() - i, open_room());
    open_.append(records.subspan(i, n), path_idx.subspan(i, n),
                 file_sizes.subspan(i, n));
    i += n;
    maybe_flush();
  }
  total_rows_ += records.size();
  bounds_.add(records);
}

void SpillColumnStore::finalize() {
  WASP_CHECK_MSG(!finalized_, "finalize called twice");
  flush_open_chunk();
  finalized_ = true;
  if (chunks_written_ > 1) {
    prefetch_thread_ = std::thread(&SpillColumnStore::prefetch_loop, this);
  }
}

template <typename T>
void SpillColumnStore::write_col(std::ostream& os, const Column<T>& col,
                                 Columns::Id id) {
  const std::size_t n = col.size();
  const codec::EncodedSizes sizes = codec::measure(col.data(), n);
  const codec::Encoding enc = sizes.smallest();
  const std::uint64_t payload = sizes.of(enc);

  const auto tag = static_cast<std::uint8_t>(enc);
  os.write(reinterpret_cast<const char*>(&tag), 1);
  write_u64(os, payload);
  if (enc == codec::Encoding::kRaw) {
    write_col_raw(os, col);
  } else {
    const auto bound = static_cast<std::size_t>(codec::max_encoded_bytes(n));
    if (encode_buf_.size() < bound) encode_buf_.resize(bound);
    const std::uint8_t* end =
        enc == codec::Encoding::kDelta
            ? codec::encode_delta(col.data(), n, encode_buf_.data())
            : codec::encode_rle(col.data(), n, encode_buf_.data());
    WASP_CHECK_MSG(end == encode_buf_.data() + payload,
                   "encoded spill column size differs from its measure");
    os.write(reinterpret_cast<const char*>(encode_buf_.data()),
             static_cast<std::streamsize>(payload));
  }
  col_raw_[id] += sizes.raw;
  col_stored_[id] += payload + 1 + sizeof(std::uint64_t);
}

void SpillColumnStore::flush_open_chunk() {
  const std::size_t rows = open_.rows();
  if (rows == 0) return;
  const std::string path = chunk_file_path(chunks_written_);
  errno = 0;
  std::ofstream os(path, std::ios::binary | std::ios::trunc);
  if (!os.good()) {
    const int err = errno;
    throw util::SimError("cannot open spill chunk for writing: " + path +
                         (err != 0 ? std::string(" (") + std::strerror(err) + ")"
                                   : std::string()));
  }
  // col_stored_ accumulates the exact on-disk payload per column as each is
  // written; its delta across this flush is the expected body size, used to
  // diagnose short writes below.
  std::uint64_t stored_before = 0;
  for (const std::uint64_t b : col_stored_) stored_before += b;
  errno = 0;
  const std::uint64_t flags = has_aux_ ? kFlagAux : 0;
  os.write(kChunkMagic, sizeof(kChunkMagic));
  write_u64(os, kChunkVersion);
  write_u64(os, rows);
  write_u64(os, flags);
  Columns::each(open_, has_aux_, [&](const auto& col, Columns::Id id) {
    write_col(os, col, id);
  });
  os.flush();
  if (!os.good()) {
    // Graceful degradation on a real disk error (ENOSPC, EIO, quota): close
    // the stream, measure what actually landed, delete the partial chunk so
    // the store directory never holds a truncated file, and surface one
    // diagnosed error instead of a corrupt-chunk failure at read time.
    const int err = errno;
    std::uint64_t stored_after = 0;
    for (const std::uint64_t b : col_stored_) stored_after += b;
    const std::uint64_t expected =
        sizeof(kChunkMagic) + 3 * sizeof(std::uint64_t) +
        (stored_after - stored_before);
    os.close();
    std::error_code ec;
    const std::uint64_t actual = std::filesystem::is_regular_file(path, ec)
                                     ? std::filesystem::file_size(path, ec)
                                     : 0;
    remove_partial_chunk(path);
    throw util::SimError(
        "short write to spill chunk: " + path + ": expected " +
        std::to_string(expected) + " bytes, wrote " + std::to_string(actual) +
        (err != 0 ? std::string(" (") + std::strerror(err) + ")"
                  : std::string()) +
        "; partial chunk removed");
  }
  bytes_written_.add(static_cast<std::uint64_t>(os.tellp()));
  // Cells are monotonic, so bring raw_bytes_ up to the running col_raw_
  // total by its delta instead of recomputing from zero.
  std::uint64_t raw_total = 0;
  for (const std::uint64_t b : col_raw_) raw_total += b;
  raw_bytes_.add(raw_total - raw_bytes_.value());
  open_.clear();
  ++chunks_written_;
}

std::shared_ptr<const SpillColumnStore::ChunkData> SpillColumnStore::load_chunk(
    std::size_t index) const {
  WASP_OBS_SPAN("spill.load");
  const std::string path = chunk_file_path(index);
  errno = 0;
  std::ifstream is(path, std::ios::binary);
  if (!is.good()) {
    const int err = errno;
    throw util::SimError("cannot open spill chunk: " + path +
                         (err != 0 ? std::string(" (") + std::strerror(err) + ")"
                                   : std::string()));
  }
  char magic[sizeof(kChunkMagic)] = {};
  is.read(magic, sizeof(magic));
  WASP_CHECK_MSG(std::equal(magic, magic + sizeof(magic), kChunkMagic),
                 "bad spill chunk magic: " + path);
  WASP_CHECK_MSG(read_u64(is) == kChunkVersion,
                 "unsupported spill chunk version: " + path);
  const std::uint64_t rows64 = read_u64(is);
  const std::uint64_t flags = read_u64(is);
  const auto rows = static_cast<std::size_t>(rows64);
  // Every chunk except the last must hold exactly chunk_rows rows —
  // chunk() computes each chunk's base as index * chunk_rows, so a short
  // non-final chunk (truncated rewrite, mixed-config directory) would
  // silently misalign every later row's global index.
  const std::size_t expected =
      index + 1 == chunks_written_
          ? total_rows_ - (chunks_written_ - 1) * opts_.chunk_rows
          : opts_.chunk_rows;
  WASP_CHECK_MSG(is.good() && rows == expected,
                 "spill chunk row count mismatch: " + path);
  const bool aux = (flags & kFlagAux) != 0;
  WASP_CHECK_MSG(aux == has_aux_, "spill chunk aux flag mismatch: " + path);

  auto data = std::make_shared<ChunkData>();
  std::vector<std::uint8_t> payload;
  Columns::each(data->cols, aux, [&](auto& col, Columns::Id) {
    read_col(is, col, rows, path, payload);
  });
  WASP_CHECK_MSG(is.good(), "truncated spill chunk: " + path);

  loads_.add(1);
  bytes_read_.add(static_cast<std::uint64_t>(is.tellg()));
  const std::size_t now =
      residency_->resident.fetch_add(1, std::memory_order_relaxed) + 1;
  // Only arm the destructor's decrement once the increment happened — a
  // throw above must not underflow the counter.
  data->residency = residency_;
  std::size_t peak = residency_->peak.load(std::memory_order_relaxed);
  while (now > peak &&
         !residency_->peak.compare_exchange_weak(peak, now,
                                                 std::memory_order_relaxed)) {
  }
  return data;
}

void SpillColumnStore::evict_lru_back_locked() const {
  const std::size_t victim = lru_.back();
  lru_.pop_back();
  const auto it = cache_.find(victim);
  if (it != cache_.end()) {
    if (it->second.prefetched) {
      prefetch_wasted_.add(1);
    }
    cache_.erase(it);
  }
  evictions_.add(1);
}

void SpillColumnStore::make_room_locked() const {
  while (cache_.size() + inflight_.size() >= opts_.max_resident_chunks &&
         !lru_.empty()) {
    evict_lru_back_locked();
  }
}

std::shared_ptr<const SpillColumnStore::ChunkData>
SpillColumnStore::acquire_chunk(std::size_t index, bool for_prefetch) const {
  std::promise<std::shared_ptr<const ChunkData>> promise;
  std::shared_future<std::shared_ptr<const ChunkData>> fut;
  bool loader = false;
  bool waiting_on_prefetch = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (const auto it = cache_.find(index); it != cache_.end()) {
      if (for_prefetch) return it->second.data;
      hits_.add(1);
      if (it->second.prefetched) {
        it->second.prefetched = false;
        prefetch_hits_.add(1);
      }
      lru_.splice(lru_.begin(), lru_, it->second.lru_it);
      return it->second.data;
    }
    if (const auto fit = inflight_.find(index); fit != inflight_.end()) {
      if (for_prefetch) return nullptr;  // someone is already on it
      fut = fit->second.fut;
      waiting_on_prefetch = fit->second.prefetch;
    } else {
      loader = true;
      // Make room before the load so the resident set stays bounded even
      // while the read happens off-lock; pinned victims survive through
      // their cursors' pins.
      make_room_locked();
      fut = promise.get_future().share();
      inflight_.emplace(index, Inflight{fut, for_prefetch});
    }
  }

  if (!loader) {
    // Share the in-flight load instead of stampeding the disk. get()
    // rethrows the loader's exception for corrupt chunks.
    std::shared_ptr<const ChunkData> data = fut.get();
    std::lock_guard<std::mutex> lock(mu_);
    hits_.add(1);
    if (waiting_on_prefetch) {
      prefetch_hits_.add(1);
      if (const auto it = cache_.find(index); it != cache_.end()) {
        it->second.prefetched = false;
      }
    }
    return data;
  }

  // Loader path: the disk read and decode happen with mu_ released, so
  // other chunks keep flowing to other analyzer threads meanwhile.
  std::shared_ptr<const ChunkData> data;
  try {
    data = load_chunk(index);
  } catch (...) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      inflight_.erase(index);
    }
    promise.set_exception(std::current_exception());
    throw;
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    inflight_.erase(index);
    lru_.push_front(index);
    cache_[index] = CacheEntry{data, lru_.begin(), for_prefetch};
    // Concurrent loaders can overshoot the cap between make-room and
    // insert; trim from the cold end (never the entry just inserted).
    while (cache_.size() > opts_.max_resident_chunks && lru_.size() > 1) {
      evict_lru_back_locked();
    }
    if (for_prefetch) {
      prefetch_issued_.add(1);
    }
  }
  promise.set_value(data);
  return data;
}

void SpillColumnStore::maybe_schedule_prefetch(std::size_t just_served) const {
  if (!prefetch_thread_.joinable()) return;
  bool sequential;
  {
    std::lock_guard<std::mutex> lock(mu_);
    sequential = just_served == 0 || (last_seq_chunk_ != kNoChunk &&
                                      just_served == last_seq_chunk_ + 1);
    last_seq_chunk_ = just_served;
  }
  if (!sequential || just_served + 1 >= chunks_written_) return;
  {
    std::lock_guard<std::mutex> lock(pf_mu_);
    pf_target_ = just_served + 1;
  }
  pf_cv_.notify_one();
}

void SpillColumnStore::prefetch_loop() {
  if (obs::SpanTracer::instance().enabled()) {
    obs::SpanTracer::instance().set_thread_name("spill-prefetch");
  }
  std::unique_lock<std::mutex> lock(pf_mu_);
  for (;;) {
    pf_cv_.wait(lock, [this] { return pf_stop_ || pf_target_ != kNoChunk; });
    if (pf_stop_) return;
    const std::size_t target = std::exchange(pf_target_, kNoChunk);
    pf_busy_ = true;
    lock.unlock();
    try {
      (void)acquire_chunk(target, /*for_prefetch=*/true);
    } catch (const std::exception&) {
      // Corrupt/unreadable chunk: drop it here — the demand load will
      // surface the error on the caller's thread.
    }
    lock.lock();
    pf_busy_ = false;
    if (pf_target_ == kNoChunk) pf_idle_cv_.notify_all();
  }
}

ChunkHandle SpillColumnStore::chunk(std::size_t chunk_index) const {
  WASP_CHECK_MSG(finalized_, "reading a spill store before finalize()");
  WASP_CHECK_MSG(chunk_index < chunks_written_,
                 "spill chunk index out of range");
  const std::shared_ptr<const ChunkData> data =
      acquire_chunk(chunk_index, /*for_prefetch=*/false);
  maybe_schedule_prefetch(chunk_index);
  ChunkHandle h;
  h.cols = data->cols.view(chunk_index * opts_.chunk_rows);
  h.pin = std::shared_ptr<const void>(data, data.get());
  return h;
}

bool SpillColumnStore::chunk_cached(std::size_t index) const {
  std::lock_guard<std::mutex> lock(mu_);
  return cache_.find(index) != cache_.end();
}

std::size_t SpillColumnStore::resident_chunks() const noexcept {
  return residency_->resident.load(std::memory_order_relaxed);
}

std::size_t SpillColumnStore::peak_resident_chunks() const noexcept {
  return residency_->peak.load(std::memory_order_relaxed);
}

IoStats SpillColumnStore::io_stats() const {
  {
    std::unique_lock<std::mutex> lock(pf_mu_);
    pf_idle_cv_.wait(lock,
                     [this] { return !pf_busy_ && pf_target_ == kNoChunk; });
  }
  IoStats s;
  s.chunk_loads = loads_.value();
  s.cache_hits = hits_.value();
  s.evictions = evictions_.value();
  s.prefetch_issued = prefetch_issued_.value();
  s.prefetch_hits = prefetch_hits_.value();
  s.prefetch_wasted = prefetch_wasted_.value();
  s.bytes_written = bytes_written_.value();
  s.bytes_read = bytes_read_.value();
  s.raw_bytes = raw_bytes_.value();
  for (std::size_t c = 0; c < Columns::kNumColumns; ++c) {
    if (col_raw_[c] == 0) continue;
    s.columns.push_back({Columns::kNames[c], col_raw_[c], col_stored_[c]});
  }
  return s;
}

}  // namespace wasp::analysis
