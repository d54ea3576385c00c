// Deterministic multi-core primitives.
//
// The contract mirrors the paper's DASK-style task parallelism while keeping
// wasp's bit-reproducibility guarantee: work is split into *fixed* chunks
// whose boundaries depend only on the input size and grain — never on the
// thread count — and per-chunk results are merged in chunk-index order.
// Floating-point reductions therefore produce identical bits at jobs=1 and
// jobs=N, and run-to-run. There is no work stealing: workers claim chunk
// indices from a shared atomic counter, and every chunk writes only its own
// output slot, so claim order cannot affect results.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <type_traits>
#include <vector>

namespace wasp::util {

/// Half-open row range [begin, end) plus its position in the fixed chunking.
struct ChunkRange {
  std::size_t begin = 0;
  std::size_t end = 0;
  std::size_t index = 0;
  std::size_t size() const noexcept { return end - begin; }
};

/// Split [0, n) into ceil(n/grain) nearly-even chunks. Boundaries are a pure
/// function of (n, grain) so chunked reductions are thread-count invariant.
std::vector<ChunkRange> make_chunks(std::size_t n, std::size_t grain);

/// Process-wide default parallelism: initialized from the WASP_JOBS
/// environment variable (fallback 1), overridable by CLI `--jobs` flags.
int default_jobs();
void set_default_jobs(int jobs);
/// jobs > 0 as-is; jobs == 0 means default_jobs(); negative clamps to 1.
int resolve_jobs(int jobs);

/// Fixed-size worker pool. `run(count, task)` executes task(0..count-1) to
/// completion; the calling thread participates, so a pool built with
/// `threads = jobs - 1` gives `jobs`-way parallelism and `threads = 0` is
/// plain sequential execution (indices in ascending order) with no thread
/// ever spawned — the serial and parallel paths share one code path.
///
/// run() is not reentrant: do not call it from inside a task on the same
/// pool (nested parallel sections must use their own pool).
class ThreadPool {
 public:
  explicit ThreadPool(int threads);
  ~ThreadPool();
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Total parallelism including the caller thread.
  int parallelism() const noexcept {
    return static_cast<int>(workers_.size()) + 1;
  }

  /// Block until task(i) ran for every i in [0, count). If tasks throw, the
  /// exception of the lowest-numbered failing task is rethrown (the others
  /// are discarded) — deterministic regardless of claim order.
  void run(std::size_t count, const std::function<void(std::size_t)>& task);

  /// Deterministically chunked map: results returned in chunk-index order.
  template <typename Fn,
            typename R = std::invoke_result_t<Fn&, const ChunkRange&>>
  std::vector<R> map_chunks(std::size_t n, std::size_t grain, Fn&& fn) {
    const std::vector<ChunkRange> chunks = make_chunks(n, grain);
    std::vector<R> out(chunks.size());
    run(chunks.size(), [&](std::size_t i) { out[i] = fn(chunks[i]); });
    return out;
  }

 private:
  struct Batch;
  void worker_loop();
  void execute(Batch& b);

  std::mutex mu_;
  std::condition_variable cv_work_;
  std::condition_variable cv_done_;
  std::shared_ptr<Batch> batch_;
  std::uint64_t next_batch_id_ = 0;
  bool stop_ = false;

  std::mutex run_mu_;  // serializes concurrent run() callers
  std::atomic<std::thread::id> running_{};

  std::vector<std::thread> workers_;
};

}  // namespace wasp::util
