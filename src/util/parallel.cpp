#include "util/parallel.hpp"

#include <cstdlib>

#include "obs/obs.hpp"
#include "util/error.hpp"

namespace wasp::util {
namespace {

// Pool telemetry: per-task queue-wait (batch submission -> task start) and
// task-run wall time. Both gate on Registry::timing_enabled() — the
// disabled path adds one branch per task, no clock reads.
struct PoolMetrics {
  obs::Histogram queue_wait_ns =
      obs::Registry::instance().histogram("pool.queue_wait_ns");
  obs::Histogram task_run_ns =
      obs::Registry::instance().histogram("pool.task_run_ns");
  obs::Counter tasks = obs::Registry::instance().counter("pool.tasks");
};

const PoolMetrics& pool_metrics() {
  static const PoolMetrics m;
  return m;
}

}  // namespace

std::vector<ChunkRange> make_chunks(std::size_t n, std::size_t grain) {
  std::vector<ChunkRange> chunks;
  if (n == 0) return chunks;
  if (grain == 0) grain = 1;
  const std::size_t count = (n + grain - 1) / grain;
  const std::size_t base = n / count;
  const std::size_t rem = n % count;
  chunks.reserve(count);
  std::size_t begin = 0;
  for (std::size_t i = 0; i < count; ++i) {
    const std::size_t len = base + (i < rem ? 1 : 0);
    chunks.push_back({begin, begin + len, i});
    begin += len;
  }
  return chunks;
}

namespace {

std::atomic<int> g_default_jobs{0};  // 0 = not yet initialized

int jobs_from_env() {
  const char* env = std::getenv("WASP_JOBS");
  if (env == nullptr) return 1;
  const int v = std::atoi(env);
  return v > 0 ? v : 1;
}

}  // namespace

int default_jobs() {
  int v = g_default_jobs.load(std::memory_order_relaxed);
  if (v == 0) {
    v = jobs_from_env();
    g_default_jobs.store(v, std::memory_order_relaxed);
  }
  return v;
}

void set_default_jobs(int jobs) {
  g_default_jobs.store(jobs > 0 ? jobs : 1, std::memory_order_relaxed);
  static const obs::Gauge g =
      obs::Registry::instance().gauge("pool.default_jobs");
  g.set(jobs > 0 ? jobs : 1);
}

int resolve_jobs(int jobs) {
  if (jobs > 0) return jobs;
  if (jobs == 0) return default_jobs();
  return 1;
}

// All mutable batch state lives in one heap object shared by the workers
// that joined the batch. A worker that wakes up late holds the *old* batch:
// its ticket counter is exhausted (tickets are monotonic within a batch, so
// surplus claims return >= count), so it exits without ever dereferencing
// the task pointer — no use-after-free and no cross-batch index confusion.
struct ThreadPool::Batch {
  std::uint64_t id = 0;
  std::size_t count = 0;
  const std::function<void(std::size_t)>* task = nullptr;
  std::atomic<std::size_t> next{0};
  std::atomic<std::size_t> done{0};
  std::mutex error_mu;
  std::vector<std::pair<std::size_t, std::exception_ptr>> errors;
  /// Telemetry: submission timestamp (0 when timing was disabled at
  /// submission — workers then skip all clock reads for this batch).
  std::uint64_t enqueue_ns = 0;
};

ThreadPool::ThreadPool(int threads) {
  const int n = threads > 0 ? threads : 0;
  workers_.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lk(mu_);
    stop_ = true;
  }
  cv_work_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::worker_loop() {
  // Label this track in span exports. Only when tracing is live — otherwise
  // transient pools would accumulate empty retained buffers.
  if (obs::SpanTracer::instance().enabled()) {
    obs::SpanTracer::instance().set_thread_name("pool-worker");
  }
  std::uint64_t seen = 0;
  std::unique_lock<std::mutex> lk(mu_);
  for (;;) {
    cv_work_.wait(lk, [&] {
      return stop_ || (batch_ != nullptr && batch_->id != seen);
    });
    if (stop_) return;
    std::shared_ptr<Batch> b = batch_;
    seen = b->id;
    lk.unlock();
    execute(*b);
    lk.lock();
  }
}

void ThreadPool::execute(Batch& b) {
  // Claim chunk indices from the batch's counter. Claim order is racy, but
  // every task writes only its own output slot and errors are keyed by
  // index, so results are independent of which worker ran what. With zero
  // workers the caller claims 0,1,2,... — exact sequential order.
  std::size_t i;
  while ((i = b.next.fetch_add(1, std::memory_order_relaxed)) < b.count) {
    const std::uint64_t t0 = b.enqueue_ns != 0 ? obs::now_ns() : 0;
    if (t0 != 0) pool_metrics().queue_wait_ns.add(t0 - b.enqueue_ns);
    {
      WASP_OBS_SPAN("pool.task");
      try {
        (*b.task)(i);
      } catch (...) {
        std::lock_guard<std::mutex> lk(b.error_mu);
        b.errors.emplace_back(i, std::current_exception());
      }
    }
    if (t0 != 0) {
      pool_metrics().task_run_ns.add(obs::now_ns() - t0);
      pool_metrics().tasks.add(1);
    }
    if (b.done.fetch_add(1, std::memory_order_acq_rel) + 1 == b.count) {
      std::lock_guard<std::mutex> lk(mu_);
      cv_done_.notify_all();
    }
  }
}

void ThreadPool::run(std::size_t count,
                     const std::function<void(std::size_t)>& task) {
  if (count == 0) return;
  WASP_CHECK_MSG(
      running_.load(std::memory_order_relaxed) != std::this_thread::get_id(),
      "ThreadPool::run is not reentrant");
  std::lock_guard<std::mutex> run_lk(run_mu_);
  running_.store(std::this_thread::get_id(), std::memory_order_relaxed);

  auto b = std::make_shared<Batch>();
  b->id = ++next_batch_id_;
  b->count = count;
  b->task = &task;
  if (obs::Registry::timing_enabled()) b->enqueue_ns = obs::now_ns();
  {
    std::lock_guard<std::mutex> lk(mu_);
    batch_ = b;
  }
  cv_work_.notify_all();
  execute(*b);  // the caller is a worker too
  {
    std::unique_lock<std::mutex> lk(mu_);
    cv_done_.wait(lk, [&] {
      return b->done.load(std::memory_order_acquire) >= b->count;
    });
    batch_.reset();
  }
  running_.store(std::thread::id{}, std::memory_order_relaxed);
  if (!b->errors.empty()) {
    std::size_t best = 0;
    for (std::size_t e = 1; e < b->errors.size(); ++e) {
      if (b->errors[e].first < b->errors[best].first) best = e;
    }
    // Take the exception out and release the rest on this thread: a worker
    // may drop the last Batch reference later, and must not free an
    // exception this thread is still reading.
    const std::exception_ptr first = std::move(b->errors[best].second);
    b->errors.clear();
    std::rethrow_exception(first);
  }
}

}  // namespace wasp::util
