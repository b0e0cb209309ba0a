#include "util/parallel.h"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "obs/metrics.h"
#include "util/flags.h"

namespace gorder {

namespace {

// Pool telemetry (DESIGN.md "Observability"). `pool.chunks` is sharded
// per thread, so worker imbalance shows up as skew across shards;
// `pool.chunks_per_call` is the fan-out distribution;
// `pool.worker_parks` counts a worker going idle (one park per wait on
// the job condition variable), `pool.worker_joins` a worker picking up a
// job. Metrics never feed back into scheduling: claiming stays a single
// atomic fetch_add and results are bit-identical with telemetry on or
// off.
GORDER_OBS_COUNTER(c_parallel_calls, "pool.parallel_calls");
GORDER_OBS_COUNTER(c_serial_calls, "pool.serial_calls");
GORDER_OBS_COUNTER(c_chunks, "pool.chunks");
GORDER_OBS_COUNTER(c_invoke_calls, "pool.invoke_calls");
GORDER_OBS_COUNTER(c_invoke_tasks, "pool.invoke_tasks");
GORDER_OBS_COUNTER(c_worker_parks, "pool.worker_parks");
GORDER_OBS_COUNTER(c_worker_joins, "pool.worker_joins");
GORDER_OBS_GAUGE(g_pool_threads, "pool.threads");
GORDER_OBS_HISTOGRAM(h_chunks_per_call, "pool.chunks_per_call");

int DefaultNumThreads() {
  // GORDER_THREADS is parsed with the same strict parser as --threads:
  // "4x" or "two" used to atoi-truncate to 4 / silently mean "auto",
  // turning a typo into a different experiment. Malformed or
  // non-positive values are fatal instead.
  if (const char* env = std::getenv("GORDER_THREADS")) {
    std::int64_t n = 0;
    if (!ParseInt64(env, &n) || n < 1) {
      std::fprintf(stderr,
                   "GORDER_THREADS: '%s' is not a positive integer\n", env);
      std::exit(2);
    }
    return static_cast<int>(n);
  }
  unsigned hw = std::thread::hardware_concurrency();
  return hw >= 1 ? static_cast<int>(hw) : 1;
}

std::atomic<int> g_num_threads{0};  // 0 = not yet initialised

/// Fork-join pool with help-first nesting.
///
/// `Run(p, body)` publishes a job with `p - 1` open worker slots, executes
/// `body` on the calling thread, then waits for every worker that joined
/// to leave. Bodies claim work internally (an atomic chunk counter), so a
/// job completes even if no worker ever picks it up — which is what makes
/// nested regions deadlock-free: a nested `Run` from inside a worker
/// simply executes its body to completion on that worker, and any *idle*
/// workers are free to join the inner job for real parallelism.
///
/// Workers are spawned lazily up to `NumThreads() - 1` and parked on a
/// condition variable between jobs. The pool is intentionally leaked so
/// parked workers never race static destruction.
class Pool {
 public:
  static Pool& Get() {
    static Pool* pool = new Pool;
    return *pool;
  }

  void Run(int participants, const std::function<void()>& body) {
    if (participants <= 1) {
      body();
      return;
    }
    auto job = std::make_shared<Job>();
    job->body = &body;
    {
      std::lock_guard<std::mutex> lock(mu_);
      job->open_slots = participants - 1;
      while (static_cast<int>(workers_.size()) < participants - 1) {
        workers_.emplace_back([this] { WorkerLoop(); });
      }
      jobs_.push_back(job);
    }
    cv_work_.notify_all();
    body();
    std::unique_lock<std::mutex> lock(mu_);
    job->open_slots = 0;  // no new joiners
    jobs_.erase(std::find(jobs_.begin(), jobs_.end(), job));
    cv_done_.wait(lock, [&] { return job->running == 0; });
  }

 private:
  struct Job {
    const std::function<void()>* body = nullptr;
    int open_slots = 0;  // worker slots still unclaimed
    int running = 0;     // workers currently inside body
  };

  std::shared_ptr<Job> FindOpenJob() {
    for (const auto& job : jobs_) {
      if (job->open_slots > 0) return job;
    }
    return nullptr;
  }

  void WorkerLoop() {
    std::unique_lock<std::mutex> lock(mu_);
    while (true) {
      GORDER_OBS_INC(c_worker_parks);
      cv_work_.wait(lock, [&] { return FindOpenJob() != nullptr; });
      std::shared_ptr<Job> job = FindOpenJob();
      --job->open_slots;
      ++job->running;
      GORDER_OBS_INC(c_worker_joins);
      lock.unlock();
      (*job->body)();
      lock.lock();
      --job->running;
      cv_done_.notify_all();
    }
  }

  std::mutex mu_;
  std::condition_variable cv_work_;
  std::condition_variable cv_done_;
  std::vector<std::thread> workers_;
  std::vector<std::shared_ptr<Job>> jobs_;
};

}  // namespace

int NumThreads() {
  int n = g_num_threads.load(std::memory_order_relaxed);
  if (n == 0) {
    n = DefaultNumThreads();
    g_num_threads.store(n, std::memory_order_relaxed);
    GORDER_OBS_SET(g_pool_threads, n);
  }
  return n;
}

void SetNumThreads(int n) {
  int resolved = n >= 1 ? n : DefaultNumThreads();
  g_num_threads.store(resolved, std::memory_order_relaxed);
  GORDER_OBS_SET(g_pool_threads, resolved);
}

void ParallelFor(std::size_t begin, std::size_t end, std::size_t grain,
                 const std::function<void(std::size_t, std::size_t)>& body,
                 int max_threads) {
  if (begin >= end) return;
  if (grain == 0) grain = 1;
  const std::size_t count = end - begin;
  const std::size_t num_chunks = (count + grain - 1) / grain;
  int threads = NumThreads();
  if (max_threads > 0) threads = std::min(threads, max_threads);
  threads = static_cast<int>(
      std::min<std::size_t>(static_cast<std::size_t>(threads), num_chunks));
  if (threads <= 1) {
    GORDER_OBS_INC(c_serial_calls);
    body(begin, end);
    return;
  }
  GORDER_OBS_INC(c_parallel_calls);
  GORDER_OBS_OBSERVE(h_chunks_per_call, num_chunks);
  std::atomic<std::size_t> next{0};
  Pool::Get().Run(threads, [&] {
    while (true) {
      std::size_t c = next.fetch_add(1, std::memory_order_relaxed);
      if (c >= num_chunks) return;
      GORDER_OBS_INC(c_chunks);
      std::size_t chunk_begin = begin + c * grain;
      std::size_t chunk_end = std::min(end, chunk_begin + grain);
      body(chunk_begin, chunk_end);
    }
  });
}

namespace internal {

void ParallelInvokeImpl(std::function<void()>* fns, int count) {
  if (count <= 0) return;
  GORDER_OBS_INC(c_invoke_calls);
  GORDER_OBS_ADD(c_invoke_tasks, static_cast<std::uint64_t>(count));
  int threads = std::min(NumThreads(), count);
  if (threads <= 1) {
    for (int i = 0; i < count; ++i) fns[i]();
    return;
  }
  std::atomic<int> next{0};
  Pool::Get().Run(threads, [&] {
    while (true) {
      int i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= count) return;
      fns[i]();
    }
  });
}

}  // namespace internal

}  // namespace gorder
