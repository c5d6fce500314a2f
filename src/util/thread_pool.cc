#include "src/util/thread_pool.h"

#include <algorithm>
#include <chrono>
#include <exception>

#include "src/util/env.h"

namespace firzen {
namespace {

// Spin before parking: spans the serial gaps between a training step's kernels.
constexpr std::chrono::microseconds kSpinBudget(200);
constexpr int kPausesPerYield = 16;

thread_local bool t_in_pool_worker = false;
thread_local bool t_in_caller_shard = false;  // running its own shard 0

// Spins until done() holds or kSpinBudget passes; returns done().
template <typename Done>
bool SpinUntil(const Done& done) {
  const auto deadline = std::chrono::steady_clock::now() + kSpinBudget;
  for (int i = 1; !done(); ++i) {
#if defined(__x86_64__) || defined(__i386__)
    __builtin_ia32_pause();
#endif
    if (i % kPausesPerYield != 0) continue;
    std::this_thread::yield();
    if (std::chrono::steady_clock::now() >= deadline) return done();
  }
  return true;
}

}  // namespace

// One ParallelFor call, on the caller's stack; workers claim shards under mu_.
struct ThreadPool::Job {
  void RunShard(Index s) {  // keeps the first exception any shard throws
    try {
      fn(s * shard, std::min(n, (s + 1) * shard));
    } catch (...) {
      if (!failed.exchange(true)) error = std::current_exception();
    }
  }

  const std::function<void(Index, Index)>& fn;
  const Index n;
  const Index shard;
  const Index num_shards = (n + shard - 1) / shard;
  Index next_shard = 1;  // guarded by the pool's mu_, as is `next`
  Job* next = nullptr;
  std::atomic<Index> unfinished{num_shards - 1};  // worker shards
  std::atomic<bool> failed{false};
  std::exception_ptr error{};  // written once, by whoever sets `failed`
};

ThreadPool::ThreadPool(int num_threads)
    : num_threads_(std::max(0, num_threads)) {
  for (int i = 1; i < num_threads_; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    MutexLock lock(mu_);
    stop_ = true;
  }
  work_cv_.NotifyAll();
  for (auto& w : workers_) w.join();
}

void ThreadPool::WorkerLoop() {
  t_in_pool_worker = true;
  for (;;) {
    ++spinning_;
    const bool reserved = SpinUntil([this] {
      Index u = unclaimed_.load();
      while (u > 0 && !unclaimed_.compare_exchange_weak(u, u - 1)) {}
      return u > 0 || stop_.load();
    });
    --spinning_;
    if (stop_.load()) return;
    MutexLock lock(mu_);
    if (!reserved) {  // park
      while (unclaimed_.load() == 0 && !stop_.load()) work_cv_.Wait(lock);
      continue;
    }
    Job* job = jobs_;  // a reservation guarantees a listed, unclaimed shard
    const Index s = job->next_shard++;
    if (job->next_shard == job->num_shards) jobs_ = job->next;
    {
      MutexUnlock unlock(lock, mu_);
      job->RunShard(s);
    }
    // The caller may return once this reaches 0: `job` is dead after.
    if (job->unfinished.fetch_sub(1) == 1) done_cv_.NotifyAll();
  }
}

bool ThreadPool::InWorker() { return t_in_pool_worker; }

int GlobalPoolThreadCount() {
  const long env = GetEnvInt("FIRZEN_NUM_THREADS", 0);
  if (env > 0) return static_cast<int>(env);
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 4 : static_cast<int>(hw);
}

ThreadPool* ThreadPool::Global() {
  static ThreadPool* pool = new ThreadPool(GlobalPoolThreadCount());
  return pool;
}

void ParallelFor(ThreadPool* pool, Index n,
                 const std::function<void(Index, Index)>& fn,
                 Index min_shard_size) {
  if (n <= 0) return;
  if (pool == nullptr || pool->num_threads() <= 1 || n <= min_shard_size ||
      ThreadPool::InWorker() || t_in_caller_shard) {
    fn(0, n);
    return;
  }
  const Index max_shards = std::min<Index>(
      pool->num_threads(), (n + min_shard_size - 1) / min_shard_size);
  ThreadPool::Job job{fn, n, (n + max_shards - 1) / max_shards};
  {
    MutexLock lock(pool->mu_);
    ThreadPool::Job** tail = &pool->jobs_;
    while (*tail != nullptr) tail = &(*tail)->next;
    *tail = &job;
    pool->unclaimed_ += job.num_shards - 1;
  }
  // Spinners see unclaimed_ move; parked workers are woken for the rest.
  Index wake = job.num_shards - 1 - pool->spinning_;
  for (; wake > 0; --wake) pool->work_cv_.NotifyOne();
  t_in_caller_shard = true;
  job.RunShard(0);
  t_in_caller_shard = false;
  if (!SpinUntil([&job] { return job.unfinished.load() == 0; })) {
    MutexLock lock(pool->mu_);
    while (job.unfinished.load() != 0) pool->done_cv_.Wait(lock);
  }
  if (job.failed.load()) std::rethrow_exception(job.error);
}

}  // namespace firzen
