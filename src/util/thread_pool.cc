#include "src/util/thread_pool.h"

#include <algorithm>
#include <exception>

#include "src/util/env.h"

namespace firzen {
namespace {

thread_local bool t_in_pool_worker = false;
// True while the calling thread runs the shard ParallelFor keeps for it.
thread_local bool t_in_caller_shard = false;

}  // namespace

ThreadPool::ThreadPool(int num_threads)
    : num_threads_(std::max(0, num_threads)) {
  workers_.reserve(num_threads_);
  for (int i = 0; i < num_threads_; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    MutexLock lock(mu_);
    stop_ = true;
  }
  task_cv_.NotifyAll();
  for (auto& w : workers_) w.join();
}

void ThreadPool::Submit(std::function<void()> task) {
  if (num_threads_ == 0) {
    task();
    return;
  }
  {
    MutexLock lock(mu_);
    tasks_.push(std::move(task));
    ++in_flight_;
  }
  task_cv_.NotifyOne();
}

void ThreadPool::Wait() {
  if (num_threads_ == 0) return;
  MutexLock lock(mu_);
  while (in_flight_ != 0) done_cv_.Wait(lock);
}

void ThreadPool::WorkerLoop() {
  t_in_pool_worker = true;
  for (;;) {
    std::function<void()> task;
    {
      MutexLock lock(mu_);
      while (!stop_ && tasks_.empty()) task_cv_.Wait(lock);
      if (stop_ && tasks_.empty()) return;
      task = std::move(tasks_.front());
      tasks_.pop();
    }
    task();
    {
      MutexLock lock(mu_);
      if (--in_flight_ == 0) done_cv_.NotifyAll();
    }
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
  const Index num_shards =
      std::min<Index>(pool->num_threads(),
                      (n + min_shard_size - 1) / min_shard_size);
  const Index shard = (n + num_shards - 1) / num_shards;
  // Per-call completion group: the caller waits for ITS shards only, not
  // for the pool-wide queue to drain (ThreadPool::Wait). Concurrent
  // ParallelFor callers — e.g. serving requests sharing the global pool —
  // therefore do not block on each other's work. A shard that throws still
  // counts as finished; the group keeps the first exception and the caller
  // rethrows it once every shard is done, so `fn`'s captures stay alive for
  // the shards still running and the pool worker never unwinds.
  struct Group {
    Mutex mu;
    CondVar cv;
    Index pending FIRZEN_GUARDED_BY(mu);
    std::exception_ptr error FIRZEN_GUARDED_BY(mu);
  };
  Group group{{}, {}, (n + shard - 1) / shard, nullptr};
  const auto run_shard = [&fn, &group](Index begin, Index end) {
    std::exception_ptr error;
    try {
      fn(begin, end);
    } catch (...) {
      error = std::current_exception();
    }
    MutexLock lock(group.mu);
    if (error != nullptr && group.error == nullptr) group.error = error;
    if (--group.pending == 0) group.cv.NotifyOne();
  };
  for (Index begin = shard; begin < n; begin += shard) {
    const Index end = std::min(begin + shard, n);
    pool->Submit([&run_shard, begin, end] { run_shard(begin, end); });
  }
  // The caller runs the first shard itself instead of idling until the
  // workers finish. Like a worker, it runs nested parallel sections inline.
  t_in_caller_shard = true;
  run_shard(0, shard);
  t_in_caller_shard = false;
  std::exception_ptr error;
  {
    MutexLock lock(group.mu);
    while (group.pending != 0) group.cv.Wait(lock);
    error = group.error;
  }
  if (error != nullptr) std::rethrow_exception(error);
}

}  // namespace firzen
