// Small fixed-size thread pool with a ParallelFor helper used by the kNN
// graph builder, the all-ranking evaluator, and dense kernels. Work items are
// static range shards, so results are deterministic regardless of pool size.
#ifndef FIRZEN_UTIL_THREAD_POOL_H_
#define FIRZEN_UTIL_THREAD_POOL_H_

#include <functional>
#include <queue>
#include <thread>
#include <vector>

#include "src/util/common.h"
#include "src/util/thread_annotations.h"

namespace firzen {

/// Fixed-size worker pool. Tasks are void() closures; Wait() blocks until all
/// submitted tasks finish. Construction with num_threads <= 1 degenerates to
/// inline execution (useful for tests and debugging).
class ThreadPool {
 public:
  explicit ThreadPool(int num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueue a task for execution.
  void Submit(std::function<void()> task) FIRZEN_EXCLUDES(mu_);

  /// Block until all submitted tasks have completed.
  void Wait() FIRZEN_EXCLUDES(mu_);

  int num_threads() const { return num_threads_; }

  /// Shared process-wide pool. Sized by FIRZEN_NUM_THREADS when set to a
  /// positive value, otherwise by the hardware concurrency. Lazily
  /// constructed; safe for concurrent first use.
  static ThreadPool* Global();

  /// True when the calling thread is a pool worker. ParallelFor uses this to
  /// run nested parallel sections inline instead of deadlocking on Wait().
  static bool InWorker();

 private:
  void WorkerLoop();

  int num_threads_;
  std::vector<std::thread> workers_;
  Mutex mu_;
  std::queue<std::function<void()>> tasks_ FIRZEN_GUARDED_BY(mu_);
  CondVar task_cv_;
  CondVar done_cv_;
  int in_flight_ FIRZEN_GUARDED_BY(mu_) = 0;
  bool stop_ FIRZEN_GUARDED_BY(mu_) = false;
};

/// Splits [0, n) into at most pool->num_threads() contiguous shards; the
/// calling thread runs the first shard and pool workers the rest.
/// Executes inline when pool is null, n is small, or the caller is itself
/// running a shard (a pool worker, or a caller inside its own shard):
/// nested parallelism degrades to serial instead of deadlocking. Shard
/// boundaries never split an index, so kernels whose per-index work is
/// order-independent produce bit-identical results for any pool size.
///
/// If `fn` throws, the exception reaches the caller: inline runs propagate
/// it directly; pooled runs let every other shard finish, then rethrow the
/// first exception any shard threw. The pool stays usable afterwards.
void ParallelFor(ThreadPool* pool, Index n,
                 const std::function<void(Index, Index)>& fn,
                 Index min_shard_size = 256);

/// Thread count ThreadPool::Global() will use: FIRZEN_NUM_THREADS when set to
/// a positive value, else std::thread::hardware_concurrency() (min 1).
int GlobalPoolThreadCount();

}  // namespace firzen

#endif  // FIRZEN_UTIL_THREAD_POOL_H_
