// Fixed-size shard dispatcher behind ParallelFor. A call splits [0, n) into
// static shards and lists one job, on the caller's stack, under a mutex; the
// caller runs shard 0 and workers claim the rest. Idle workers spin on the
// count of unclaimed shards for a bounded budget (kSpinBudget), then park; a
// call wakes parked workers only for shards the spinners cannot take. The
// caller spins the same budget on its unfinished shards, then parks. Spinners
// yield every few pauses, or one can hold a core the awaited thread needs
// while runnable threads outnumber cores: without the yield, one run of a
// 2,048-element two-shard call read a 220 us median and the next 7 us.
#ifndef FIRZEN_UTIL_THREAD_POOL_H_
#define FIRZEN_UTIL_THREAD_POOL_H_

#include <atomic>
#include <functional>
#include <thread>
#include <vector>

#include "src/util/common.h"
#include "src/util/thread_annotations.h"

namespace firzen {

/// Runs ParallelFor's shards on the caller plus num_threads() - 1 workers;
/// with num_threads <= 1 every call runs inline.
class ThreadPool {
 public:
  explicit ThreadPool(int num_threads);
  ~ThreadPool();
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;
  int num_threads() const { return num_threads_; }

  /// Process-wide pool of GlobalPoolThreadCount() threads, built on first use.
  static ThreadPool* Global();

  /// True when the calling thread is a pool worker.
  static bool InWorker();

 private:
  struct Job;
  friend void ParallelFor(ThreadPool*, Index,
                          const std::function<void(Index, Index)>&, Index);
  void WorkerLoop() FIRZEN_EXCLUDES(mu_);

  int num_threads_;
  Mutex mu_;
  Job* jobs_ FIRZEN_GUARDED_BY(mu_) = nullptr;  // with unclaimed shards
  std::atomic<Index> unclaimed_{0};  // listed shards no worker reserved
  std::atomic<bool> stop_{false};    // set under mu_
  std::atomic<int> spinning_{0};     // workers spinning
  CondVar work_cv_;
  CondVar done_cv_;
  std::vector<std::thread> workers_;
};

/// Splits [0, n) into at most pool->num_threads() contiguous shards that
/// depend only on n, min_shard_size and num_threads() and never split an
/// index, so order-independent per-index work gives the same bits at any
/// pool size. The caller runs the first shard, pool workers the rest. Runs
/// inline when pool is null, n is small, or the caller is itself running a
/// shard, so nested calls cannot deadlock. Threads may call concurrently on
/// one pool. If `fn` throws, every other shard finishes, then the caller
/// rethrows the first exception; the pool stays usable.
void ParallelFor(ThreadPool* pool, Index n,
                 const std::function<void(Index, Index)>& fn,
                 Index min_shard_size = 256);

/// Thread count ThreadPool::Global() will use: FIRZEN_NUM_THREADS when set to
/// a positive value, else std::thread::hardware_concurrency() (4 if unknown).
int GlobalPoolThreadCount();

}  // namespace firzen

#endif  // FIRZEN_UTIL_THREAD_POOL_H_
