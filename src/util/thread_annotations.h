// Clang thread-safety-analysis annotations and the annotated lock types the
// whole stack uses. Under Clang, -Wthread-safety turns lock discipline into
// a COMPILE-TIME check: every member annotated FIRZEN_GUARDED_BY must only
// be touched with its mutex held, every function annotated FIRZEN_REQUIRES
// must only be called with the capability held, and a forgotten unlock or an
// "optimistic" unlocked read fails the build (-DFIRZEN_WERROR=ON promotes it
// to an error). Under other compilers every macro expands to nothing and the
// wrappers below degrade to their std counterparts, so the annotations cost
// nothing off Clang.
//
// Policy (see docs/static_analysis.md): new mutex-guarded state uses
// firzen::Mutex + firzen::MutexLock + FIRZEN_GUARDED_BY, never a bare
// std::mutex — bare mutexes are invisible to the analysis. Condition waits
// go through firzen::CondVar with explicit `while (!predicate)` loops inside
// the annotated function (a predicate lambda would read guarded members in a
// scope the analysis cannot see into). FIRZEN_NO_THREAD_SAFETY_ANALYSIS is a
// last resort and must carry a justification comment.
#ifndef FIRZEN_UTIL_THREAD_ANNOTATIONS_H_
#define FIRZEN_UTIL_THREAD_ANNOTATIONS_H_

#include <chrono>
#include <condition_variable>
#include <mutex>

#if defined(__clang__)
#define FIRZEN_THREAD_ANNOTATION(x) __attribute__((x))
#else
#define FIRZEN_THREAD_ANNOTATION(x)  // no-op off Clang
#endif

/// Marks a type as a capability (lockable). The string names the capability
/// kind in diagnostics ("mutex").
#define FIRZEN_CAPABILITY(x) FIRZEN_THREAD_ANNOTATION(capability(x))

/// Marks an RAII type whose constructor acquires and destructor releases a
/// capability (or the reverse — see MutexUnlock).
#define FIRZEN_SCOPED_CAPABILITY FIRZEN_THREAD_ANNOTATION(scoped_lockable)

/// Data members: may only be read or written while holding `x`.
#define FIRZEN_GUARDED_BY(x) FIRZEN_THREAD_ANNOTATION(guarded_by(x))

/// Pointer members: the pointed-to data (not the pointer) is guarded by `x`.
#define FIRZEN_PT_GUARDED_BY(x) FIRZEN_THREAD_ANNOTATION(pt_guarded_by(x))

/// Functions: caller must hold the capability(ies) on entry (and still holds
/// them on exit).
#define FIRZEN_REQUIRES(...) \
  FIRZEN_THREAD_ANNOTATION(requires_capability(__VA_ARGS__))

/// Functions: acquires the capability(ies); caller must not already hold.
#define FIRZEN_ACQUIRE(...) \
  FIRZEN_THREAD_ANNOTATION(acquire_capability(__VA_ARGS__))

/// Functions: releases the capability(ies); caller must hold them.
#define FIRZEN_RELEASE(...) \
  FIRZEN_THREAD_ANNOTATION(release_capability(__VA_ARGS__))

/// Functions: caller must NOT hold the capability(ies) (deadlock guard for
/// functions that acquire internally).
#define FIRZEN_EXCLUDES(...) FIRZEN_THREAD_ANNOTATION(locks_excluded(__VA_ARGS__))

/// Functions returning a reference to a capability-guarded member.
#define FIRZEN_RETURN_CAPABILITY(x) FIRZEN_THREAD_ANNOTATION(lock_returned(x))

/// Escape hatch: disables the analysis for one function. Must carry a
/// justification comment at the use site.
#define FIRZEN_NO_THREAD_SAFETY_ANALYSIS \
  FIRZEN_THREAD_ANNOTATION(no_thread_safety_analysis)

namespace firzen {

/// std::mutex with capability annotations. libstdc++'s std::mutex carries no
/// annotations, so locks taken through it are invisible to the analysis;
/// this wrapper is what makes FIRZEN_GUARDED_BY enforceable.
class FIRZEN_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

 private:
  friend class MutexLock;
  friend class CondVar;
  std::mutex mu_;
};

/// RAII lock over a Mutex (scoped capability). Keeps a std::unique_lock
/// underneath so CondVar can wait on it with std::condition_variable (no
/// condition_variable_any overhead).
class FIRZEN_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) FIRZEN_ACQUIRE(mu) : lock_(mu.mu_) {}
  ~MutexLock() FIRZEN_RELEASE() = default;

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  friend class CondVar;
  friend class MutexUnlock;
  std::unique_lock<std::mutex> lock_;
};

/// Reverse-scoped capability: RELEASES the mutex on construction and
/// reacquires it on destruction. For the "drop the lock around a blocking
/// call" pattern (e.g. the admission dispatcher around its backend pass)
/// inside a FIRZEN_REQUIRES function — expressible to the analysis, unlike a
/// manual unlock/relock through a lock object passed across functions.
///
/// Operates on the raw mutex underneath `lock` and restores it before going
/// out of scope, so the outer MutexLock's state is consistent again by the
/// time anything can observe it. No exception may escape the unlocked region
/// (wrap the blocking call in try/catch), or the reacquire in the destructor
/// would run during unwinding with the result discarded.
class FIRZEN_SCOPED_CAPABILITY MutexUnlock {
 public:
  // `mu` exists for the annotation; off Clang it is intentionally unused.
  MutexUnlock(MutexLock& lock, [[maybe_unused]] Mutex& mu) FIRZEN_RELEASE(mu)
      : lock_(lock) {
    lock_.lock_.mutex()->unlock();
  }
  ~MutexUnlock() FIRZEN_ACQUIRE() { lock_.lock_.mutex()->lock(); }

  MutexUnlock(const MutexUnlock&) = delete;
  MutexUnlock& operator=(const MutexUnlock&) = delete;

 private:
  MutexLock& lock_;
};

/// Condition variable bound to MutexLock. Waits atomically release and
/// reacquire the lock, so from the analysis' point of view the capability is
/// held across the call — which is exactly the guarantee guarded members
/// need. Write wait loops as explicit `while (!predicate) cv.Wait(lock);`
/// inside the annotated function.
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  void Wait(MutexLock& lock) { cv_.wait(lock.lock_); }

  template <typename Clock, typename Duration>
  std::cv_status WaitUntil(
      MutexLock& lock,
      const std::chrono::time_point<Clock, Duration>& deadline) {
    return cv_.wait_until(lock.lock_, deadline);
  }

  void NotifyOne() { cv_.notify_one(); }
  void NotifyAll() { cv_.notify_all(); }

 private:
  std::condition_variable cv_;
};

}  // namespace firzen

#endif  // FIRZEN_UTIL_THREAD_ANNOTATIONS_H_
