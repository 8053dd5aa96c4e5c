#ifndef HEAVEN_COMMON_THREAD_ANNOTATIONS_H_
#define HEAVEN_COMMON_THREAD_ANNOTATIONS_H_

#include <chrono>
#include <condition_variable>
#include <mutex>

#include "common/logging.h"

/// Clang thread-safety-analysis ("capability") annotations, plus the
/// annotated Mutex, MutexLock and CondVar every HEAVEN component uses in
/// place of the raw standard-library primitives (scripts/lint.sh enforces
/// the ban outside this header). Every lock is exclusive and none is
/// recursive: annotate a method that takes a lock EXCLUDES(it), so that
/// re-entry is a compile error rather than a runtime self-deadlock.
///
/// Under `clang -Wthread-safety` (scripts/check.sh --analyze turns it into
/// -Werror) the annotations make lock discipline a compile-time property:
/// every GUARDED_BY field access without its mutex, every REQUIRES method
/// called unlocked, and every EXCLUDES violation is a build error instead
/// of a schedule-dependent TSan flake. On GCC/MSVC the macros expand to
/// nothing and the wrappers cost exactly one inline call into the wrapped
/// std primitive.

#if defined(__clang__) && !defined(SWIG)
#define HEAVEN_THREAD_ANNOTATION_ATTRIBUTE__(x) __attribute__((x))
#else
#define HEAVEN_THREAD_ANNOTATION_ATTRIBUTE__(x)  // no-op
#endif

/// A type that is a lockable capability (mutexes).
#define CAPABILITY(x) HEAVEN_THREAD_ANNOTATION_ATTRIBUTE__(capability(x))

/// A RAII type that acquires a capability on construction and releases it
/// on destruction (lock guards).
#define SCOPED_CAPABILITY HEAVEN_THREAD_ANNOTATION_ATTRIBUTE__(scoped_lockable)

/// Data member readable and writable only with `x` held.
#define GUARDED_BY(x) HEAVEN_THREAD_ANNOTATION_ATTRIBUTE__(guarded_by(x))

/// Pointer member whose *pointee* is protected by `x` (the pointer itself
/// may be read freely).
#define PT_GUARDED_BY(x) HEAVEN_THREAD_ANNOTATION_ATTRIBUTE__(pt_guarded_by(x))

/// Lock-ordering declarations (checked under -Wthread-safety-beta).
#define ACQUIRED_BEFORE(...) \
  HEAVEN_THREAD_ANNOTATION_ATTRIBUTE__(acquired_before(__VA_ARGS__))
#define ACQUIRED_AFTER(...) \
  HEAVEN_THREAD_ANNOTATION_ATTRIBUTE__(acquired_after(__VA_ARGS__))

/// The caller must hold the capability when calling.
#define REQUIRES(...) \
  HEAVEN_THREAD_ANNOTATION_ATTRIBUTE__(requires_capability(__VA_ARGS__))

/// The function acquires the capability and holds it on return.
#define ACQUIRE(...) \
  HEAVEN_THREAD_ANNOTATION_ATTRIBUTE__(acquire_capability(__VA_ARGS__))

/// The function releases the capability (which the caller must hold).
#define RELEASE(...) \
  HEAVEN_THREAD_ANNOTATION_ATTRIBUTE__(release_capability(__VA_ARGS__))

/// The function acquires the capability iff it returns `b`.
#define TRY_ACQUIRE(b, ...) \
  HEAVEN_THREAD_ANNOTATION_ATTRIBUTE__(try_acquire_capability(b, __VA_ARGS__))

/// The caller must NOT hold the capability when calling (the function takes
/// it itself, or must never run under it — e.g. thread-pool task bodies
/// must never run under HeavenDb::db_mu_).
#define EXCLUDES(...) \
  HEAVEN_THREAD_ANNOTATION_ATTRIBUTE__(locks_excluded(__VA_ARGS__))

/// Runtime assertion that the calling thread holds the capability.
#define ASSERT_CAPABILITY(x) \
  HEAVEN_THREAD_ANNOTATION_ATTRIBUTE__(assert_capability(x))

/// The function returns a reference to the given capability.
#define RETURN_CAPABILITY(x) \
  HEAVEN_THREAD_ANNOTATION_ATTRIBUTE__(lock_returned(x))

/// Escape hatch: the function body is not analyzed. Use only for code that
/// is correct for reasons the analysis cannot see, with a comment saying
/// why.
#define NO_THREAD_SAFETY_ANALYSIS \
  HEAVEN_THREAD_ANNOTATION_ATTRIBUTE__(no_thread_safety_analysis)

namespace heaven {

class CondVar;

/// Annotated exclusive mutex (wraps std::mutex). Prefer the MutexLock
/// guard over calling Lock()/Unlock() directly.
class CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void Lock() ACQUIRE() { mu_.lock(); }
  void Unlock() RELEASE() { mu_.unlock(); }
  bool TryLock() TRY_ACQUIRE(true) { return mu_.try_lock(); }
  /// Tells the analysis that the caller holds the mutex, where it cannot
  /// see the lock: in a lambda run under a lock its caller took. Checks
  /// nothing at run time.
  void AssertHeld() const ASSERT_CAPABILITY(this) {}

 private:
  friend class CondVar;
  std::mutex mu_;
};

/// Tag selecting the adopting MutexLock constructor (the mutex is already
/// held by the calling thread and ownership transfers to the guard).
struct AdoptLockT {};
inline constexpr AdoptLockT kAdoptLock{};

/// Scoped exclusive guard over Mutex. Relockable: Unlock()/Lock() allow
/// dropping the mutex across a blocking operation (e.g. the WAL group
/// leader's fsync) with the analysis still tracking the held state.
class SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) ACQUIRE(mu) : mu_(&mu), held_(true) {
    mu_->Lock();
  }
  /// Adopts a mutex the calling thread already holds.
  MutexLock(Mutex& mu, AdoptLockT) REQUIRES(mu) : mu_(&mu), held_(true) {}
  ~MutexLock() RELEASE() {
    if (held_) mu_->Unlock();
  }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

  /// Releases the mutex before the end of the scope.
  void Unlock() RELEASE() {
    mu_->Unlock();
    held_ = false;
  }
  /// Re-acquires after an Unlock().
  void Lock() ACQUIRE() {
    mu_->Lock();
    held_ = true;
  }
  bool held() const { return held_; }

 private:
  friend class CondVar;
  Mutex* const mu_;
  bool held_;
};

/// Condition variable bound to one Mutex at construction (LevelDB's port
/// idiom). Wait() takes the caller's MutexLock so the analysis keeps
/// treating the mutex as held across the wait — which it is, on return.
/// Predicate waits are written as explicit `while (!pred) cv.Wait(lock);`
/// loops so guarded reads in the predicate stay inside the analyzed,
/// lock-holding function body.
class CondVar {
 public:
  explicit CondVar(Mutex* mu) : mu_(mu) {}

  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  /// Atomically releases the mutex, blocks, and re-acquires it. `lock`
  /// must be a held guard over the bound mutex.
  void Wait(MutexLock& lock) {
    HEAVEN_DCHECK(lock.mu_ == mu_) << "CondVar waited with a foreign mutex";
    HEAVEN_DCHECK(lock.held());
    // Adopt the already-held std::mutex into a unique_lock for the wait,
    // then release the unique_lock's ownership claim without unlocking —
    // the MutexLock guard continues to own the (re-acquired) mutex.
    std::unique_lock<std::mutex> waiter(mu_->mu_, std::adopt_lock);
    cv_.wait(waiter);
    waiter.release();
  }

  /// Timed variant of Wait: returns false when `seconds` elapsed without a
  /// notification, true when notified (possibly spuriously — callers keep
  /// the usual predicate loop). The mutex is held again either way.
  bool WaitFor(MutexLock& lock, double seconds) {
    HEAVEN_DCHECK(lock.mu_ == mu_) << "CondVar waited with a foreign mutex";
    HEAVEN_DCHECK(lock.held());
    std::unique_lock<std::mutex> waiter(mu_->mu_, std::adopt_lock);
    const std::cv_status status =
        cv_.wait_for(waiter, std::chrono::duration<double>(seconds));
    waiter.release();
    return status == std::cv_status::no_timeout;
  }

  void NotifyOne() { cv_.notify_one(); }
  void NotifyAll() { cv_.notify_all(); }

 private:
  std::condition_variable cv_;
  Mutex* const mu_;
};

}  // namespace heaven

#endif  // HEAVEN_COMMON_THREAD_ANNOTATIONS_H_
