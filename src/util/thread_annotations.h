// Clang Thread Safety Analysis annotations + annotated lock primitives.
//
// The engine's lock discipline (which mutex guards which field, which
// helper expects which lock held) was tribal knowledge enforced only by
// TSan luck. These macros turn it into compile-time errors: a clang
// build with -Werror=thread-safety refuses to compile an access to a
// DMF_GUARDED_BY field outside its mutex, a call to a DMF_REQUIRES
// helper without the lock, or an unbalanced acquire/release.
//
// Off clang (gcc, MSVC) every macro expands to nothing, so local gcc
// builds are unaffected; the `lint` CI job is the enforcement point.
//
// libstdc++'s std::mutex / std::lock_guard carry no annotations, so
// annotating a raw std::mutex member only produces false positives.
// Use the wrappers below instead:
//
//   dmf::Mutex mu_;                      // the capability
//   int x_ DMF_GUARDED_BY(mu_);          // compile error if touched unlocked
//   void f() { dmf::MutexLock l(mu_); x_ = 1; }   // RAII, analysis-visible
//   void g_locked() DMF_REQUIRES(mu_);   // caller must hold mu_
//   dmf::CondVar cv_; cv_.wait(mu_, [...]{...});  // waits on dmf::Mutex
#pragma once

#include <chrono>
#include <condition_variable>
#include <mutex>

#if defined(__clang__) && defined(__has_attribute)
#define DMF_TSA_HAS(x) __has_attribute(x)
#else
#define DMF_TSA_HAS(x) 0
#endif

#if DMF_TSA_HAS(capability)
#define DMF_TSA(x) __attribute__((x))
#else
#define DMF_TSA(x)  // no-op off clang
#endif

// A type that is a lock/capability (classes like dmf::Mutex).
#define DMF_CAPABILITY(x) DMF_TSA(capability(x))

// An RAII type that acquires in its constructor and releases in its
// destructor (classes like dmf::MutexLock).
#define DMF_SCOPED_CAPABILITY DMF_TSA(scoped_lockable)

// Field may only be read/written while holding the given capability.
#define DMF_GUARDED_BY(x) DMF_TSA(guarded_by(x))

// Pointer field: the pointee (not the pointer) is guarded.
#define DMF_PT_GUARDED_BY(x) DMF_TSA(pt_guarded_by(x))

// Documented lock order (checked under -Wthread-safety-beta).
#define DMF_ACQUIRED_BEFORE(...) DMF_TSA(acquired_before(__VA_ARGS__))
#define DMF_ACQUIRED_AFTER(...) DMF_TSA(acquired_after(__VA_ARGS__))

// Function-level contracts.
#define DMF_REQUIRES(...) DMF_TSA(requires_capability(__VA_ARGS__))
#define DMF_ACQUIRE(...) DMF_TSA(acquire_capability(__VA_ARGS__))
#define DMF_RELEASE(...) DMF_TSA(release_capability(__VA_ARGS__))
#define DMF_TRY_ACQUIRE(...) DMF_TSA(try_acquire_capability(__VA_ARGS__))
#define DMF_EXCLUDES(...) DMF_TSA(locks_excluded(__VA_ARGS__))
#define DMF_ASSERT_CAPABILITY(x) DMF_TSA(assert_capability(x))
#define DMF_RETURN_CAPABILITY(x) DMF_TSA(lock_returned(x))

// Escape hatch for code the analysis cannot follow (keep rare, justify
// at the use site).
#define DMF_NO_THREAD_SAFETY_ANALYSIS DMF_TSA(no_thread_safety_analysis)

namespace dmf {

// std::mutex with the capability attribute plus annotated lock/unlock,
// so the analysis can track acquisition through it. Zero overhead: the
// wrappers are inline forwarding calls.
class DMF_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void lock() DMF_ACQUIRE() { mu_.lock(); }
  void unlock() DMF_RELEASE() { mu_.unlock(); }
  bool try_lock() DMF_TRY_ACQUIRE(true) { return mu_.try_lock(); }

 private:
  std::mutex mu_;
};

// RAII guard over dmf::Mutex (the std::lock_guard shape, but visible to
// the analysis). Deliberately no deferred/adoptable modes: early release
// is an explicit mu.unlock()/mu.lock() pair the analysis can also track.
class DMF_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) DMF_ACQUIRE(mu) : mu_(mu) { mu_.lock(); }
  ~MutexLock() DMF_RELEASE() { mu_.unlock(); }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex& mu_;
};

// Condition variable that waits directly on dmf::Mutex (a
// BasicLockable), so waits keep the capability visible: callers must
// already hold the mutex, and the internal unlock/relock happens inside
// libstdc++ where diagnostics are suppressed.
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  void notify_one() noexcept { cv_.notify_one(); }
  void notify_all() noexcept { cv_.notify_all(); }

  void wait(Mutex& mu) DMF_REQUIRES(mu) { cv_.wait(mu); }

  template <typename Predicate>
  void wait(Mutex& mu, Predicate pred) DMF_REQUIRES(mu) {
    while (!pred()) cv_.wait(mu);
  }

  template <typename Rep, typename Period>
  std::cv_status wait_for(Mutex& mu,
                          const std::chrono::duration<Rep, Period>& dur)
      DMF_REQUIRES(mu) {
    return cv_.wait_for(mu, dur);
  }

  template <typename Rep, typename Period, typename Predicate>
  bool wait_for(Mutex& mu, const std::chrono::duration<Rep, Period>& dur,
                Predicate pred) DMF_REQUIRES(mu) {
    return cv_.wait_for(mu, dur, std::move(pred));
  }

  template <typename Clock, typename Duration>
  std::cv_status wait_until(
      Mutex& mu, const std::chrono::time_point<Clock, Duration>& deadline)
      DMF_REQUIRES(mu) {
    return cv_.wait_until(mu, deadline);
  }

  template <typename Clock, typename Duration, typename Predicate>
  bool wait_until(Mutex& mu,
                  const std::chrono::time_point<Clock, Duration>& deadline,
                  Predicate pred) DMF_REQUIRES(mu) {
    return cv_.wait_until(mu, deadline, std::move(pred));
  }

 private:
  std::condition_variable_any cv_;
};

}  // namespace dmf
