// Annotated synchronization primitives for xatpg.
//
// std::mutex carries no Clang Thread Safety attributes on libstdc++, so a
// bare `std::mutex` member is invisible to -Wthread-safety: GUARDED_BY
// declarations against it cannot be checked.  Mutex is a zero-overhead
// wrapper that IS a capability, and MutexLock is the scoped acquisition the
// analysis understands (including condition-variable waits, which keep the
// capability held across the internal release/reacquire — exactly the
// contract the waiting code relies on: the predicate is re-evaluated under
// the lock).
//
// Everything inlines to the plain std::mutex / std::unique_lock calls; on
// compilers without the attributes this header costs nothing.
#pragma once

#include <condition_variable>
#include <mutex>

#include "util/annotations.hpp"

namespace xatpg {

/// A std::mutex the thread-safety analysis can track as a capability.
class XATPG_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void lock() XATPG_ACQUIRE() { m_.lock(); }
  void unlock() XATPG_RELEASE() { m_.unlock(); }

 private:
  friend class MutexLock;
  std::mutex m_;
};

/// Scoped lock over Mutex (the std::unique_lock of this layer).  Also the
/// only way to wait on a condition variable: from the analysis's point of
/// view the capability stays held across the wait, which matches how callers
/// must treat their guarded state (re-check the predicate, assume nothing
/// about interleavings during the wait).
class XATPG_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) XATPG_ACQUIRE(mu) : lock_(mu.m_) {}
  ~MutexLock() XATPG_RELEASE() = default;

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

  /// Block on `cv` until notified.  The predicate loop stays the caller's
  /// job (or use the predicate overload below).
  void wait(std::condition_variable& cv) { cv.wait(lock_); }
  template <typename Predicate>
  void wait(std::condition_variable& cv, Predicate pred) {
    cv.wait(lock_, std::move(pred));
  }

 private:
  std::unique_lock<std::mutex> lock_;
};

}  // namespace xatpg
