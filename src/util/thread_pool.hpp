// Minimal fixed-size thread pool for the fault-parallel ATPG engine.
//
// Deliberately simple: tasks are opaque std::function<void()> jobs pushed
// through one mutex-protected queue.  The pool is NOT the scalability
// mechanism — each worker of AtpgEngine::fan_out claims blocks of
// work_block_size() items from one shared atomic cursor inside a single
// long-lived task, so the pool's queue sees O(threads) submissions per
// fan-out, never O(faults).  Each AtpgEngine owns one pool and reuses it
// for every fan-out of every run, so threads are created when an engine
// first needs them, not once per fan-out.
//
// The locking protocol is machine-checked: every field the queue mutex
// guards is declared XATPG_GUARDED_BY(mutex_), and a Clang build with
// -DXATPG_THREAD_SAFETY=ON (-Wthread-safety -Werror) rejects any access
// outside the lock at compile time.  TSan checks the same protocol
// dynamically on the CI sanitizer job; the static pass covers the
// interleavings TSan never executes.
#pragma once

#include <algorithm>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <thread>
#include <vector>

#include "util/annotations.hpp"
#include "util/sync.hpp"

namespace xatpg {

class ThreadPool {
 public:
  /// Spawn `num_threads` workers (0 is clamped to 1).
  explicit ThreadPool(std::size_t num_threads);
  /// Drains the queue, then joins every worker.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t size() const { return workers_.size(); }

  /// Enqueue a task.  Tasks must not throw — wrap bodies that can fail and
  /// stash the std::exception_ptr (see AtpgEngine::fan_out).
  void submit(std::function<void()> task) XATPG_EXCLUDES(mutex_);

  /// Block until the queue is empty and every worker is idle.
  void wait_idle() XATPG_EXCLUDES(mutex_);

 private:
  void worker_loop() XATPG_EXCLUDES(mutex_);
  /// True when the queue is drained and no task is running.
  bool idle() const XATPG_REQUIRES(mutex_) {
    return tasks_.empty() && active_ == 0;
  }

  Mutex mutex_;
  std::condition_variable work_cv_;   // signals workers: task or stop
  std::condition_variable idle_cv_;   // signals wait_idle: all drained
  std::deque<std::function<void()>> tasks_ XATPG_GUARDED_BY(mutex_);
  std::size_t active_ XATPG_GUARDED_BY(mutex_) = 0;
  bool stop_ XATPG_GUARDED_BY(mutex_) = false;
  // Written only by the constructor, before any worker can observe the pool;
  // joined by the destructor after stop_ is published under mutex_.
  std::vector<std::thread> workers_;
};

/// Worker slots for a fan-out of `items` over `threads` threads: one per
/// item at most, never fewer than one (the calling thread).  The caller
/// needs fan_out_workers(threads, items) - 1 helper threads, so a small
/// batch never spawns `threads` of them.
inline std::size_t fan_out_workers(std::size_t threads, std::size_t items) {
  return std::max<std::size_t>(std::min(threads, items), 1);
}

/// Items per claimed block: about four blocks per worker, so a worker held
/// up by a slow item (work per fault varies wildly — redundant faults
/// exhaust their search caps) leaves the rest to the others, yet never
/// less than one item.  A single worker takes about four blocks too: the
/// calling thread reports progress after each of its blocks, so a
/// one-worker batch is not silent until it ends.  Whenever items >=
/// workers the batch splits into at least `workers` blocks, so no worker
/// starts empty-handed on a small fault list.
inline std::size_t work_block_size(std::size_t items, std::size_t workers) {
  return std::max<std::size_t>(items / (4 * workers), 1);
}

}  // namespace xatpg
