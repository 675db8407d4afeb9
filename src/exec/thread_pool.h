// A fixed-size worker pool, and the one-shot Notification its callers
// wait on.
//
// lyric_serverd's exec pool is the one user: each session's reader thread
// submits a decoded query to the pool and waits on a Notification for the
// answer (net/server.cc), so requests on one connection stay ordered and
// concurrency comes from other sessions. Each query evaluates serially on
// the pool thread that runs it.
//
// The pool is deliberately small: submit closures, destruction drains the
// queue and joins. No futures, no work stealing.

#ifndef LYRIC_EXEC_THREAD_POOL_H_
#define LYRIC_EXEC_THREAD_POOL_H_

#include <cstddef>
#include <deque>
#include <functional>
#include <thread>
#include <vector>

#include "util/sync.h"

namespace lyric {
namespace exec {

/// A fixed-size pool of worker threads consuming a FIFO task queue.
class ThreadPool {
 public:
  /// Spawns `num_threads` workers (clamped to at least 1).
  explicit ThreadPool(size_t num_threads);
  /// Drains the queue (every submitted task runs) and joins the workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  size_t size() const { return workers_.size(); }

  /// Enqueues a task. Tasks run in FIFO order across the workers; a task
  /// must not submit to the pool it runs on while the pool is being
  /// destroyed.
  void Submit(std::function<void()> task) LYRIC_EXCLUDES(mu_);

  /// The hardware concurrency, at least 1 (std::thread reports 0 when it
  /// cannot tell).
  static size_t HardwareThreads();

 private:
  void WorkerLoop() LYRIC_EXCLUDES(mu_);

  sync::Mutex mu_{sync::LockRank::kThreadPool, "thread_pool"};
  sync::CondVar cv_;
  std::deque<std::function<void()>> queue_ LYRIC_GUARDED_BY(mu_);
  bool shutting_down_ LYRIC_GUARDED_BY(mu_) = false;
  // Written only by the constructor, before any worker can observe it.
  std::vector<std::thread> workers_;
};

/// A one-shot event: a task calls Notify() once when it is done, and the
/// thread that submitted it blocks in Wait() until then.
class Notification {
 public:
  void Notify() LYRIC_EXCLUDES(mu_);
  void Wait() LYRIC_EXCLUDES(mu_);

 private:
  sync::Mutex mu_{sync::LockRank::kNotification, "notification"};
  sync::CondVar cv_;
  bool notified_ LYRIC_GUARDED_BY(mu_) = false;
};

}  // namespace exec
}  // namespace lyric

#endif  // LYRIC_EXEC_THREAD_POOL_H_
