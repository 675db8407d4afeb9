#include "exec/thread_pool.h"

#include <utility>

#include "obs/metrics.h"
#include "util/fault.h"

namespace lyric {
namespace exec {

ThreadPool::ThreadPool(size_t num_threads) {
  if (num_threads == 0) num_threads = 1;
  workers_.reserve(num_threads);
  for (size_t i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
  LYRIC_OBS_COUNT_N("exec.pool_threads_spawned", num_threads);
}

ThreadPool::~ThreadPool() {
  {
    sync::MutexLock lock(mu_);
    shutting_down_ = true;
  }
  cv_.NotifyAll();
  for (std::thread& w : workers_) {
    w.join();
  }
}

void ThreadPool::Submit(std::function<void()> task) {
  // Simulated scheduling failure: degrade to inline execution on the
  // caller. Correctness is unaffected — the task still runs and notifies
  // its waiter — only concurrency is lost.
  if (fault::Enabled() && fault::Inject(fault::kSiteThreadPool)) {
    LYRIC_OBS_COUNT("exec.tasks_inline_degraded");
    task();
    return;
  }
  {
    sync::MutexLock lock(mu_);
    queue_.push_back(std::move(task));
  }
  cv_.NotifyOne();
  LYRIC_OBS_COUNT("exec.tasks_submitted");
}

void ThreadPool::WorkerLoop() {
  for (;;) {
    std::function<void()> task;
    {
      sync::MutexLock lock(mu_);
      while (!shutting_down_ && queue_.empty()) cv_.Wait(mu_);
      // Drain before exiting so every submitted task runs (a caller may
      // be waiting on its result even during shutdown).
      if (queue_.empty()) return;
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    task();
  }
}

size_t ThreadPool::HardwareThreads() {
  unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : static_cast<size_t>(n);
}

void Notification::Notify() {
  sync::MutexLock lock(mu_);
  notified_ = true;
  // Signal under the lock: the waiter may destroy this object as soon as
  // it sees notified_, so nothing may touch it after the unlock.
  cv_.NotifyAll();
}

void Notification::Wait() {
  sync::MutexLock lock(mu_);
  while (!notified_) cv_.Wait(mu_);
}

}  // namespace exec
}  // namespace lyric
