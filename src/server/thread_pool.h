#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "obs/watchdog.h"

/// \file thread_pool.h
/// \brief Fixed-size task executor for the service runtime: it runs the
/// work no caller waits on, queued query tickets and rebalance tasks, over
/// a bounded number of OS threads. Ingest and live recognition run on
/// their callers' threads.

namespace aims::server {

/// \brief A fixed set of worker threads draining a FIFO task queue.
///
/// The queue itself is unbounded: admission control (bounded queues,
/// reject-when-full) is the job of the services that feed the pool, which
/// know what a task represents and can account a drop meaningfully.
class ThreadPool {
 public:
  /// Spawns \p num_threads workers (at least 1).
  explicit ThreadPool(size_t num_threads);

  /// Drains outstanding tasks and joins the workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// \brief Enqueues a task. Returns false (task not enqueued) after
  /// Shutdown has begun.
  bool Submit(std::function<void()> task);

  /// \brief Stops accepting tasks, runs everything already queued to
  /// completion, and joins the workers. Idempotent; called by the
  /// destructor if not called explicitly.
  void Shutdown();

  size_t num_threads() const { return workers_.size(); }

  /// Tasks enqueued but not yet started (diagnostic).
  size_t queued() const;

  /// \brief True when some worker is blocked waiting for a task and there
  /// are at least as many such workers as queued tasks, so every queued
  /// task starts at once. A lock-free snapshot (a waking worker needs the
  /// pool's mutex); it may change as soon as it returns.
  bool HasIdleWorker() const {
    const size_t idle = idle_.load(std::memory_order_relaxed);
    return idle > 0 && idle >= queued_.load(std::memory_order_relaxed);
  }

  /// \brief Shared heartbeat slot for the whole pool: arms it, and every
  /// worker beats it when it wakes and around each task. One wedged task
  /// does not trip the deadline while its siblings still make progress —
  /// only a pool with NO worker beating (all stuck or deadlocked) reads
  /// as a stall. The handle must outlive the pool; null detaches.
  void SetWatchdog(obs::Watchdog::Handle* handle);

 private:
  void WorkerLoop();
  void BeatWatchdog() {
    obs::Watchdog::Handle* handle =
        watchdog_.load(std::memory_order_acquire);
    if (handle != nullptr) handle->Beat();
  }

  mutable std::mutex mutex_;
  std::condition_variable cv_;
  std::deque<std::function<void()>> queue_;
  std::vector<std::thread> workers_;
  /// Workers blocked in the wait for a task, and queue_.size(): written
  /// under mutex_, read without it by HasIdleWorker.
  std::atomic<size_t> idle_{0};
  std::atomic<size_t> queued_{0};
  bool shutting_down_ = false;
  std::atomic<obs::Watchdog::Handle*> watchdog_{nullptr};
};

}  // namespace aims::server
