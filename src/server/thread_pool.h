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
  /// Spawns \p num_threads workers (at least 1). With a \p watchdog (which
  /// must outlive the pool), the pool registers "thread_pool", one
  /// heartbeat for the whole pool, armed until Shutdown: every worker beats
  /// it when it wakes and around each task, so one wedged task does not
  /// trip the deadline while its siblings still make progress; only a pool
  /// with NO worker beating reads as a stall.
  explicit ThreadPool(size_t num_threads, obs::Watchdog* watchdog = nullptr);

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

 private:
  void WorkerLoop();
  void BeatWatchdog() {
    if (watchdog_ != nullptr) watchdog_->Beat();
  }

  obs::Watchdog::Handle* const watchdog_;
  mutable std::mutex mutex_;
  std::condition_variable cv_;
  std::deque<std::function<void()>> queue_;
  std::vector<std::thread> workers_;
  /// Workers blocked in the wait for a task, and queue_.size(): written
  /// under mutex_, read without it by HasIdleWorker.
  std::atomic<size_t> idle_{0};
  std::atomic<size_t> queued_{0};
  bool shutting_down_ = false;
};

}  // namespace aims::server
