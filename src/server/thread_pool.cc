#include "server/thread_pool.h"

#include <algorithm>
#include <utility>

namespace aims::server {

ThreadPool::ThreadPool(size_t num_threads, obs::Watchdog* watchdog)
    : watchdog_(watchdog != nullptr ? watchdog->Register("thread_pool")
                                    : nullptr) {
  if (watchdog_ != nullptr) watchdog_->Arm();
  size_t n = std::max<size_t>(num_threads, 1);
  workers_.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() { Shutdown(); }

bool ThreadPool::Submit(std::function<void()> task) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (shutting_down_) return false;
    queue_.push_back(std::move(task));
    queued_.store(queue_.size(), std::memory_order_relaxed);
  }
  cv_.notify_one();
  return true;
}

void ThreadPool::Shutdown() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (shutting_down_) {
      // A second caller (e.g. the destructor after an explicit Shutdown)
      // must not re-join already-joined threads.
      return;
    }
    shutting_down_ = true;
  }
  cv_.notify_all();
  for (std::thread& worker : workers_) {
    if (worker.joinable()) worker.join();
  }
  // A joined pool is idle, not stalled: hand the arm back.
  if (watchdog_ != nullptr) watchdog_->Disarm();
}

size_t ThreadPool::queued() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return queue_.size();
}

void ThreadPool::WorkerLoop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      // Bounded wait instead of an open-ended one so an IDLE worker still
      // heartbeats: only a pool where every worker is wedged goes quiet.
      while (queue_.empty() && !shutting_down_) {
        // A woken worker counts as idle until it holds the mutex again:
        // the task that woke it is still queued until then.
        idle_.fetch_add(1, std::memory_order_relaxed);
        cv_.wait_for(lock, std::chrono::milliseconds(500));
        idle_.fetch_sub(1, std::memory_order_relaxed);
        BeatWatchdog();
      }
      if (queue_.empty()) return;  // Shutting down and fully drained.
      task = std::move(queue_.front());
      queue_.pop_front();
      queued_.store(queue_.size(), std::memory_order_relaxed);
    }
    BeatWatchdog();
    task();
    BeatWatchdog();
  }
}

}  // namespace aims::server
