#include "obs/periodic_thread.h"

#include <utility>

namespace aims::obs {

PeriodicThread::~PeriodicThread() { Stop(); }

bool PeriodicThread::Start(double interval_ms, std::function<void()> tick,
                           Watchdog::Handle* heartbeat) {
  if (!(interval_ms > 0.0)) return false;
  std::lock_guard<std::mutex> lifecycle(lifecycle_mutex_);
  if (thread_.joinable()) return false;
  {
    std::lock_guard<std::mutex> lock(wake_mutex_);
    stop_requested_ = false;
  }
  tick_ = std::move(tick);
  // Armed from here until Stop has joined: a loop that was never started,
  // or was stopped, is idle, not stalled.
  heartbeat_ = heartbeat;
  if (heartbeat_ != nullptr) heartbeat_->Arm();
  const auto interval =
      std::chrono::duration_cast<std::chrono::steady_clock::duration>(
          std::chrono::duration<double, std::milli>(interval_ms));
  thread_ = std::thread([this, interval] { Run(interval); });
  running_.store(true, std::memory_order_release);
  return true;
}

bool PeriodicThread::Stop() {
  std::lock_guard<std::mutex> lifecycle(lifecycle_mutex_);
  if (!thread_.joinable()) return false;
  {
    std::lock_guard<std::mutex> lock(wake_mutex_);
    stop_requested_ = true;
  }
  wake_cv_.notify_all();
  thread_.join();
  if (heartbeat_ != nullptr) heartbeat_->Disarm();
  heartbeat_ = nullptr;
  tick_ = nullptr;
  running_.store(false, std::memory_order_release);
  return true;
}

void PeriodicThread::Run(std::chrono::steady_clock::duration interval) {
  std::unique_lock<std::mutex> lock(wake_mutex_);
  while (!wake_cv_.wait_for(lock, interval,
                            [this] { return stop_requested_; })) {
    lock.unlock();
    if (heartbeat_ != nullptr) heartbeat_->Beat();
    tick_();
    lock.lock();
  }
}

}  // namespace aims::obs
