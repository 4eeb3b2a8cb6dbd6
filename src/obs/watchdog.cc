#include "obs/watchdog.h"

#include <utility>

#include "obs/periodic_thread.h"

namespace aims::obs {

Watchdog::Watchdog(WatchdogConfig config, Counter* stall_counter,
                   std::function<void(const ThreadStatus&)> stall_callback)
    : config_(config),
      stall_counter_(stall_counter),
      stall_callback_(std::move(stall_callback)),
      checker_(std::make_unique<PeriodicThread>()) {
  if (config_.deadline_ms <= 0.0) config_.deadline_ms = 5000.0;
}

Watchdog::~Watchdog() { Stop(); }

Watchdog::Handle* Watchdog::Register(std::string name, double deadline_ms) {
  std::lock_guard<std::mutex> lock(mutex_);
  handles_.push_back(std::unique_ptr<Handle>(new Handle(
      std::move(name), deadline_ms > 0.0 ? deadline_ms : config_.deadline_ms)));
  return handles_.back().get();
}

void Watchdog::Start(double interval_ms) {
  checker_->Start(interval_ms, [this] { CheckNow(); });
}

void Watchdog::Stop() { checker_->Stop(); }

bool Watchdog::running() const { return checker_->running(); }

size_t Watchdog::CheckNow() {
  // Judge under the lock, fire callbacks outside it: a callback that dumps
  // a flight-record bundle (file I/O) must not hold up Register/Status.
  std::vector<ThreadStatus> fresh_stalls;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    for (const std::unique_ptr<Handle>& handle : handles_) {
      const bool armed = handle->armed();
      const double since = handle->MsSinceBeat();
      const bool over = armed && since > handle->deadline_ms();
      if (over && !handle->in_stall_) {
        handle->in_stall_ = true;
        stalls_.fetch_add(1, std::memory_order_relaxed);
        if (stall_counter_ != nullptr) stall_counter_->Increment();
        fresh_stalls.push_back(ThreadStatus{handle->name(), armed, true, since,
                                            handle->deadline_ms()});
      } else if (!over) {
        // Beat again (or disarmed): the episode is over; the next miss is
        // a new stall.
        handle->in_stall_ = false;
      }
    }
  }
  if (stall_callback_) {
    for (const ThreadStatus& status : fresh_stalls) stall_callback_(status);
  }
  return fresh_stalls.size();
}

std::vector<Watchdog::ThreadStatus> Watchdog::Status() const {
  std::vector<ThreadStatus> out;
  std::lock_guard<std::mutex> lock(mutex_);
  out.reserve(handles_.size());
  for (const std::unique_ptr<Handle>& handle : handles_) {
    ThreadStatus status;
    status.name = handle->name();
    status.armed = handle->armed();
    status.ms_since_beat = handle->MsSinceBeat();
    status.deadline_ms = handle->deadline_ms();
    status.stalled = handle->in_stall_;
    out.push_back(std::move(status));
  }
  return out;
}

}  // namespace aims::obs
