#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <functional>
#include <mutex>
#include <thread>

#include "obs/watchdog.h"

/// \file periodic_thread.h
/// \brief The one background loop every periodic server component runs on
/// (stats reporter, metrics scraper, watchdog checker, flight-recorder
/// persist, retention sweeper, async-log drain): a thread that calls a
/// tick on a fixed cadence, with an interruptible wait between ticks and
/// an optional watchdog heartbeat.

namespace aims::obs {

/// \brief A thread that runs a tick every interval until stopped.
///
/// Thread-safe. Start and Stop are serialized end to end, the join
/// included: a Start racing a Stop waits until the old loop has exited,
/// and concurrent Stops join the thread once. The tick must not call
/// Start or Stop on its own PeriodicThread.
class PeriodicThread {
 public:
  PeriodicThread() = default;
  /// Stops the loop (see Stop).
  ~PeriodicThread();

  PeriodicThread(const PeriodicThread&) = delete;
  PeriodicThread& operator=(const PeriodicThread&) = delete;

  /// \brief Spawns the loop: \p tick runs every \p interval_ms, the first
  /// time one interval after Start. \p heartbeat, when given, is armed
  /// until Stop returns and beaten before every tick. Returns false and
  /// starts nothing when the interval is not positive or a loop already
  /// runs.
  bool Start(double interval_ms, std::function<void()> tick,
             Watchdog::Handle* heartbeat = nullptr);

  /// \brief Wakes the loop out of its wait, joins it (a tick in progress
  /// finishes first) and disarms the heartbeat. Returns true when it
  /// stopped a running loop, false when none was running.
  bool Stop();

  bool running() const { return running_.load(std::memory_order_acquire); }

 private:
  void Run(std::chrono::steady_clock::duration interval);

  /// Held across all of Start and Stop; guards thread_. tick_ and
  /// heartbeat_ are set before the thread spawns and reset after it joins.
  std::mutex lifecycle_mutex_;
  std::function<void()> tick_;
  Watchdog::Handle* heartbeat_ = nullptr;
  std::atomic<bool> running_{false};

  /// Guards stop_requested_, the loop's wait predicate.
  std::mutex wake_mutex_;
  std::condition_variable wake_cv_;
  bool stop_requested_ = false;

  std::thread thread_;
};

}  // namespace aims::obs
