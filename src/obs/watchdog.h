#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "obs/metrics.h"

/// \file watchdog.h
/// \brief Stall detection for the server's long-lived threads. Every
/// component that is supposed to make continuous progress — the thread
/// pool's workers, the StatsReporter loop, the WAL's group-commit sync
/// leader, the tenant migrator — registers a named Handle and heartbeats
/// it (Beat) from inside its loop. A background checker walks the handles
/// on a short cadence; an ARMED handle whose last beat is older than its
/// deadline is a stall: the `watchdog.stalls_total` counter ticks and the
/// stall callback fires (the server points it at the FlightRecorder, so a
/// wedged fsync or a deadlocked pool produces a post-mortem bundle while
/// the evidence is still in memory).
///
/// Arming is a count, not a flag, so episodic work composes: always-on
/// loops call Arm() once and then just Beat; episodic sections (one WAL
/// sync, one tenant migration) bracket themselves with BeginScope/EndScope
/// — overlapping scopes from different threads keep the handle armed until
/// the last one ends. A disarmed handle is never judged: idle is not a
/// stall.

namespace aims::obs {

class PeriodicThread;

/// \brief The default per-handle deadline.
struct WatchdogConfig {
  /// Deadline applied to handles registered without their own: an armed
  /// handle whose last beat is older than this has stalled.
  double deadline_ms = 5000.0;
};

/// \brief Heartbeat-deadline stall detector.
///
/// Thread-safe. Register handles any time (they live until the Watchdog
/// dies); Beat/BeginScope/EndScope are a few relaxed atomics — safe on hot
/// paths. Start() is optional: without it (or between checks) CheckNow()
/// evaluates on the caller's thread, which is what the tests use.
class Watchdog {
 public:
  /// \brief One registered component's heartbeat slot.
  class Handle {
   public:
    /// Stamps "I made progress just now".
    void Beat() {
      last_beat_ns_.store(NowNs(), std::memory_order_relaxed);
    }
    /// Permanently arms the handle (for always-on loops). Counts like an
    /// open scope that never ends; also beats.
    void Arm() { BeginScope(); }
    /// Undoes one Arm()/BeginScope() (for loops that exit cleanly, so a
    /// stopped component is idle, not stalled).
    void Disarm() { EndScope(); }
    /// Brackets one episodic section of supervised work; beats on entry.
    void BeginScope() {
      Beat();
      active_.fetch_add(1, std::memory_order_acq_rel);
    }
    void EndScope() {
      Beat();
      active_.fetch_sub(1, std::memory_order_acq_rel);
    }

    const std::string& name() const { return name_; }
    double deadline_ms() const { return deadline_ms_; }
    bool armed() const { return active_.load(std::memory_order_acquire) > 0; }
    double MsSinceBeat() const {
      return static_cast<double>(
                 NowNs() - last_beat_ns_.load(std::memory_order_relaxed)) /
             1e6;
    }

   private:
    friend class Watchdog;
    Handle(std::string name, double deadline_ms)
        : name_(std::move(name)), deadline_ms_(deadline_ms) {
      Beat();
    }
    static int64_t NowNs() {
      return std::chrono::duration_cast<std::chrono::nanoseconds>(
                 std::chrono::steady_clock::now().time_since_epoch())
          .count();
    }

    const std::string name_;
    const double deadline_ms_;
    std::atomic<int64_t> last_beat_ns_{0};
    std::atomic<int32_t> active_{0};
    /// Per-episode latch: a stall is counted once until the handle beats
    /// back under its deadline. Touched only by the checker (under mutex_).
    bool in_stall_ = false;
  };

  /// RAII BeginScope/EndScope (null handle = no-op, so call sites stay
  /// unconditional).
  class Scope {
   public:
    explicit Scope(Handle* handle) : handle_(handle) {
      if (handle_ != nullptr) handle_->BeginScope();
    }
    ~Scope() {
      if (handle_ != nullptr) handle_->EndScope();
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Handle* handle_;
  };

  /// \brief One handle's judgement at check time (also the /debug surface
  /// the flight recorder embeds in its bundle).
  struct ThreadStatus {
    std::string name;
    bool armed = false;
    bool stalled = false;
    double ms_since_beat = 0.0;
    double deadline_ms = 0.0;
  };

  /// \param stall_counter optional counter (e.g. the registry's
  /// "watchdog.stalls_total") ticked once per stall episode.
  /// \param stall_callback optional action per new stall episode (fire the
  /// flight recorder); it runs on the checking thread with no Watchdog
  /// lock held.
  explicit Watchdog(
      WatchdogConfig config = {}, Counter* stall_counter = nullptr,
      std::function<void(const ThreadStatus&)> stall_callback = {});
  ~Watchdog();

  Watchdog(const Watchdog&) = delete;
  Watchdog& operator=(const Watchdog&) = delete;

  /// \brief Registers a component. The returned handle is owned by the
  /// Watchdog and stays valid for its lifetime. \p deadline_ms 0 takes the
  /// config default. Handles start DISARMED.
  Handle* Register(std::string name, double deadline_ms = 0.0);

  /// \brief Spawns the checker, walking the handles every \p interval_ms
  /// (idempotent; no-op when the interval is not positive).
  void Start(double interval_ms);
  /// \brief Stops and joins the checker (idempotent).
  void Stop();
  bool running() const;

  /// \brief Walks the handles once on the caller's thread; returns how
  /// many NEW stall episodes this pass found. Start() is not required.
  size_t CheckNow();

  /// \brief Current judgement of every handle, registration order.
  std::vector<ThreadStatus> Status() const;

  /// Stall episodes detected since construction.
  uint64_t stalls() const { return stalls_.load(std::memory_order_relaxed); }

  const WatchdogConfig& config() const { return config_; }

 private:
  WatchdogConfig config_;
  Counter* stall_counter_;
  const std::function<void(const ThreadStatus&)> stall_callback_;

  /// Guards handles_ (the deque — handle internals are atomic) and each
  /// handle's in_stall_ latch.
  mutable std::mutex mutex_;
  std::deque<std::unique_ptr<Handle>> handles_;

  std::atomic<uint64_t> stalls_{0};

  /// Behind a pointer: periodic_thread.h includes this header for Handle.
  std::unique_ptr<PeriodicThread> checker_;
};

}  // namespace aims::obs
