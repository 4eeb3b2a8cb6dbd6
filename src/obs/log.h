#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <ostream>
#include <string>

#include "obs/periodic_thread.h"

/// \file log.h
/// \brief Structured asynchronous logging: a lock-free bounded MPSC ring
/// drained by one background thread into a JSON-lines sink. The producer
/// contract is the same reject-never-block rule ingest admission follows —
/// Log() is a handful of atomic operations and NEVER blocks, sleeps, or
/// allocates a lock; when the ring is full (the drainer fell behind) or
/// the rate limit trips, the record is dropped and counted instead. The
/// server's slow-query log rides on this: emitting a record from a pool
/// worker must never add latency to the request path it is reporting on.
///
/// The ring is Vyukov's bounded MPMC queue: each cell carries a sequence
/// number; producers claim a slot with one CAS on the enqueue cursor and
/// publish by storing the cell's sequence, so producers never wait on each
/// other or on the consumer.

namespace aims::obs {

/// \brief Tuning of one AsyncLogger.
struct AsyncLogConfig {
  /// Ring capacity in records (rounded up to a power of two, minimum 2).
  /// A full ring drops new records (counted in dropped_full()).
  size_t ring_capacity = 1024;
  /// Background drain cadence. The drainer also wakes immediately on
  /// Stop()/Flush(), so a large value only delays the sink, not shutdown.
  double drain_interval_ms = 20.0;
  /// Producer-side rate limit: at most this many records admitted per
  /// second (0 = unlimited). Excess records are dropped and counted in
  /// dropped_rate_limited() — overload protection for the sink.
  size_t max_records_per_sec = 0;
};

/// \brief Lock-free bounded async logger with a JSON-lines sink.
///
/// Thread-safe: Log() from any number of threads; Flush/Stop from control
/// threads (they serialize on the drain mutex, concurrent with producers).
class AsyncLogger {
 public:
  /// \param sink destination stream (not owned; must outlive the logger or
  /// its Stop()). One record per line, flushed after every drain pass.
  explicit AsyncLogger(std::ostream* sink, AsyncLogConfig config = {});

  /// Stops the drain thread, writing out everything still enqueued.
  ~AsyncLogger();

  AsyncLogger(const AsyncLogger&) = delete;
  AsyncLogger& operator=(const AsyncLogger&) = delete;

  /// \brief Enqueues one record (one line; the newline is added by the
  /// drainer). Returns false — without blocking — when the record was
  /// dropped because the ring is full or the rate limit tripped.
  bool Log(std::string line);

  /// \brief Blocks until every record ADMITTED before this call (every
  /// Log() that returned true) is in the sink, then flushes it. Records
  /// whose producers are mid-publish are waited for (bounded: a producer
  /// finishes its publish in a handful of instructions), so a Flush
  /// ordered after a successful Log never loses that record. Records
  /// admitted concurrently with the flush may or may not be included.
  void Flush();

  /// \brief Stops and joins the drain thread, then runs one final
  /// blocking Flush (idempotent) — every record accepted before Stop()
  /// reaches the sink; none are silently dropped at shutdown. Log() keeps
  /// accepting records afterwards; they sit in the ring until a Flush()
  /// or are lost — stop last.
  void Stop();

  bool running() const;

  /// Records written to the sink.
  uint64_t published() const { return published_.load(std::memory_order_relaxed); }
  /// Records dropped because the ring was full.
  uint64_t dropped_full() const {
    return dropped_full_.load(std::memory_order_relaxed);
  }
  /// Records dropped by the producer-side rate limit.
  uint64_t dropped_rate_limited() const {
    return dropped_rate_limited_.load(std::memory_order_relaxed);
  }
  /// Total records dropped for any reason.
  uint64_t dropped() const { return dropped_full() + dropped_rate_limited(); }

  size_t ring_capacity() const { return mask_ + 1; }

 private:
  struct Cell {
    std::atomic<uint64_t> sequence{0};
    std::string line;
  };

  bool TryPush(std::string* line);
  bool TryPop(std::string* line);
  bool RateAdmit();

  std::ostream* sink_;
  AsyncLogConfig config_;
  const std::chrono::steady_clock::time_point epoch_;

  std::unique_ptr<Cell[]> cells_;
  size_t mask_ = 0;
  std::atomic<uint64_t> enqueue_pos_{0};
  std::atomic<uint64_t> dequeue_pos_{0};

  /// Start of the current one-second rate window, in ms since epoch_.
  std::atomic<int64_t> rate_window_start_ms_{0};
  std::atomic<uint64_t> rate_window_count_{0};

  std::atomic<uint64_t> published_{0};
  std::atomic<uint64_t> dropped_full_{0};
  std::atomic<uint64_t> dropped_rate_limited_{0};

  /// Serializes sink access between the drain thread and Flush().
  std::mutex drain_mutex_;

  PeriodicThread drain_loop_;
};

}  // namespace aims::obs
