#include "obs/log.h"

#include <thread>
#include <utility>

#include "common/macros.h"

namespace aims::obs {

namespace {

size_t RoundUpPowerOfTwo(size_t n) {
  size_t p = 2;
  while (p < n) p <<= 1;
  return p;
}

}  // namespace

AsyncLogger::AsyncLogger(std::ostream* sink, AsyncLogConfig config)
    : sink_(sink),
      config_(config),
      epoch_(std::chrono::steady_clock::now()) {
  AIMS_CHECK(sink_ != nullptr);
  if (config_.ring_capacity < 2) config_.ring_capacity = 2;
  const size_t capacity = RoundUpPowerOfTwo(config_.ring_capacity);
  mask_ = capacity - 1;
  cells_ = std::make_unique<Cell[]>(capacity);
  for (size_t i = 0; i < capacity; ++i) {
    cells_[i].sequence.store(i, std::memory_order_relaxed);
  }
  if (config_.drain_interval_ms <= 0.0) config_.drain_interval_ms = 20.0;
  drain_loop_.Start(config_.drain_interval_ms, [this] { Flush(); });
}

AsyncLogger::~AsyncLogger() { Stop(); }

bool AsyncLogger::RateAdmit() {
  if (config_.max_records_per_sec == 0) return true;
  const int64_t now_ms =
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::steady_clock::now() - epoch_)
          .count();
  int64_t window = rate_window_start_ms_.load(std::memory_order_relaxed);
  if (now_ms - window >= 1000) {
    // One producer wins the window roll; losers just count against the
    // fresh window. The limit is approximate at window edges by design —
    // exactness is not worth a lock on the log path.
    if (rate_window_start_ms_.compare_exchange_strong(
            window, now_ms, std::memory_order_relaxed)) {
      rate_window_count_.store(0, std::memory_order_relaxed);
    }
  }
  return rate_window_count_.fetch_add(1, std::memory_order_relaxed) <
         config_.max_records_per_sec;
}

bool AsyncLogger::TryPush(std::string* line) {
  uint64_t pos = enqueue_pos_.load(std::memory_order_relaxed);
  for (;;) {
    Cell& cell = cells_[pos & mask_];
    const uint64_t seq = cell.sequence.load(std::memory_order_acquire);
    const intptr_t dif =
        static_cast<intptr_t>(seq) - static_cast<intptr_t>(pos);
    if (dif == 0) {
      if (enqueue_pos_.compare_exchange_weak(pos, pos + 1,
                                             std::memory_order_relaxed)) {
        cell.line = std::move(*line);
        cell.sequence.store(pos + 1, std::memory_order_release);
        return true;
      }
      // CAS failure reloaded pos; retry with the new claim point.
    } else if (dif < 0) {
      return false;  // Ring full: the consumer has not freed this cell yet.
    } else {
      pos = enqueue_pos_.load(std::memory_order_relaxed);
    }
  }
}

bool AsyncLogger::TryPop(std::string* line) {
  uint64_t pos = dequeue_pos_.load(std::memory_order_relaxed);
  for (;;) {
    Cell& cell = cells_[pos & mask_];
    const uint64_t seq = cell.sequence.load(std::memory_order_acquire);
    const intptr_t dif =
        static_cast<intptr_t>(seq) - static_cast<intptr_t>(pos + 1);
    if (dif == 0) {
      if (dequeue_pos_.compare_exchange_weak(pos, pos + 1,
                                             std::memory_order_relaxed)) {
        *line = std::move(cell.line);
        cell.line.clear();
        cell.sequence.store(pos + mask_ + 1, std::memory_order_release);
        return true;
      }
    } else if (dif < 0) {
      return false;  // Ring empty (or the producer has not published yet).
    } else {
      pos = dequeue_pos_.load(std::memory_order_relaxed);
    }
  }
}

bool AsyncLogger::Log(std::string line) {
  if (!RateAdmit()) {
    dropped_rate_limited_.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  if (!TryPush(&line)) {
    dropped_full_.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  return true;
}

void AsyncLogger::Flush() {
  // Snapshot the claim cursor first: every record whose CAS on
  // enqueue_pos_ won before this line is part of the flush contract, even
  // if its producer has not yet stored the cell's sequence (the publish
  // store). A drain that only takes what is poppable right now would
  // silently lose such a record at shutdown — the producer was told
  // "accepted" (Log() returned true), no drop counter moved, and the line
  // never reaches the sink. So: drain until the dequeue cursor catches the
  // snapshot, yielding past momentarily-unpublished cells.
  const uint64_t target = enqueue_pos_.load(std::memory_order_acquire);
  std::lock_guard<std::mutex> lock(drain_mutex_);
  std::string line;
  bool wrote = false;
  while (dequeue_pos_.load(std::memory_order_relaxed) < target) {
    if (TryPop(&line)) {
      *sink_ << line << '\n';
      published_.fetch_add(1, std::memory_order_relaxed);
      wrote = true;
    } else {
      // Claimed but not yet published: the producer is mid-store between
      // its CAS and its sequence release. It finishes in a bounded number
      // of its instructions; yield until it does.
      std::this_thread::yield();
    }
  }
  if (wrote) sink_->flush();
}

void AsyncLogger::Stop() {
  // One final pass after the join: every record accepted before Stop()
  // reaches the sink.
  if (drain_loop_.Stop()) Flush();
}

bool AsyncLogger::running() const { return drain_loop_.running(); }

}  // namespace aims::obs
