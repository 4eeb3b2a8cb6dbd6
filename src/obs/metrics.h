#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

/// \file metrics.h
/// \brief Observability primitives shared by every subsystem: named atomic
/// counters, gauges, and fixed-bucket latency histograms, collected in a
/// MetricsRegistry with a plain-text dump and structured accessors for the
/// exporters (see obs/exporters.h). Everything here is lock-free on the hot
/// path (registration takes a mutex once; updates are atomic), so metrics
/// can be recorded from every worker thread without perturbing the
/// concurrency being measured.

namespace aims::obs {

/// \brief Monotonic event count. Increment is relaxed-atomic; on overflow
/// the value wraps modulo 2^64 (standard unsigned behavior) — consumers
/// that compute rates as deltas stay correct across a wrap.
class Counter {
 public:
  void Increment(uint64_t delta = 1) {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  uint64_t value() const { return value_.load(std::memory_order_relaxed); }

  /// Test/bench-only: zeroes the count between measurement phases.
  void Reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> value_{0};
};

/// \brief Instantaneous level (e.g. queue depth): can go up and down.
class Gauge {
 public:
  void Set(int64_t v) { value_.store(v, std::memory_order_relaxed); }
  void Add(int64_t delta) { value_.fetch_add(delta, std::memory_order_relaxed); }
  int64_t value() const { return value_.load(std::memory_order_relaxed); }

  /// Tracks the high-water mark alongside the level (monotonic).
  void AddTracked(int64_t delta) {
    int64_t now = value_.fetch_add(delta, std::memory_order_relaxed) + delta;
    int64_t seen = max_.load(std::memory_order_relaxed);
    while (now > seen &&
           !max_.compare_exchange_weak(seen, now, std::memory_order_relaxed)) {
    }
  }
  int64_t max() const { return max_.load(std::memory_order_relaxed); }

  /// Test/bench-only: zeroes the level and its high-water mark.
  void Reset() {
    value_.store(0, std::memory_order_relaxed);
    max_.store(0, std::memory_order_relaxed);
  }

 private:
  std::atomic<int64_t> value_{0};
  std::atomic<int64_t> max_{0};
};

/// \brief Fixed-bucket histogram for latency-like values.
///
/// Buckets are defined by ascending upper bounds; a final implicit
/// +infinity bucket catches everything above the last bound. Each Record
/// is two relaxed atomic adds plus one bucket increment — no locks.
class Histogram {
 public:
  /// \param upper_bounds ascending bucket upper bounds (inclusive);
  /// an empty list yields a single +inf bucket.
  explicit Histogram(std::vector<double> upper_bounds);

  void Record(double value);

  uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  double sum() const { return sum_.load(std::memory_order_relaxed); }
  double mean() const {
    uint64_t n = count();
    return n == 0 ? 0.0 : sum() / static_cast<double>(n);
  }

  /// Observations in bucket \p i (0 .. upper_bounds.size(), the last being
  /// the +inf bucket).
  uint64_t bucket_count(size_t i) const;
  const std::vector<double>& upper_bounds() const { return bounds_; }
  size_t num_buckets() const { return buckets_.size(); }

  /// \brief Observations that landed in the +inf overflow bucket — values
  /// past the last finite bound, where quantile interpolation has no upper
  /// edge to work with. Exported as aims_histogram_overflow_total so a
  /// clamped quantile (see ApproxQuantile) is visible as a clamp, not
  /// mistaken for a true reading.
  uint64_t overflow_count() const {
    return buckets_.empty() ? 0 : bucket_count(buckets_.size() - 1);
  }

  /// \brief Approximate p-quantile (p in [0,1]) interpolated from the fixed
  /// buckets assuming observations are uniform within a bucket. When the
  /// estimate lands in the +inf overflow bucket there is no upper edge to
  /// interpolate toward, so the result is CLAMPED to the last finite bound
  /// (never an unbounded or past-the-end extrapolation); overflow_count()
  /// says how often that clamp is in play. Good enough for "p99 ingest
  /// latency" style reporting.
  double ApproxQuantile(double p) const;

  /// Test/bench-only: zeroes every bucket plus the count and sum.
  void Reset();

 private:
  std::vector<double> bounds_;
  /// unique_ptr keeps atomics at stable addresses; vector<atomic> itself
  /// is fine post-construction but not movable.
  std::vector<std::unique_ptr<std::atomic<uint64_t>>> buckets_;
  std::atomic<uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
};

/// \brief Name -> metric directory shared by all services of one server.
///
/// Get* registers on first use and returns the same object thereafter;
/// returned pointers stay valid for the registry's lifetime, so services
/// resolve their metrics once at construction and update lock-free.
class MetricsRegistry {
 public:
  Counter* GetCounter(const std::string& name);
  Gauge* GetGauge(const std::string& name);
  /// \p upper_bounds applies on first registration; later callers get the
  /// existing histogram regardless of bounds.
  Histogram* GetHistogram(const std::string& name,
                          std::vector<double> upper_bounds);

  /// \brief Exponential latency bounds in milliseconds:
  /// 0.25, 0.5, 1, 2, ... up to 2^12 ms (~4 s), 14 finite buckets.
  static std::vector<double> DefaultLatencyBoundsMs();

  /// \brief Sub-millisecond bounds for the tracer's stage histograms:
  /// 1 us doubling up to ~2.1 s (22 finite buckets), so microsecond-scale
  /// stages such as a block fetch land in distinct buckets.
  static std::vector<double> DefaultProfileBoundsMs();

  /// \brief Name-sorted snapshots (registration order never leaks into the
  /// output). Returned pointers stay valid for the registry's lifetime.
  std::vector<std::pair<std::string, Counter*>> Counters() const;
  std::vector<std::pair<std::string, Gauge*>> Gauges() const;
  std::vector<std::pair<std::string, Histogram*>> Histograms() const;

  /// \brief Plain-text dump, one line per metric in a single globally
  /// name-sorted order (stable across runs) — the bench/test inspection
  /// format:
  ///   counter <name> <value>
  ///   gauge <name> <value> max <max>
  ///   histogram <name> count <n> mean <m> p50 <v> p99 <v>
  std::string DumpText() const;

  /// \brief Test/bench-only: zeroes every registered metric (the metric
  /// objects themselves stay registered and previously returned pointers
  /// stay valid). Used by benches to separate measurement phases.
  void Reset();

 private:
  mutable std::mutex mutex_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

}  // namespace aims::obs
