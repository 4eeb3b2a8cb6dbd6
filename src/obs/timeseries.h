#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "common/gorilla.h"
#include "common/status.h"
#include "obs/metrics.h"
#include "obs/periodic_thread.h"
#include "obs/watchdog.h"

/// \file timeseries.h
/// \brief The self-hosted metrics history: a Gorilla-compressed in-memory
/// TSDB over the server's own telemetry, plus the scraper that feeds it
/// and the range-query engine that reads it. AIMS stores immersidata as
/// compressed append-only streams queried progressively; this applies the
/// same model to the server's counters and gauges, so "when did p99 start
/// climbing?" has an answer instead of a shrug.
///
///   MetricsTimeSeries — per-series sealed/active chunk rotation, age- and
///     size-bounded retention, lock-striped concurrent append/read.
///   EvaluateRangeQuery — step-aligned windows with rate()/delta() (wrap-
///     and reset-safe) and min/max/avg/quantile-over-time aggregations.
///   MetricsScraper — samples every registry counter, gauge, and histogram
///     quantile (plus process RSS/fds/CPU) into the store on a cadence,
///     with its own watchdog heartbeat.

namespace aims::obs {

/// \brief Store sizing and retention knobs.
struct MetricsTimeSeriesConfig {
  /// Samples per chunk before the active chunk seals. At the default
  /// 1 s scrape cadence one chunk covers four minutes.
  size_t chunk_max_samples = 240;
  /// Sealed chunks whose newest sample is older than this are dropped.
  /// 0 disables age-based retention.
  double retention_ms = 15 * 60 * 1000.0;
  /// Compressed-byte budget per stripe (the stripes are independent, so a
  /// global budget would need a cross-stripe scan on the append path).
  /// When a stripe exceeds it, its oldest sealed chunk is dropped.
  /// 0 disables size-based retention.
  size_t max_bytes_per_stripe = 1 << 20;
  /// Lock stripes; series hash to a stripe, appends and reads of series in
  /// different stripes never contend.
  size_t stripes = 8;
};

/// \brief Store-wide accounting (summed over stripes).
struct TimeSeriesStats {
  uint64_t series = 0;
  uint64_t samples_appended = 0;
  uint64_t samples_retained = 0;
  uint64_t compressed_bytes = 0;
  uint64_t sealed_chunks = 0;
  uint64_t chunks_dropped_age = 0;
  uint64_t chunks_dropped_size = 0;
  uint64_t out_of_order_dropped = 0;
  /// samples_retained * 16 (raw t+v bytes) / compressed_bytes; 0 when
  /// nothing is retained.
  double compression_ratio = 0.0;
};

/// \brief Lock-striped Gorilla-compressed store of named series.
///
/// Thread-safe: Append/Query/SeriesNames/Stats from any thread. Appends
/// must be time-ordered per series; a sample at or before the series'
/// newest timestamp is dropped and counted (the scraper's clock only
/// moves forward, so this only fires on wall-clock steps).
class MetricsTimeSeries {
 public:
  explicit MetricsTimeSeries(MetricsTimeSeriesConfig config = {});
  /// Moves a store no other thread is using.
  MetricsTimeSeries(MetricsTimeSeries&& other) noexcept;

  void Append(const std::string& series, int64_t t_ms, double value);

  /// All samples of \p series with start_ms <= t <= end_ms, time-ordered.
  /// Empty for an unknown series.
  std::vector<gorilla::Sample> Query(const std::string& series,
                                     int64_t start_ms, int64_t end_ms) const;

  /// Sorted names of every series the store retains.
  std::vector<std::string> SeriesNames() const;

  TimeSeriesStats Stats() const;

  /// \brief Publishes \p t_ms as the latest complete scrape: every series
  /// the scrape sampled already holds its sample at t_ms. The scraper
  /// calls it after a scrape's last append.
  void MarkScraped(int64_t t_ms) {
    last_scrape_ms_.store(t_ms, std::memory_order_release);
  }
  /// \brief The latest MarkScraped timestamp, 0 before the first scrape —
  /// what the StatsReporter judges objectives as of.
  int64_t last_scrape_ms() const {
    return last_scrape_ms_.load(std::memory_order_acquire);
  }

  const MetricsTimeSeriesConfig& config() const { return config_; }

 private:
  struct SealedChunk {
    std::vector<uint8_t> bytes;
    size_t count = 0;
    int64_t start_ms = 0;
    int64_t end_ms = 0;
  };
  struct Series {
    gorilla::GorillaEncoder active;
    int64_t active_start_ms = 0;
    int64_t last_ms = 0;
    std::deque<SealedChunk> sealed;
  };
  struct Stripe {
    mutable std::mutex mutex;
    std::map<std::string, Series> series;
    size_t sealed_bytes = 0;
    uint64_t samples_appended = 0;
    uint64_t chunks_dropped_age = 0;
    uint64_t chunks_dropped_size = 0;
    uint64_t out_of_order_dropped = 0;
    /// Appends since the last age-retention sweep; age retention also runs
    /// every kRetentionAppendPeriod appends, not only at seal time, so a
    /// quiet series' sealed chunks still expire while its stripe stays hot.
    uint32_t appends_since_retention = 0;
  };

  /// Non-seal appends between opportunistic age-retention sweeps. The
  /// sweep is O(series in stripe), so amortize it.
  static constexpr uint32_t kRetentionAppendPeriod = 64;

  Stripe& StripeFor(const std::string& series) const;
  /// Caller holds the stripe mutex. Seals s.active into s.sealed and
  /// applies both retention policies across the stripe.
  void SealAndRetainLocked(Stripe& stripe, Series& s, int64_t now_ms);
  /// Caller holds the stripe mutex. Drops every series' sealed chunks
  /// whose newest sample fell out of the age window ending at now_ms.
  void ApplyAgeRetentionLocked(Stripe& stripe, int64_t now_ms);

  MetricsTimeSeriesConfig config_;
  mutable std::vector<Stripe> stripes_;
  std::atomic<int64_t> last_scrape_ms_{0};
};

/// \brief Aggregation applied per step window.
enum class RangeFunc {
  kAvg,       ///< Mean of the samples in the window.
  kMin,       ///< Minimum.
  kMax,       ///< Maximum.
  kLast,      ///< Newest sample in the window (gauge "instant" reads).
  kRate,      ///< Counter increase per second, reset/wrap-safe.
  kDelta,     ///< last - first (gauge difference; no reset handling).
  kQuantile,  ///< Interpolated quantile of the samples in the window.
};

/// \brief Parses "rate", "avg_over_time", ... (the query_range `func`
/// vocabulary). False on an unknown name.
bool ParseRangeFunc(const std::string& name, RangeFunc* out);
const char* RangeFuncName(RangeFunc func);

/// \brief One range query: series + [start,end] + step + aggregation.
struct RangeQuery {
  std::string series;
  int64_t start_ms = 0;
  int64_t end_ms = 0;
  /// Window stride; each point t_i = start + i*step aggregates the window
  /// (t_i - step, t_i].
  int64_t step_ms = 1000;
  RangeFunc func = RangeFunc::kAvg;
  /// Quantile for kQuantile, in [0,1].
  double quantile = 0.99;
};

/// \brief One evaluated point.
struct RangePoint {
  int64_t t_ms = 0;
  double value = 0.0;
};

/// \brief Most step windows one range query may evaluate (Prometheus's
/// own limit). Bounds the evaluation loop: start/end/step arrive straight
/// from an HTTP query string, and without a cap a degenerate range pins a
/// handler thread for ~forever.
inline constexpr int64_t kMaxRangeQueryPoints = 11000;
/// \brief Timestamp magnitude bound for range queries: |start|, |end|,
/// and step must not exceed this (epoch-ms ~ year 33000). Keeps the
/// window arithmetic (t += step, start - step) free of int64 overflow.
inline constexpr int64_t kMaxRangeQueryTimestampMs = 1'000'000'000'000'000;

/// \brief Evaluates \p query over \p store. Windows with no samples
/// produce no point (Prometheus omits them too). InvalidArgument on a
/// non-positive step, an inverted range, a timestamp or step beyond
/// kMaxRangeQueryTimestampMs, or a range spanning more than
/// kMaxRangeQueryPoints windows; an unknown series yields an empty
/// result, not an error — absence of history is an answer.
Result<std::vector<RangePoint>> EvaluateRangeQuery(
    const MetricsTimeSeries& store, const RangeQuery& query);

/// \brief Counter increase over [start_ms, end_ms], Prometheus-style
/// reset handling: a sample below its predecessor is treated as a restart
/// from zero (which also absorbs a 2^64 wrap surfacing as a huge negative
/// delta), so the increase is never negative. 0 with fewer than two
/// samples. The SLO burn rates are built on this.
double IncreaseOver(const MetricsTimeSeries& store, const std::string& series,
                    int64_t start_ms, int64_t end_ms);

/// \brief Process resource usage self-sampled from /proc/self on Linux;
/// \c ok stays false (and the fields zero) elsewhere or on read failure.
struct ProcessStats {
  bool ok = false;
  int64_t rss_bytes = 0;
  int64_t open_fds = 0;
  double cpu_seconds = 0.0;
};
ProcessStats ReadProcessStats();

/// \brief What a scrape samples besides the registry.
struct MetricsScraperConfig {
  bool include_process = true;
};

/// \brief Scrapes a MetricsRegistry into a MetricsTimeSeries on a cadence.
///
/// Every counter and gauge lands under its registry name; histograms land
/// as four derived series (<name>.p50/.p95/.p99 and <name>.count); process
/// stats land as process.rss_bytes / process.open_fds /
/// process.cpu_seconds_total. Each scrape ends by marking the store
/// (MarkScraped). Start() spawns the scrape thread (with a watchdog
/// heartbeat when a handle is set); ScrapeOnce() works without it, which
/// is how tests drive deterministic timelines.
class MetricsScraper {
 public:
  using Config = MetricsScraperConfig;

  MetricsScraper(const MetricsRegistry* registry, MetricsTimeSeries* store,
                 Config config = {});
  ~MetricsScraper();

  MetricsScraper(const MetricsScraper&) = delete;
  MetricsScraper& operator=(const MetricsScraper&) = delete;

  /// \brief Heartbeat slot the scrape loop beats each iteration. Set
  /// before Start(); may be null.
  void SetWatchdogHandle(Watchdog::Handle* handle);

  /// \brief Samples the whole registry now; returns the timestamp used.
  /// \p at_ms overrides the wall clock (deterministic tests).
  int64_t ScrapeOnce(int64_t at_ms = 0);

  /// \brief Spawns the scrape thread, scraping every \p interval_ms
  /// (idempotent; no-op when the interval is not positive).
  void Start(double interval_ms);
  void Stop();
  bool running() const;

  uint64_t scrapes() const { return scrapes_.load(std::memory_order_relaxed); }
  const Config& config() const { return config_; }

 private:
  const MetricsRegistry* registry_;
  MetricsTimeSeries* store_;
  Config config_;

  Watchdog::Handle* watchdog_ = nullptr;
  std::atomic<uint64_t> scrapes_{0};

  PeriodicThread loop_;
};

}  // namespace aims::obs
