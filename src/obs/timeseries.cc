#include "obs/timeseries.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <utility>

#if defined(__linux__)
#include <dirent.h>
#include <unistd.h>

#include <cstdio>
#include <cstring>
#endif

#include "common/macros.h"

namespace aims::obs {

MetricsTimeSeries::MetricsTimeSeries(MetricsTimeSeriesConfig config)
    : config_(config),
      stripes_(config_.stripes < 1 ? 1 : config_.stripes) {
  if (config_.chunk_max_samples < 2) config_.chunk_max_samples = 2;
}

MetricsTimeSeries::MetricsTimeSeries(MetricsTimeSeries&& other) noexcept
    : config_(other.config_),
      stripes_(std::move(other.stripes_)),
      last_scrape_ms_(other.last_scrape_ms()) {}

MetricsTimeSeries::Stripe& MetricsTimeSeries::StripeFor(
    const std::string& series) const {
  return stripes_[std::hash<std::string>{}(series) % stripes_.size()];
}

void MetricsTimeSeries::Append(const std::string& series, int64_t t_ms,
                               double value) {
  Stripe& stripe = StripeFor(series);
  std::lock_guard<std::mutex> lock(stripe.mutex);
  Series& s = stripe.series[series];
  const size_t active_count = s.active.count();
  if ((active_count > 0 || !s.sealed.empty()) && t_ms <= s.last_ms) {
    // Appends are time-ordered per series; a non-advancing timestamp (the
    // wall clock stepped) is dropped rather than corrupting the deltas.
    ++stripe.out_of_order_dropped;
    return;
  }
  if (active_count == 0) s.active_start_ms = t_ms;
  s.active.Append(t_ms, value);
  s.last_ms = t_ms;
  ++stripe.samples_appended;
  if (s.active.count() >= config_.chunk_max_samples) {
    SealAndRetainLocked(stripe, s, t_ms);
  } else if (++stripe.appends_since_retention >= kRetentionAppendPeriod) {
    // Seals are the main retention trigger, but a stripe whose hot series
    // never seal (small active chunks, quiet neighbours) must still expire
    // its neighbours' old sealed chunks.
    ApplyAgeRetentionLocked(stripe, t_ms);
  }
}

void MetricsTimeSeries::SealAndRetainLocked(Stripe& stripe, Series& s,
                                            int64_t now_ms) {
  SealedChunk chunk;
  chunk.count = s.active.count();
  chunk.start_ms = s.active_start_ms;
  chunk.end_ms = s.last_ms;
  chunk.bytes = s.active.TakeBytes();
  stripe.sealed_bytes += chunk.bytes.size();
  s.sealed.push_back(std::move(chunk));
  s.active = gorilla::GorillaEncoder();

  ApplyAgeRetentionLocked(stripe, now_ms);
  // Size retention: while over budget, drop the stripe's globally oldest
  // sealed chunk. O(series) per drop — sealing is rare (once per
  // chunk_max_samples appends).
  if (config_.max_bytes_per_stripe > 0) {
    while (stripe.sealed_bytes > config_.max_bytes_per_stripe) {
      Series* oldest = nullptr;
      for (auto& [name, other] : stripe.series) {
        if (other.sealed.empty()) continue;
        if (oldest == nullptr ||
            other.sealed.front().start_ms <
                oldest->sealed.front().start_ms) {
          oldest = &other;
        }
      }
      if (oldest == nullptr) break;  // budget smaller than active chunks
      stripe.sealed_bytes -= oldest->sealed.front().bytes.size();
      oldest->sealed.pop_front();
      ++stripe.chunks_dropped_size;
    }
  }
}

void MetricsTimeSeries::ApplyAgeRetentionLocked(Stripe& stripe,
                                                int64_t now_ms) {
  stripe.appends_since_retention = 0;
  if (config_.retention_ms <= 0.0) return;
  // Drop sealed chunks (any series in this stripe) whose newest sample
  // fell out of the window.
  const int64_t cutoff = now_ms - static_cast<int64_t>(config_.retention_ms);
  for (auto& [name, other] : stripe.series) {
    while (!other.sealed.empty() && other.sealed.front().end_ms < cutoff) {
      stripe.sealed_bytes -= other.sealed.front().bytes.size();
      other.sealed.pop_front();
      ++stripe.chunks_dropped_age;
    }
  }
}

std::vector<gorilla::Sample> MetricsTimeSeries::Query(
    const std::string& series, int64_t start_ms, int64_t end_ms) const {
  std::vector<gorilla::Sample> out;
  Stripe& stripe = StripeFor(series);
  std::lock_guard<std::mutex> lock(stripe.mutex);
  auto it = stripe.series.find(series);
  if (it == stripe.series.end()) return out;
  const Series& s = it->second;
  auto take = [&](const std::vector<uint8_t>& bytes, size_t count) {
    // Decoding our own sealed bytes cannot fail; a failure here means the
    // store corrupted its own chunk.
    Result<std::vector<gorilla::Sample>> decoded =
        gorilla::GorillaDecode(bytes, count);
    AIMS_CHECK(decoded.ok());
    for (const gorilla::Sample& sample : *decoded) {
      if (sample.t_ms >= start_ms && sample.t_ms <= end_ms) {
        out.push_back(sample);
      }
    }
  };
  for (const SealedChunk& chunk : s.sealed) {
    if (chunk.end_ms < start_ms || chunk.start_ms > end_ms) continue;
    take(chunk.bytes, chunk.count);
  }
  if (s.active.count() > 0 && s.last_ms >= start_ms &&
      s.active_start_ms <= end_ms) {
    take(s.active.bytes(), s.active.count());
  }
  return out;
}

std::vector<std::string> MetricsTimeSeries::SeriesNames() const {
  std::vector<std::string> out;
  for (Stripe& stripe : stripes_) {
    std::lock_guard<std::mutex> lock(stripe.mutex);
    for (const auto& [name, s] : stripe.series) out.push_back(name);
  }
  std::sort(out.begin(), out.end());
  return out;
}

TimeSeriesStats MetricsTimeSeries::Stats() const {
  TimeSeriesStats stats;
  for (Stripe& stripe : stripes_) {
    std::lock_guard<std::mutex> lock(stripe.mutex);
    stats.series += stripe.series.size();
    stats.samples_appended += stripe.samples_appended;
    stats.chunks_dropped_age += stripe.chunks_dropped_age;
    stats.chunks_dropped_size += stripe.chunks_dropped_size;
    stats.out_of_order_dropped += stripe.out_of_order_dropped;
    for (const auto& [name, s] : stripe.series) {
      stats.samples_retained += s.active.count();
      stats.compressed_bytes += s.active.size_bytes();
      stats.sealed_chunks += s.sealed.size();
      for (const SealedChunk& chunk : s.sealed) {
        stats.samples_retained += chunk.count;
      }
    }
    stats.compressed_bytes += stripe.sealed_bytes;
  }
  if (stats.compressed_bytes > 0) {
    stats.compression_ratio =
        static_cast<double>(stats.samples_retained) * 16.0 /
        static_cast<double>(stats.compressed_bytes);
  }
  return stats;
}

bool ParseRangeFunc(const std::string& name, RangeFunc* out) {
  if (name == "avg_over_time" || name == "avg") *out = RangeFunc::kAvg;
  else if (name == "min_over_time" || name == "min") *out = RangeFunc::kMin;
  else if (name == "max_over_time" || name == "max") *out = RangeFunc::kMax;
  else if (name == "last_over_time" || name == "last") *out = RangeFunc::kLast;
  else if (name == "rate") *out = RangeFunc::kRate;
  else if (name == "delta") *out = RangeFunc::kDelta;
  else if (name == "quantile_over_time" || name == "quantile")
    *out = RangeFunc::kQuantile;
  else return false;
  return true;
}

const char* RangeFuncName(RangeFunc func) {
  switch (func) {
    case RangeFunc::kAvg: return "avg_over_time";
    case RangeFunc::kMin: return "min_over_time";
    case RangeFunc::kMax: return "max_over_time";
    case RangeFunc::kLast: return "last_over_time";
    case RangeFunc::kRate: return "rate";
    case RangeFunc::kDelta: return "delta";
    case RangeFunc::kQuantile: return "quantile_over_time";
  }
  return "avg_over_time";
}

namespace {

/// Reset-safe increase over an ordered run of counter samples: a drop
/// below the predecessor is a restart from zero (a 2^64 wrap shows up the
/// same way once the value lands back near zero), so the sum of positive
/// segments is the true increase and never negative.
double IncreaseOverSamples(const std::vector<gorilla::Sample>& samples) {
  double increase = 0.0;
  for (size_t i = 1; i < samples.size(); ++i) {
    const double prev = samples[i - 1].value;
    const double cur = samples[i].value;
    increase += cur >= prev ? cur - prev : cur;
  }
  return increase;
}

/// \p q in [0, 1]: EvaluateRangeQuery rejects anything else.
double QuantileOfSamples(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

}  // namespace

Result<std::vector<RangePoint>> EvaluateRangeQuery(
    const MetricsTimeSeries& store, const RangeQuery& query) {
  if (query.step_ms <= 0) {
    return Status::InvalidArgument("range query: step must be positive");
  }
  if (query.end_ms < query.start_ms) {
    return Status::InvalidArgument("range query: end before start");
  }
  // Written so that NaN fails too: a NaN position would cast to size_t
  // as UB.
  if (query.func == RangeFunc::kQuantile &&
      !(query.quantile >= 0.0 && query.quantile <= 1.0)) {
    return Status::InvalidArgument("range query: quantile must be in [0, 1]");
  }
  // start/end/step come straight off an HTTP query string: bound the
  // magnitudes (so the window arithmetic below cannot overflow int64) and
  // the window count (so a degenerate range like end=9e15&step=0.001
  // cannot pin a handler thread evaluating ~1e19 windows).
  if (query.start_ms < -kMaxRangeQueryTimestampMs ||
      query.start_ms > kMaxRangeQueryTimestampMs ||
      query.end_ms > kMaxRangeQueryTimestampMs ||
      query.step_ms > kMaxRangeQueryTimestampMs) {
    return Status::InvalidArgument(
        "range query: timestamp or step out of range");
  }
  if ((query.end_ms - query.start_ms) / query.step_ms >=
      kMaxRangeQueryPoints) {
    return Status::InvalidArgument(
        "range query: range/step spans more than " +
        std::to_string(kMaxRangeQueryPoints) + " points");
  }
  // One store read covers every window: the first window reaches one step
  // before the range start.
  const std::vector<gorilla::Sample> samples =
      store.Query(query.series, query.start_ms - query.step_ms, query.end_ms);
  std::vector<RangePoint> out;
  size_t lo = 0;
  for (int64_t t = query.start_ms; t <= query.end_ms; t += query.step_ms) {
    const int64_t window_start = t - query.step_ms;  // window (start, t]
    while (lo < samples.size() && samples[lo].t_ms <= window_start) ++lo;
    size_t hi = lo;
    while (hi < samples.size() && samples[hi].t_ms <= t) ++hi;
    if (hi == lo) continue;  // empty window: no point, as in Prometheus
    RangePoint point;
    point.t_ms = t;
    switch (query.func) {
      case RangeFunc::kAvg: {
        double sum = 0.0;
        for (size_t i = lo; i < hi; ++i) sum += samples[i].value;
        point.value = sum / static_cast<double>(hi - lo);
        break;
      }
      case RangeFunc::kMin: {
        point.value = samples[lo].value;
        for (size_t i = lo + 1; i < hi; ++i) {
          point.value = std::min(point.value, samples[i].value);
        }
        break;
      }
      case RangeFunc::kMax: {
        point.value = samples[lo].value;
        for (size_t i = lo + 1; i < hi; ++i) {
          point.value = std::max(point.value, samples[i].value);
        }
        break;
      }
      case RangeFunc::kLast:
        point.value = samples[hi - 1].value;
        break;
      case RangeFunc::kRate: {
        if (hi - lo < 2) continue;  // a rate needs two samples
        const std::vector<gorilla::Sample> window(samples.begin() + lo,
                                                  samples.begin() + hi);
        const double span_s =
            static_cast<double>(window.back().t_ms - window.front().t_ms) /
            1000.0;
        if (span_s <= 0.0) continue;
        point.value = IncreaseOverSamples(window) / span_s;
        break;
      }
      case RangeFunc::kDelta:
        if (hi - lo < 2) continue;
        point.value = samples[hi - 1].value - samples[lo].value;
        break;
      case RangeFunc::kQuantile: {
        std::vector<double> values;
        values.reserve(hi - lo);
        for (size_t i = lo; i < hi; ++i) values.push_back(samples[i].value);
        point.value = QuantileOfSamples(std::move(values), query.quantile);
        break;
      }
    }
    out.push_back(point);
  }
  return out;
}

double IncreaseOver(const MetricsTimeSeries& store, const std::string& series,
                    int64_t start_ms, int64_t end_ms) {
  return IncreaseOverSamples(store.Query(series, start_ms, end_ms));
}

ProcessStats ReadProcessStats() {
  ProcessStats stats;
#if defined(__linux__)
  // RSS: /proc/self/statm field 2, in pages.
  if (std::FILE* f = std::fopen("/proc/self/statm", "r")) {
    long size = 0;
    long resident = 0;
    if (std::fscanf(f, "%ld %ld", &size, &resident) == 2) {
      stats.rss_bytes =
          static_cast<int64_t>(resident) * ::sysconf(_SC_PAGESIZE);
      stats.ok = true;
    }
    std::fclose(f);
  }
  // Open fds: directory entries under /proc/self/fd (minus . and ..).
  if (DIR* dir = ::opendir("/proc/self/fd")) {
    int64_t count = 0;
    while (struct dirent* entry = ::readdir(dir)) {
      if (entry->d_name[0] != '.') ++count;
    }
    ::closedir(dir);
    stats.open_fds = count > 0 ? count - 1 : 0;  // the opendir fd itself
    stats.ok = true;
  }
  // CPU: utime + stime from /proc/self/stat; the comm field may contain
  // spaces and parens, so parse from the last ')'.
  if (std::FILE* f = std::fopen("/proc/self/stat", "r")) {
    char buf[1024];
    const size_t n = std::fread(buf, 1, sizeof(buf) - 1, f);
    std::fclose(f);
    buf[n] = '\0';
    if (const char* close_paren = std::strrchr(buf, ')')) {
      unsigned long long utime = 0;
      unsigned long long stime = 0;
      // After ") " comes the state char, then 10 fields, then utime/stime.
      if (std::sscanf(close_paren + 1,
                      " %*c %*s %*s %*s %*s %*s %*s %*s %*s %*s %*s %llu %llu",
                      &utime, &stime) == 2) {
        const double ticks = static_cast<double>(::sysconf(_SC_CLK_TCK));
        if (ticks > 0) {
          stats.cpu_seconds =
              static_cast<double>(utime + stime) / ticks;
          stats.ok = true;
        }
      }
    }
  }
#endif
  return stats;
}

MetricsScraper::MetricsScraper(const MetricsRegistry* registry,
                               MetricsTimeSeries* store, Config config)
    : registry_(registry), store_(store), config_(config) {
  AIMS_CHECK(registry_ != nullptr);
  AIMS_CHECK(store_ != nullptr);
}

MetricsScraper::~MetricsScraper() { Stop(); }

void MetricsScraper::SetWatchdogHandle(Watchdog::Handle* handle) {
  watchdog_ = handle;
}

int64_t MetricsScraper::ScrapeOnce(int64_t at_ms) {
  std::lock_guard<std::mutex> lock(scrape_mutex_);
  const int64_t now_ms =
      at_ms != 0
          ? at_ms
          : std::chrono::duration_cast<std::chrono::milliseconds>(
                std::chrono::system_clock::now().time_since_epoch())
                .count();
  for (const auto& [name, counter] : registry_->Counters()) {
    store_->Append(name, now_ms, static_cast<double>(counter->value()));
  }
  for (const auto& [name, gauge] : registry_->Gauges()) {
    store_->Append(name, now_ms, static_cast<double>(gauge->value()));
  }
  for (const auto& [name, hist] : registry_->Histograms()) {
    auto [it, fresh] = histogram_series_.try_emplace(hist);
    HistogramSeries& series = it->second;
    if (fresh) {
      series = {name + ".p50", name + ".p95", name + ".p99", name + ".count"};
    }
    store_->Append(series.p50, now_ms, hist->ApproxQuantile(0.5));
    store_->Append(series.p95, now_ms, hist->ApproxQuantile(0.95));
    store_->Append(series.p99, now_ms, hist->ApproxQuantile(0.99));
    store_->Append(series.count, now_ms, static_cast<double>(hist->count()));
  }
  if (config_.include_process) {
    const ProcessStats process = ReadProcessStats();
    if (process.ok) {
      store_->Append("process.rss_bytes", now_ms,
                     static_cast<double>(process.rss_bytes));
      store_->Append("process.open_fds", now_ms,
                     static_cast<double>(process.open_fds));
      store_->Append("process.cpu_seconds_total", now_ms,
                     process.cpu_seconds);
    }
  }
  store_->MarkScraped(now_ms);
  scrapes_.fetch_add(1, std::memory_order_relaxed);
  return now_ms;
}

void MetricsScraper::Start(double interval_ms) {
  loop_.Start(interval_ms, [this] { ScrapeOnce(); }, watchdog_);
}

void MetricsScraper::Stop() { loop_.Stop(); }

bool MetricsScraper::running() const { return loop_.running(); }

}  // namespace aims::obs
