#include "obs/stats_reporter.h"

#include <algorithm>
#include <cstdio>
#include <utility>

#include "common/macros.h"
#include "obs/json_util.h"

namespace aims::obs {

namespace {

// The signals the checks read, under the names their publishers register:
// the tracer (the query stage's histogram), the ingest service, the
// catalog and the scheduler.
constexpr char kLatencyHistogram[] = "span.query_ms";
constexpr char kQueueDepthGauge[] = "ingest.queue_depth";
constexpr char kWalLagGauge[] = "storage.wal_lag_bytes";
constexpr char kShardLockGauge[] = "catalog.shard_lock_p99_us";
constexpr char kSlowQueryCounter[] = "scheduler.slow_queries";

double MsSince(std::chrono::steady_clock::time_point start,
               std::chrono::steady_clock::time_point now) {
  return std::chrono::duration<double, std::milli>(now - start).count();
}

}  // namespace

std::string HealthSnapshotJson(const HealthSnapshot& snapshot) {
  std::string out = "{\"sequence\":" + std::to_string(snapshot.sequence) +
                    ",\"uptime_ms\":";
  AppendJsonDouble(&out, snapshot.uptime_ms);
  out += ",\"window_ms\":";
  AppendJsonDouble(&out, snapshot.window_ms);
  out += ",\"level\":\"";
  out += HealthLevelName(snapshot.level);
  out += "\",\"reasons\":[";
  for (size_t i = 0; i < snapshot.reasons.size(); ++i) {
    if (i > 0) out += ',';
    out += '"' + JsonEscape(snapshot.reasons[i]) + '"';
  }
  out += "],\"queue_saturation\":";
  AppendJsonDouble(&out, snapshot.queue_saturation);
  out += ",\"wal_lag_saturation\":";
  AppendJsonDouble(&out, snapshot.wal_lag_saturation);
  out += ",\"p99_ms\":";
  AppendJsonDouble(&out, snapshot.p99_ms);
  out += ",\"shard_lock_p99_ms\":";
  AppendJsonDouble(&out, snapshot.shard_lock_p99_ms);
  out += ",\"slow_query_per_sec\":";
  AppendJsonDouble(&out, snapshot.slow_query_per_sec);
  out += ",\"last_transition\":";
  if (snapshot.last_transition.has_value()) {
    const HealthTransition& t = *snapshot.last_transition;
    out += "{\"sequence\":" + std::to_string(t.sequence) + ",\"uptime_ms\":";
    AppendJsonDouble(&out, t.uptime_ms);
    out += ",\"from\":\"";
    out += HealthLevelName(t.from);
    out += "\",\"to\":\"";
    out += HealthLevelName(t.to);
    out += "\",\"reasons\":[";
    for (size_t i = 0; i < t.reasons.size(); ++i) {
      if (i > 0) out += ',';
      out += '"' + JsonEscape(t.reasons[i]) + '"';
    }
    out += "]}";
  } else {
    out += "null";
  }
  out += ",\"rates\":{";
  bool first = true;
  for (const auto& [name, rate] : snapshot.rates) {
    if (!first) out += ',';
    first = false;
    out += '"' + JsonEscape(name) +
           "\":{\"value\":" + std::to_string(rate.value) + ",\"per_sec\":";
    AppendJsonDouble(&out, rate.per_sec);
    out += '}';
  }
  out += "},\"slo\":[";
  for (size_t i = 0; i < snapshot.slo.size(); ++i) {
    if (i > 0) out += ',';
    AppendSloJson(&out, snapshot.slo[i]);
  }
  out += "]}";
  return out;
}

const char* HealthLevelName(HealthLevel level) {
  switch (level) {
    case HealthLevel::kOk:
      return "Ok";
    case HealthLevel::kDegraded:
      return "Degraded";
    case HealthLevel::kSaturated:
      return "Saturated";
  }
  return "Unknown";
}

StatsReporter::StatsReporter(
    MetricsRegistry* registry, StatsReporterConfig config,
    std::vector<SloObjective> slos, const MetricsTimeSeries* history,
    Watchdog* watchdog,
    std::function<void(const HealthSnapshot&)> snapshot_hook)
    : registry_(registry),
      config_(config),
      objectives_(history != nullptr ? std::move(slos)
                                     : std::vector<SloObjective>{}),
      history_(history),
      watchdog_(watchdog != nullptr ? watchdog->Register("stats_reporter")
                                    : nullptr),
      snapshot_hook_(std::move(snapshot_hook)),
      epoch_(std::chrono::steady_clock::now()),
      prev_time_(epoch_) {
  AIMS_CHECK(registry_ != nullptr);
  if (!objectives_.empty()) {
    burning_gauge_ = registry->GetGauge("slo.burning");
    breach_transitions_ = registry->GetCounter("slo.breach_transitions_total");
  }
}

StatsReporter::~StatsReporter() { Stop(); }

void StatsReporter::Start(double interval_ms) {
  loop_.Start(interval_ms, [this] { SnapshotNow(); }, watchdog_);
}

void StatsReporter::Stop() { loop_.Stop(); }

bool StatsReporter::running() const { return loop_.running(); }

HealthSnapshot StatsReporter::SnapshotNow() {
  HealthSnapshot snap;
  {
    std::lock_guard<std::mutex> lock(snapshot_mutex_);
    latest_ = ComputeLocked();
    snap = latest_;
  }
  // Hook outside the lock: it may render/dump (flight recorder) and must
  // not serialize against concurrent Latest() readers.
  if (snapshot_hook_) snapshot_hook_(snap);
  return snap;
}

HealthSnapshot StatsReporter::Latest() {
  HealthSnapshot snap;
  bool fresh = false;
  {
    std::lock_guard<std::mutex> lock(snapshot_mutex_);
    if (latest_.sequence == 0) {
      latest_ = ComputeLocked();
      fresh = true;
    }
    snap = latest_;
  }
  if (fresh && snapshot_hook_) snapshot_hook_(snap);
  return snap;
}

HealthSnapshot StatsReporter::ComputeLocked() {
  const auto now = std::chrono::steady_clock::now();
  HealthSnapshot snap;
  snap.sequence = ++sequence_;
  snap.uptime_ms = MsSince(epoch_, now);
  snap.window_ms = MsSince(prev_time_, now);

  // Counter rates: unsigned wrap-around subtraction keeps deltas correct
  // across a 2^64 wrap; the first snapshot reports rate 0.
  const double window_s = snap.window_ms / 1000.0;
  for (const auto& [name, counter] : registry_->Counters()) {
    CounterRate rate;
    rate.value = counter->value();
    auto it = prev_counters_.find(name);
    if (it != prev_counters_.end() && window_s > 0.0) {
      rate.per_sec = static_cast<double>(rate.value - it->second) / window_s;
    }
    prev_counters_[name] = rate.value;
    snap.rates[name] = rate;
  }
  prev_time_ = now;

  char reason[160];
  if (config_.saturation_capacity > 0.0) {
    for (const auto& [name, gauge] : registry_->Gauges()) {
      if (name != kQueueDepthGauge) continue;
      snap.queue_saturation = static_cast<double>(gauge->value()) /
                              config_.saturation_capacity;
      if (snap.queue_saturation >= 0.75) {
        std::snprintf(reason, sizeof(reason), "%s at %.0f%% of capacity",
                      name.c_str(), snap.queue_saturation * 100.0);
        snap.reasons.push_back(reason);
        snap.level = snap.queue_saturation >= 1.0 ? HealthLevel::kSaturated
                                                  : HealthLevel::kDegraded;
      }
      break;
    }
  }
  if (config_.wal_lag_budget_bytes > 0.0) {
    for (const auto& [name, gauge] : registry_->Gauges()) {
      if (name != kWalLagGauge) continue;
      snap.wal_lag_saturation = static_cast<double>(gauge->value()) /
                                config_.wal_lag_budget_bytes;
      if (snap.wal_lag_saturation >= 0.75) {
        std::snprintf(reason, sizeof(reason),
                      "%s at %.0f%% of checkpoint budget", name.c_str(),
                      snap.wal_lag_saturation * 100.0);
        snap.reasons.push_back(reason);
        HealthLevel level = snap.wal_lag_saturation >= 1.0
                                ? HealthLevel::kSaturated
                                : HealthLevel::kDegraded;
        snap.level = std::max(snap.level, level);
      }
      break;
    }
  }
  for (const auto& [name, gauge] : registry_->Gauges()) {
    if (name != kShardLockGauge) continue;
    // The gauge carries microseconds (integer gauges would flatten sub-ms
    // lock waits to zero); the snapshot and target speak milliseconds.
    snap.shard_lock_p99_ms = static_cast<double>(gauge->value()) / 1000.0;
    if (config_.shard_lock_p99_target_ms > 0.0 &&
        snap.shard_lock_p99_ms > config_.shard_lock_p99_target_ms) {
      std::snprintf(reason, sizeof(reason),
                    "shard lock-wait p99 %.2f ms over target %.2f ms",
                    snap.shard_lock_p99_ms, config_.shard_lock_p99_target_ms);
      snap.reasons.push_back(reason);
      HealthLevel level =
          snap.shard_lock_p99_ms > 2.0 * config_.shard_lock_p99_target_ms
              ? HealthLevel::kSaturated
              : HealthLevel::kDegraded;
      snap.level = std::max(snap.level, level);
    }
    break;
  }
  {
    auto it = snap.rates.find(kSlowQueryCounter);
    if (it != snap.rates.end()) snap.slow_query_per_sec = it->second.per_sec;
  }
  if (config_.slow_query_rate_per_sec > 0.0 &&
      snap.slow_query_per_sec > config_.slow_query_rate_per_sec) {
    std::snprintf(reason, sizeof(reason),
                  "%s at %.1f/s over target %.1f/s",
                  kSlowQueryCounter, snap.slow_query_per_sec,
                  config_.slow_query_rate_per_sec);
    snap.reasons.push_back(reason);
    snap.level = std::max(snap.level, HealthLevel::kDegraded);
  }
  if (config_.p99_target_ms > 0.0) {
    for (const auto& [name, hist] : registry_->Histograms()) {
      if (name != kLatencyHistogram) continue;
      snap.p99_ms = hist->ApproxQuantile(0.99);
      if (snap.p99_ms > config_.p99_target_ms) {
        std::snprintf(reason, sizeof(reason),
                      "%s p99 %.1f ms over target %.1f ms", name.c_str(),
                      snap.p99_ms, config_.p99_target_ms);
        snap.reasons.push_back(reason);
        HealthLevel level = snap.p99_ms > 2.0 * config_.p99_target_ms
                                ? HealthLevel::kSaturated
                                : HealthLevel::kDegraded;
        snap.level = std::max(snap.level, level);
      }
      break;
    }
  }
  // Objectives weigh in before transition bookkeeping, so an SLO-only
  // breach is a real level change with its reason captured in
  // last_transition like any threshold check.
  JudgeObjectivesLocked(&snap);
  for (const SloStatus& status : snap.slo) {
    if (!status.burning) continue;
    snap.reasons.push_back(status.reason);
    snap.level = std::max(snap.level, HealthLevel::kDegraded);
  }
  if (snap.level != prev_level_) {
    HealthTransition transition;
    transition.sequence = snap.sequence;
    transition.uptime_ms = snap.uptime_ms;
    transition.from = prev_level_;
    transition.to = snap.level;
    transition.reasons = snap.reasons;
    last_transition_ = std::move(transition);
    prev_level_ = snap.level;
  }
  snap.last_transition = last_transition_;
  return snap;
}

void StatsReporter::JudgeObjectivesLocked(HealthSnapshot* snap) {
  if (objectives_.empty()) return;
  const int64_t scrape_ms = history_->last_scrape_ms();
  if (scrape_ms > judged_scrape_ms_) {
    std::vector<SloStatus> statuses;
    statuses.reserve(objectives_.size());
    int64_t burning = 0;
    uint64_t breaches = 0;
    for (size_t i = 0; i < objectives_.size(); ++i) {
      SloStatus status = EvaluateObjective(*history_, objectives_[i], scrape_ms);
      const bool was_burning = i < slo_.size() && slo_[i].burning;
      status.breached = status.burning && !was_burning;
      if (status.burning) ++burning;
      if (status.breached) ++breaches;
      statuses.push_back(std::move(status));
    }
    slo_ = std::move(statuses);
    judged_scrape_ms_ = scrape_ms;
    burning_gauge_->Set(burning);
    if (breaches > 0) breach_transitions_->Increment(breaches);
  }
  snap->slo = slo_;
  // Each edge is carried by exactly one snapshot.
  for (SloStatus& status : slo_) status.breached = false;
}

}  // namespace aims::obs
