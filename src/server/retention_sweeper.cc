#include "server/retention_sweeper.h"

#include <chrono>
#include <string>
#include <utility>

#include "common/macros.h"

namespace aims::server {

RetentionSweeper::RetentionSweeper(ShardedCatalog* catalog,
                                   RetentionSweeperConfig config,
                                   obs::MetricsRegistry* metrics,
                                   obs::FlightRecorder* recorder,
                                   obs::Watchdog* watchdog)
    : catalog_(catalog), config_(std::move(config)), recorder_(recorder) {
  AIMS_CHECK(catalog != nullptr);
  if (metrics != nullptr) {
    sweeps_total_ = metrics->GetCounter("tslife.sweeps_total");
    sweep_failures_ = metrics->GetCounter("tslife.sweep_failures_total");
    downsampled_total_ =
        metrics->GetCounter("tslife.segments_downsampled_total");
    dropped_total_ = metrics->GetCounter("tslife.segments_dropped_total");
    skipped_total_ = metrics->GetCounter("tslife.segments_skipped_total");
    segment_bytes_ = metrics->GetGauge("tslife.segment_bytes");
    last_max_nmse_ = metrics->GetGauge("tslife.sweep_max_nmse_ppm");
  }
  if (watchdog != nullptr) {
    heartbeat_ = watchdog->Register("tslife_sweeper");
  }
}

RetentionSweeper::~RetentionSweeper() { Stop(); }

void RetentionSweeper::SetDefaultPolicy(
    storage::tslife::RetentionPolicy policy) {
  std::lock_guard<std::mutex> lock(policy_mutex_);
  config_.default_policy = policy;
}

void RetentionSweeper::SetTenantPolicy(
    ClientId client, storage::tslife::RetentionPolicy policy) {
  std::lock_guard<std::mutex> lock(policy_mutex_);
  overrides_[client] = policy;
}

void RetentionSweeper::ClearTenantPolicy(ClientId client) {
  std::lock_guard<std::mutex> lock(policy_mutex_);
  overrides_.erase(client);
}

Result<storage::tslife::SweepStats> RetentionSweeper::SweepNow(
    int64_t now_us) {
  if (now_us == 0) {
    now_us = std::chrono::duration_cast<std::chrono::microseconds>(
                 std::chrono::system_clock::now().time_since_epoch())
                 .count();
  }
  ShardedCatalog::TenantRetentionPolicies policies;
  {
    std::lock_guard<std::mutex> lock(policy_mutex_);
    policies.default_policy = config_.default_policy;
    policies.overrides = overrides_;
  }
  obs::Watchdog::Scope supervised(heartbeat_);
  Result<storage::tslife::SweepStats> stats =
      catalog_->SweepRetention(policies, now_us);
  if (!stats.ok()) {
    if (sweep_failures_ != nullptr) sweep_failures_->Increment();
    if (recorder_ != nullptr) {
      recorder_->RecordEvent("tslife sweep failed: " +
                             stats.status().message());
    }
    return stats;
  }
  sweeps_.fetch_add(1, std::memory_order_relaxed);
  if (sweeps_total_ != nullptr) sweeps_total_->Increment();
  if (downsampled_total_ != nullptr) {
    downsampled_total_->Increment(stats->segments_downsampled);
  }
  if (dropped_total_ != nullptr) {
    dropped_total_->Increment(stats->segments_dropped);
  }
  if (skipped_total_ != nullptr) {
    skipped_total_->Increment(stats->segments_skipped);
  }
  if (segment_bytes_ != nullptr) {
    segment_bytes_->Set(static_cast<int64_t>(stats->bytes_after));
  }
  // Gauges are integral; NMSE (a ratio bounded by policy, typically a few
  // percent) is published in parts per million.
  if (last_max_nmse_ != nullptr) {
    last_max_nmse_->Set(static_cast<int64_t>(stats->max_nmse * 1e6));
  }
  // One event line per sweep that changed anything: the flight recorder's
  // bounded ring keeps the recent retention history in post-mortems
  // without a busy idle sweep flooding it.
  if (recorder_ != nullptr &&
      (stats->segments_downsampled > 0 || stats->segments_dropped > 0)) {
    recorder_->RecordEvent(
        "tslife sweep: scanned=" + std::to_string(stats->segments_scanned) +
        " downsampled=" + std::to_string(stats->segments_downsampled) +
        " dropped=" + std::to_string(stats->segments_dropped) +
        " bytes " + std::to_string(stats->bytes_before) + "->" +
        std::to_string(stats->bytes_after));
  }
  return stats;
}

void RetentionSweeper::Start() {
  // Failures are counted and recorded inside SweepNow; the loop keeps
  // going — a transient WAL error must not end retention forever.
  loop_.Start(config_.interval_ms, [this] { (void)SweepNow(); }, heartbeat_);
}

void RetentionSweeper::Stop() { loop_.Stop(); }

bool RetentionSweeper::running() const { return loop_.running(); }

}  // namespace aims::server
