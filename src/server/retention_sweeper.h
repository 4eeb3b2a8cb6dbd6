#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <unordered_map>

#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/periodic_thread.h"
#include "obs/watchdog.h"
#include "server/sharded_catalog.h"

/// \file retention_sweeper.h
/// \brief The background half of the raw-sample lifecycle (ROADMAP item
/// 2): a supervised thread that periodically walks every shard's sealed
/// segments and applies the retention tiers — downsample past the
/// downsample age (NMSE-bounded, see storage/tslife.h), drop past the
/// drop age, oldest-first under the byte budget. Per-tenant policy
/// overrides ride on top of the default policy.
///
/// Observability: every sweep beats the "tslife_sweeper" watchdog handle,
/// updates the aims_tslife_* metric family, and leaves a flight-recorder
/// event, so a wedged or pathological sweep shows up in the same places
/// every other background thread does.

namespace aims::server {

/// \brief Sweep cadence and the default retention tiers.
struct RetentionSweeperConfig {
  /// > 0 runs the background thread on this cadence; 0 (default) leaves
  /// sweeping on demand (SweepNow) — what tests use for determinism.
  double interval_ms = 0.0;
  /// Policy applied to every tenant without an override. The default
  /// (all ages 0, no byte budget) retains everything — sweeps scan and
  /// do nothing.
  storage::tslife::RetentionPolicy default_policy;
};

/// \brief Periodic retention sweeps over the catalog's segment stores.
///
/// Thread-safe. Policy setters may race sweeps (the policy table has its
/// own lock); SweepNow may be called concurrently with the background
/// thread — each sweep takes the shards' exclusive locks in order.
class RetentionSweeper {
 public:
  /// \param catalog sweep target (not owned).
  /// \param metrics optional registry for the aims_tslife_* family.
  /// \param recorder optional flight recorder (one event per sweep).
  /// \param watchdog optional supervisor; when given, the sweeper
  /// registers "tslife_sweeper" and its loop heartbeats it.
  explicit RetentionSweeper(ShardedCatalog* catalog,
                            RetentionSweeperConfig config = {},
                            obs::MetricsRegistry* metrics = nullptr,
                            obs::FlightRecorder* recorder = nullptr,
                            obs::Watchdog* watchdog = nullptr);
  ~RetentionSweeper();

  RetentionSweeper(const RetentionSweeper&) = delete;
  RetentionSweeper& operator=(const RetentionSweeper&) = delete;

  /// \brief Replaces the default policy (applies from the next sweep).
  void SetDefaultPolicy(storage::tslife::RetentionPolicy policy);
  /// \brief Sets/replaces one tenant's override.
  void SetTenantPolicy(ClientId client,
                       storage::tslife::RetentionPolicy policy);
  /// \brief Drops one tenant's override (back to the default policy).
  void ClearTenantPolicy(ClientId client);

  /// \brief One sweep on the caller's thread. \p now_us 0 takes the wall
  /// clock; tests inject a deterministic "now" (ages are measured against
  /// data time, so the sweep is a pure function of now_us and the stores).
  Result<storage::tslife::SweepStats> SweepNow(int64_t now_us = 0);

  /// \brief Starts the periodic thread (idempotent; no-op when
  /// interval_ms is 0).
  void Start();
  /// \brief Stops and joins the thread (idempotent).
  void Stop();
  bool running() const;

  /// Completed sweeps since construction (failures included in attempts
  /// but not here).
  uint64_t sweeps() const { return sweeps_.load(std::memory_order_relaxed); }

 private:
  ShardedCatalog* catalog_;
  RetentionSweeperConfig config_;
  obs::FlightRecorder* recorder_;
  obs::Watchdog::Handle* heartbeat_ = nullptr;

  /// Guards the policy table (config_.default_policy + overrides_).
  mutable std::mutex policy_mutex_;
  std::unordered_map<ClientId, storage::tslife::RetentionPolicy> overrides_;

  std::atomic<uint64_t> sweeps_{0};

  obs::Counter* sweeps_total_ = nullptr;
  obs::Counter* sweep_failures_ = nullptr;
  obs::Counter* downsampled_total_ = nullptr;
  obs::Counter* dropped_total_ = nullptr;
  obs::Counter* skipped_total_ = nullptr;
  obs::Gauge* segment_bytes_ = nullptr;
  obs::Gauge* last_max_nmse_ = nullptr;

  obs::PeriodicThread loop_;
};

}  // namespace aims::server
