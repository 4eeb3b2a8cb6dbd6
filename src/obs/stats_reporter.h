#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "obs/periodic_thread.h"
#include "obs/watchdog.h"

/// \file stats_reporter.h
/// \brief Periodic introspection over a MetricsRegistry: a background
/// thread snapshots the registry on an interval, turns monotonic counters
/// into rates (delta / elapsed, wrap-safe), and derives a single health
/// signal — is the ingest queue saturating, is query p99 over target — the
/// way Aurora's QoS monitor reduces per-operator statistics to "are we
/// meeting the service contract". The latest snapshot is served lock-cheap
/// to the typed API's GetHealth and to dashboards.

namespace aims::obs {

/// \brief What the reporter watches and the targets it judges against.
struct StatsReporterConfig {
  /// Histogram whose p99 is compared against the target (ignored when the
  /// histogram is not registered or the target is 0).
  std::string latency_histogram = "scheduler.exec_ms";
  /// Degraded when p99 exceeds this; saturated when it exceeds twice this.
  /// 0 disables the latency check.
  double p99_target_ms = 0.0;
  /// Gauge read as a queue depth for the saturation ratio (ignored when
  /// not registered or capacity is 0).
  std::string saturation_gauge = "ingest.queue_depth";
  /// Capacity the gauge is divided by. Degraded at >= 75% of capacity,
  /// saturated at >= 100%. 0 disables the saturation check.
  double saturation_capacity = 0.0;
  /// Gauge read as the WAL lag in bytes — committed log the page files
  /// have not yet absorbed via checkpoint (ShardedCatalog publishes it
  /// after every durable ingest). Ignored when not registered or the
  /// budget is 0.
  std::string wal_lag_gauge = "storage.wal_lag_bytes";
  /// Checkpoint byte budget the WAL-lag gauge is divided by. A lag well
  /// past the auto-checkpoint threshold means checkpoints are failing or
  /// falling behind ingest — recovery time grows with every committed
  /// byte. Degraded at >= 75% of budget, saturated at >= 100%. 0 disables
  /// the check.
  double wal_lag_budget_bytes = 0.0;
  /// Gauge read as the max-over-shards shard-lock-wait p99 in
  /// MICROseconds (the catalog publishes it after every ingest and shard-
  /// stats snapshot). Ignored when not registered or the target is 0.
  std::string shard_lock_gauge = "catalog.shard_lock_p99_us";
  /// Target for the shard-lock p99 in milliseconds. One shard whose
  /// writers queue behind a hot lock degrades every tenant placed there —
  /// the per-shard probe catches it while server-wide p99 still looks
  /// fine. Degraded when p99 exceeds the target, saturated at 2x. 0
  /// disables the check.
  double shard_lock_p99_target_ms = 0.0;
  /// Counter of queries over the server's slow-query threshold, judged as
  /// a rate over the snapshot window.
  std::string slow_query_counter = "scheduler.slow_queries";
  /// Degraded when the slow-query rate exceeds this many per second. 0
  /// disables the check. A slow-query burst is a quality-of-service
  /// breach even while queues and p99 still look healthy (p99 lags a
  /// window; the rate reacts within one).
  double slow_query_rate_per_sec = 0.0;
};

/// \brief Overall judgement of one snapshot.
enum class HealthLevel {
  kOk,         ///< All watched signals within target.
  kDegraded,   ///< A signal is past its soft threshold.
  kSaturated,  ///< A signal is at/over capacity (or 2x the latency target).
};

/// \brief Human-readable level name ("Ok" / "Degraded" / "Saturated").
const char* HealthLevelName(HealthLevel level);

/// \brief Value and rate of one counter at snapshot time.
struct CounterRate {
  uint64_t value = 0;
  /// Delta per second since the previous snapshot (0 on the first).
  double per_sec = 0.0;
};

/// \brief The most recent change of the derived health level — what
/// /healthz and the flight recorder report as the WHY behind the current
/// WHAT. Captured at the snapshot where the level changed; carries that
/// snapshot's violated inputs.
struct HealthTransition {
  /// Sequence of the snapshot that changed the level.
  uint64_t sequence = 0;
  /// Reporter uptime (ms) when the transition happened.
  double uptime_ms = 0.0;
  HealthLevel from = HealthLevel::kOk;
  HealthLevel to = HealthLevel::kOk;
  /// The threshold breaches in force at transition time (empty when the
  /// transition was a recovery to Ok).
  std::vector<std::string> reasons;
};

/// \brief One periodic (or on-demand) evaluation of the registry.
struct HealthSnapshot {
  /// 1-based snapshot sequence number; 0 means "no snapshot yet".
  uint64_t sequence = 0;
  /// Milliseconds since the reporter was constructed.
  double uptime_ms = 0.0;
  /// Actual window this snapshot's rates are computed over.
  double window_ms = 0.0;
  HealthLevel level = HealthLevel::kOk;
  /// One entry per threshold breach, e.g. "queue at 112% of capacity".
  std::vector<std::string> reasons;
  /// saturation_gauge value / saturation_capacity (0 when disabled).
  double queue_saturation = 0.0;
  /// wal_lag_gauge value / wal_lag_budget_bytes (0 when disabled).
  double wal_lag_saturation = 0.0;
  /// p99 of latency_histogram in ms (0 when disabled/unregistered).
  double p99_ms = 0.0;
  /// Max-over-shards shard-lock-wait p99 in ms (0 when the shard-lock
  /// gauge is unregistered).
  double shard_lock_p99_ms = 0.0;
  /// Rate of slow_query_counter over the window (0 when unregistered).
  double slow_query_per_sec = 0.0;
  /// The most recent level change, carried on every snapshot since (empty
  /// until the level first leaves its initial Ok).
  std::optional<HealthTransition> last_transition;
  /// Every registered counter with its per-second rate over the window.
  std::map<std::string, CounterRate> rates;
};

/// \brief One JSON object for a snapshot — the /healthz body and the
/// flight-record bundle's health entries. Includes the last transition
/// (or null) and the full per-counter rate map.
std::string HealthSnapshotJson(const HealthSnapshot& snapshot);

/// \brief Background snapshot thread + on-demand evaluation.
///
/// Thread-safe. Start() is optional: without it the reporter is a pure
/// on-demand evaluator (SnapshotNow). Stop()/destructor join the thread
/// promptly (the interval wait is interruptible).
class StatsReporter {
 public:
  /// \param registry watched registry (not owned, must outlive this).
  explicit StatsReporter(const MetricsRegistry* registry,
                         StatsReporterConfig config = {});
  ~StatsReporter();

  StatsReporter(const StatsReporter&) = delete;
  StatsReporter& operator=(const StatsReporter&) = delete;

  /// \brief Spawns the periodic thread, snapshotting every \p interval_ms
  /// (also the rate window). Idempotent; no-op when the interval is not
  /// positive. Snapshots on demand (SnapshotNow) work regardless.
  void Start(double interval_ms);

  /// \brief Stops and joins the periodic thread (idempotent).
  void Stop();

  /// \brief Evaluates the registry right now, updates Latest(), and
  /// returns the fresh snapshot. Safe to call concurrently with the
  /// background thread.
  HealthSnapshot SnapshotNow();

  /// \brief Most recent snapshot; computes one first when none exists yet
  /// (so callers never see an empty sequence-0 report once they ask).
  HealthSnapshot Latest();

  /// \brief Observer of every freshly computed snapshot (the flight
  /// recorder's health feed). Runs on the snapshotting thread with no
  /// reporter lock held. Set before Start(); not synchronized against
  /// concurrent snapshots.
  void SetSnapshotHook(std::function<void(const HealthSnapshot&)> hook);

  /// \brief Heartbeat slot the periodic loop beats each iteration (armed
  /// while the loop runs). Set before Start(); may be null.
  void SetWatchdogHandle(Watchdog::Handle* handle);

  /// \brief External health contributor, consulted at the end of every
  /// snapshot computation before transition bookkeeping: the callback may
  /// append reasons and raise (never lower) the level — the server wires
  /// the SLO engine here so a burning objective degrades /healthz with an
  /// SLO reason. Set before Start(); runs with the reporter's snapshot
  /// lock held, so it must not call back into this reporter.
  void SetHealthInput(std::function<void(HealthSnapshot*)> input);

  bool running() const;
  const StatsReporterConfig& config() const { return config_; }

 private:
  /// Computes a snapshot from current registry state; caller must hold
  /// snapshot_mutex_ (rate bookkeeping is not concurrent-safe).
  HealthSnapshot ComputeLocked();

  const MetricsRegistry* registry_;
  StatsReporterConfig config_;
  const std::chrono::steady_clock::time_point epoch_;

  /// Serializes snapshot computation and guards latest_ + rate history.
  mutable std::mutex snapshot_mutex_;
  HealthSnapshot latest_;
  uint64_t sequence_ = 0;
  std::map<std::string, uint64_t> prev_counters_;
  std::chrono::steady_clock::time_point prev_time_;
  /// Level of the previous snapshot + the last change, for
  /// HealthSnapshot::last_transition (guarded by snapshot_mutex_).
  HealthLevel prev_level_ = HealthLevel::kOk;
  std::optional<HealthTransition> last_transition_;

  /// Set-before-Start wiring (unsynchronized by contract).
  std::function<void(const HealthSnapshot&)> snapshot_hook_;
  std::function<void(HealthSnapshot*)> health_input_;
  Watchdog::Handle* watchdog_ = nullptr;

  PeriodicThread loop_;
};

}  // namespace aims::obs
