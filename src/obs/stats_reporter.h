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
#include "obs/slo.h"
#include "obs/timeseries.h"
#include "obs/watchdog.h"

/// \file stats_reporter.h
/// \brief Periodic introspection over a MetricsRegistry: a background
/// thread snapshots the registry on an interval, turns monotonic counters
/// into rates (delta / elapsed, wrap-safe), and derives a single health
/// signal — are in-flight ingests saturating, is query p99 over target, is
/// an objective burning its error budget — the way Aurora's QoS monitor
/// reduces per-operator statistics to "are we meeting the service
/// contract". The latest snapshot is served lock-cheap to the typed API's
/// GetHealth and to dashboards.

namespace aims::obs {

/// \brief The targets the reporter judges against. Each check reads the
/// signal under the name its publisher registers; an unregistered signal
/// or a 0 target disables the check.
struct StatsReporterConfig {
  /// Target for the p99 of the tracer's "span.query_ms" histogram: a
  /// query's root span, from submission to answer — what a client waits
  /// for, and where a saturated pool shows first. Degraded when p99
  /// exceeds this; saturated when it exceeds twice this.
  double p99_target_ms = 0.0;
  /// Capacity the ingest service's "ingest.queue_depth" gauge is divided
  /// by. Degraded at >= 75% of capacity, saturated at >= 100%.
  double saturation_capacity = 0.0;
  /// Checkpoint byte budget the catalog's "storage.wal_lag_bytes" gauge is
  /// divided by — committed log the page files have not yet absorbed via
  /// checkpoint (published after every durable ingest). A lag well past
  /// the auto-checkpoint threshold means checkpoints are failing or
  /// falling behind ingest — recovery time grows with every committed
  /// byte. Degraded at >= 75% of budget, saturated at >= 100%.
  double wal_lag_budget_bytes = 0.0;
  /// Target for the catalog's "catalog.shard_lock_p99_us" gauge (the
  /// max-over-shards shard-lock-wait p99, published in microseconds after
  /// every ingest and shard-stats snapshot), in milliseconds. One shard
  /// whose writers queue behind a hot lock degrades every tenant placed
  /// there — the per-shard probe catches it while server-wide p99 still
  /// looks fine. Degraded when p99 exceeds the target, saturated at 2x.
  double shard_lock_p99_target_ms = 0.0;
  /// Degraded when the rate of the scheduler's "scheduler.slow_queries"
  /// counter over the snapshot window exceeds this many per second. A
  /// slow-query burst is a quality-of-service breach even while queues and
  /// p99 still look healthy (p99 lags a window; the rate reacts within
  /// one).
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
  /// One entry per threshold breach or burning objective, e.g.
  /// "ingest.queue_depth at 112% of capacity".
  std::vector<std::string> reasons;
  /// Queue depth / saturation_capacity (0 when disabled).
  double queue_saturation = 0.0;
  /// WAL lag / wal_lag_budget_bytes (0 when disabled).
  double wal_lag_saturation = 0.0;
  /// p99 of "span.query_ms" in ms (0 when disabled/unregistered).
  double p99_ms = 0.0;
  /// Max-over-shards shard-lock-wait p99 in ms (0 when the shard-lock
  /// gauge is unregistered).
  double shard_lock_p99_ms = 0.0;
  /// Rate of "scheduler.slow_queries" over the window (0 when
  /// unregistered).
  double slow_query_per_sec = 0.0;
  /// The most recent level change, carried on every snapshot since (empty
  /// until the level first leaves its initial Ok).
  std::optional<HealthTransition> last_transition;
  /// Every registered counter with its per-second rate over the window.
  std::map<std::string, CounterRate> rates;
  /// Every objective's status as of the newest scrape the reporter has
  /// judged (empty without objectives, without metrics history, or before
  /// the first scrape).
  std::vector<SloStatus> slo;
};

/// \brief One JSON object for a snapshot — the /healthz body and the
/// flight-record bundle's health entries. Includes the last transition
/// (or null), the full per-counter rate map, and the objective statuses.
std::string HealthSnapshotJson(const HealthSnapshot& snapshot);

/// \brief Background snapshot thread + on-demand evaluation: the one
/// health evaluator.
///
/// Every snapshot runs the threshold checks and, with objectives and a
/// history store, judges every objective as of the store's latest scrape.
/// An objective is judged again only once a newer scrape exists, so the
/// burn-rate queries run once per scrape however often health is read. A
/// burning objective raises the level to at least Degraded with its
/// reason. The reporter publishes the "slo.burning" gauge (objectives
/// burning) and the "slo.breach_transitions_total" counter (not-burning ->
/// burning edges), and marks each edge in exactly one snapshot
/// (SloStatus::breached).
///
/// Thread-safe. Start() is optional: without it the reporter is a pure
/// on-demand evaluator (SnapshotNow). Stop()/destructor join the thread
/// promptly (the interval wait is interruptible).
class StatsReporter {
 public:
  /// \param registry watched registry (not owned, must outlive this); the
  ///   SLO gauge and counter are published there.
  /// \param slos objectives to judge over \p history; ignored when
  ///   \p history is null.
  /// \param history the metrics-history store (not owned, must outlive
  ///   this), or null when metrics history is off.
  /// \param watchdog optional supervisor (must outlive this): the reporter
  ///   registers "stats_reporter", armed while the periodic loop runs and
  ///   beaten before each of its snapshots.
  /// \param snapshot_hook optional observer of every freshly computed
  ///   snapshot (the flight recorder's health and breach feed). It runs on
  ///   the snapshotting thread with no reporter lock held.
  explicit StatsReporter(
      MetricsRegistry* registry, StatsReporterConfig config = {},
      std::vector<SloObjective> slos = {},
      const MetricsTimeSeries* history = nullptr, Watchdog* watchdog = nullptr,
      std::function<void(const HealthSnapshot&)> snapshot_hook = {});
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

  bool running() const;
  const StatsReporterConfig& config() const { return config_; }

 private:
  /// Computes a snapshot from current registry and history state; caller
  /// must hold snapshot_mutex_ (rate and edge bookkeeping is not
  /// concurrent-safe).
  HealthSnapshot ComputeLocked();
  /// Fills snap->slo, re-judging the objectives when the store holds a
  /// newer scrape than the last judgement. Caller holds snapshot_mutex_.
  void JudgeObjectivesLocked(HealthSnapshot* snap);

  const MetricsRegistry* registry_;
  StatsReporterConfig config_;
  const std::vector<SloObjective> objectives_;
  const MetricsTimeSeries* history_;
  Watchdog::Handle* const watchdog_;
  const std::function<void(const HealthSnapshot&)> snapshot_hook_;
  /// Published only when there are objectives to judge.
  Gauge* burning_gauge_ = nullptr;
  Counter* breach_transitions_ = nullptr;
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
  /// The edge ledger's objective half: the statuses of the last judgement
  /// (breached cleared once a snapshot carried it) and the scrape they
  /// were judged as of (guarded by snapshot_mutex_).
  std::vector<SloStatus> slo_;
  int64_t judged_scrape_ms_ = 0;

  PeriodicThread loop_;
};

}  // namespace aims::obs
