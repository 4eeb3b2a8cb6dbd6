#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <string>
#include <vector>

#include "common/status.h"
#include "obs/cache_stats.h"
#include "obs/periodic_thread.h"
#include "obs/shard_stats.h"
#include "obs/slo.h"
#include "obs/stats_reporter.h"
#include "obs/tracer.h"
#include "obs/wal_stats.h"
#include "obs/watchdog.h"

/// \file flight_recorder.h
/// \brief The server's black box: an always-on bounded recorder that
/// retains the last N health snapshots, the traces the tracer ring
/// evicted, the most recent slow-query records, and (via a context
/// provider) current WAL / cache / shard stats plus SLO judgements with
/// the burning series' history windows — and on trigger writes the
/// whole thing as ONE post-mortem bundle JSON next to the durable dir.
/// Triggers: the health level transitioning to Saturated, a watchdog
/// stall, or an explicit HTTP / typed-API request. For crashes — SIGKILL,
/// SIGSEGV, power cut — the recorder can persist the bundle on a short
/// cadence, so the file on disk is at most one interval stale: the
/// aircraft-flight-recorder model, not the core-dump model.
///
/// Recording paths are cheap (one mutex, bounded deques; an evicted trace
/// is kept as the Trace itself and rendered only with a bundle) and never
/// block on I/O: bundle writes happen on the trigger's thread or the
/// persist thread, never inside Record*.

namespace aims::obs {

/// \brief Ring capacities, bundle placement, persist cadence.
struct FlightRecorderConfig {
  /// Health snapshots retained (the bundle's recent-history window).
  size_t health_capacity = 32;
  /// Evicted traces retained (rendered as their ToJson with a bundle).
  size_t trace_capacity = 16;
  /// Slow-query records retained (JSON lines, newest last).
  size_t slow_query_capacity = 32;
  /// Trigger/notice events retained ("watchdog stall: wal_sync", ...).
  size_t event_capacity = 32;
  /// Bundle destination. Empty: in-memory only — RenderBundle/HTTP still
  /// serve the bundle, Dump returns it without a path. The server defaults
  /// this to "<durability.path>/flightrecord.json" on durable backends.
  std::string bundle_path;
  /// > 0: Start() spawns a thread persisting the bundle on this cadence
  /// (requires bundle_path). This is what makes a bundle survive SIGKILL.
  double persist_interval_ms = 0.0;
};

/// \brief Recent metrics-history window for one burning SLO's series,
/// embedded in the bundle so a post-mortem sees the trajectory that
/// tripped the objective, not just the final burn rate.
struct SloHistoryEntry {
  std::string objective;
  std::string series;
  std::vector<gorilla::Sample> samples;
};

/// \brief Point-in-time system context pulled into every rendered bundle.
/// The provider runs on the rendering thread; keep it lock-cheap.
struct FlightContext {
  bool has_wal = false;
  WalStats wal;
  bool has_cache = false;
  CacheStats cache;
  std::vector<ShardStatsEntry> shards;
  std::vector<Watchdog::ThreadStatus> watchdog;
  /// Latest objective statuses (the reporter's latest HealthSnapshot::slo);
  /// empty = no objectives.
  std::vector<SloStatus> slo;
  /// History windows for the burning objectives only (bounded by the
  /// provider — the server caps samples per entry).
  std::vector<SloHistoryEntry> slo_history;
};

/// \brief Bounded black-box recorder + post-mortem bundle writer.
///
/// Thread-safe: Record* from any thread (including under the tracer's
/// mutex — the recorder never calls back into its feeds); Dump/Render from
/// control threads and triggers.
class FlightRecorder {
 public:
  /// \param context_provider optional source of the point-in-time
  /// context (WAL/cache/shard/watchdog stats) every bundle renders; it
  /// runs on the rendering thread.
  explicit FlightRecorder(FlightRecorderConfig config = {},
                          std::function<FlightContext()> context_provider = {});
  ~FlightRecorder();

  FlightRecorder(const FlightRecorder&) = delete;
  FlightRecorder& operator=(const FlightRecorder&) = delete;

  // ---- Feeds ------------------------------------------------------------

  /// \brief Retains \p snapshot and logs an event for each objective
  /// breach it marks (SloStatus::breached); a level transition into
  /// Saturated triggers a bundle dump (the operator's "it just fell over"
  /// marker).
  void RecordHealth(const HealthSnapshot& snapshot);
  /// \brief Retains a trace the tracer ring evicted, unrendered. Called
  /// under the tracer's mutex — must not (and does not) call back into the
  /// tracer.
  void RecordEvictedTrace(Trace trace);
  /// \brief Retains one slow-query JSON record.
  void RecordSlowQuery(const std::string& json_line);
  /// \brief Retains one free-form event line (trigger history).
  void RecordEvent(const std::string& what);

  // ---- Bundle -----------------------------------------------------------

  /// \brief Renders the current bundle JSON (no file I/O).
  std::string RenderBundle(const std::string& reason);

  /// \brief Renders and — when a bundle path is configured — atomically
  /// writes the bundle (tmp + rename). Returns the path written, or "" on
  /// the in-memory configuration. Records the trigger in the event ring.
  Result<std::string> Dump(const std::string& reason);

  /// \brief Starts the periodic persist thread (no-op unless
  /// persist_interval_ms > 0 and bundle_path is set). Idempotent.
  void Start();
  /// \brief Stops the persist thread; when it stopped a running one,
  /// writes one final bundle so shutdown state is on disk. Idempotent.
  void Stop();
  bool running() const;

  // ---- Introspection ----------------------------------------------------

  /// Bundle file a previous incarnation left behind (detected at
  /// construction), or empty. Recovery-on-open surfaces this so the
  /// post-mortem evidence is pointed at, not silently overwritten.
  const std::string& previous_bundle_path() const {
    return previous_bundle_path_;
  }
  const std::string& bundle_path() const { return config_.bundle_path; }
  /// Explicit + triggered dumps written (not periodic persists).
  uint64_t dumps() const { return dumps_.load(std::memory_order_relaxed); }
  /// Periodic persist passes completed.
  uint64_t persists() const {
    return persists_.load(std::memory_order_relaxed);
  }
  size_t health_retained() const;
  size_t traces_retained() const;
  size_t slow_queries_retained() const;

  const FlightRecorderConfig& config() const { return config_; }

 private:
  /// Renders under mutex_.
  std::string RenderLocked(const std::string& reason, double uptime_ms,
                           const FlightContext& context);
  Status WriteBundleFile(const std::string& json);

  FlightRecorderConfig config_;
  const std::chrono::steady_clock::time_point epoch_;
  std::string previous_bundle_path_;
  const std::function<FlightContext()> context_provider_;

  mutable std::mutex mutex_;
  std::deque<HealthSnapshot> health_;
  std::deque<Trace> evicted_traces_;
  std::deque<std::string> slow_queries_;
  std::deque<std::string> events_;
  HealthLevel prev_level_ = HealthLevel::kOk;
  uint64_t evicted_trace_total_ = 0;
  uint64_t slow_query_total_ = 0;

  std::atomic<uint64_t> dumps_{0};
  std::atomic<uint64_t> persists_{0};

  /// Serializes bundle-file writes (dump vs. persist thread).
  std::mutex write_mutex_;

  PeriodicThread persist_loop_;
};

}  // namespace aims::obs
