#pragma once

#include <fstream>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>

#include "obs/admin_http.h"
#include "obs/cost_ledger.h"
#include "obs/flight_recorder.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/slo.h"
#include "obs/stats_reporter.h"
#include "obs/timeseries.h"
#include "obs/tracer.h"
#include "obs/watchdog.h"
#include "recognition/vocabulary.h"
#include "server/api.h"
#include "server/continuous_agg.h"
#include "server/data_migrator.h"
#include "server/ingest_service.h"
#include "server/query_scheduler.h"
#include "server/recognition_service.h"
#include "server/retention_sweeper.h"
#include "server/sharded_catalog.h"
#include "server/thread_pool.h"

/// \file server.h
/// \brief AimsServer: the concurrent multi-tenant service runtime. Wires
/// the pieces of aims::server together the way Fig. 1 wires the library's
/// subsystems:
///
///   ThreadPool          -> shared executor for asynchronous work,
///   ShardedCatalog      -> N AimsSystem shards behind rw-locks,
///   IngestService       -> bounded-queue admission onto the shards,
///   QueryScheduler      -> deadline-aware progressive offline queries,
///   RecognitionService  -> per-client live recognizers,
///   Tracer              -> per-request span timelines,
///   MetricsRegistry     -> counters/gauges/histograms across all of it.
///
/// Clients speak the typed request/response API of api.h:
/// OpenSession -> IngestRecording / SubmitQuery / StreamSamples ->
/// CloseSession. Every operation returns Result<*Response>; StatusCodes
/// propagate unchanged from the subsystem that produced them.
///
/// Lifecycle: construct, register vocabulary, serve, Shutdown (or let the
/// destructor do it). Shutdown drains admitted ingests and scheduled
/// queries before stopping the executor, so no admitted work is ever
/// silently lost.

namespace aims::server {

/// \brief Observability wiring of one server instance.
struct ObsConfig {
  /// Record counters/gauges/histograms. Off, every service runs with a
  /// null registry — the instrumentation reduces to null-pointer checks
  /// (the "off" side of bench_observability).
  bool enable_metrics = true;
  /// Build per-request span traces. Off, every service runs with a null
  /// tracer and requests carry no trace.
  bool enable_tracing = true;
  /// Finished request traces retained for inspection (oldest evicted and
  /// counted in Tracer::dropped()).
  size_t trace_capacity = 512;
  /// The StatsReporter's health targets (queue capacity, p99, WAL lag,
  /// shard-lock p99, slow-query rate) — see obs/stats_reporter.h.
  obs::StatsReporterConfig reporter;
  /// > 0 starts the periodic reporter thread on this cadence; 0 leaves
  /// health evaluation on-demand only.
  double reporter_interval_ms = 0.0;
  /// Charge per-tenant resource usage (CPU-ns, block I/O, queue
  /// occupancy) on every ingest/query/stream path; exposed through
  /// GetTenantUsage and the aims_tenant_* Prometheus family. Off, the
  /// services run with a null ledger and GetTenantUsage fails with
  /// FailedPrecondition.
  bool enable_cost_ledger = true;
  /// > 0 makes the scheduler emit a slow-query record (plan + actuals,
  /// JSON-lines) for every query whose end-to-end latency reaches this
  /// threshold. 0 disables slow-query logging.
  double slow_query_threshold_ms = 0.0;
  /// Where slow-query records go. Empty with a positive threshold still
  /// counts slow queries (metrics + ledger) but writes no log.
  std::string slow_query_log_path;
  /// Ring sizing / drain cadence / rate limit of the async slow-query
  /// logger (see obs/log.h). Producers never block; overload drops
  /// records and ticks the logger's drop counters instead.
  obs::AsyncLogConfig slow_query_log;
  /// Admin HTTP plane on 127.0.0.1: >= 0 enables (0 picks an ephemeral
  /// port — read it back from admin_http()->port()), < 0 (default)
  /// disables. Serves /metrics, /healthz, /shards, /tenants[/<id>],
  /// /traces, /debug/flightrecord — all read paths with bounded admission.
  int admin_port = -1;
  /// Listener tuning (handler pool width, pending cap, socket timeouts).
  /// The port field inside is overridden by admin_port.
  obs::AdminHttpConfig admin;
  /// Black-box flight recorder: retains recent health snapshots, evicted
  /// traces, and slow-query records; dumps one post-mortem bundle on
  /// Saturated transitions, watchdog stalls, and explicit requests. Off,
  /// no recorder exists and DumpFlightRecord fails FailedPrecondition.
  bool enable_flight_recorder = true;
  /// Ring capacities / bundle placement / persist cadence. An empty
  /// bundle_path defaults to "<durability.path>/flightrecord.json" on the
  /// durable backend (in-memory rendering only otherwise); set
  /// persist_interval_ms > 0 to keep the on-disk bundle at most one
  /// interval stale — what makes it survive SIGKILL.
  obs::FlightRecorderConfig flight_recorder;
  /// > 0 starts the watchdog checker thread on this cadence. 0 (default)
  /// leaves stall checking on demand (Watchdog::CheckNow) — the
  /// supervised sections still register and heartbeat either way. An
  /// armed heartbeat older than WatchdogConfig's default deadline is a
  /// stall — counted in watchdog.stalls_total and dumped by the flight
  /// recorder.
  double watchdog_interval_ms = 0.0;
  /// Self-hosted metrics history: a Gorilla-compressed in-memory TSDB over
  /// this server's own registry, queryable through QueryMetricsHistory and
  /// GET /api/v1/query_range. Off, neither exists (FailedPrecondition /
  /// 404) and no scraper runs.
  bool enable_metrics_history = true;
  /// History store sizing/retention (chunk length, age and per-stripe byte
  /// budgets, lock striping) — see obs/timeseries.h.
  obs::MetricsTimeSeriesConfig history;
  /// > 0 starts the scraper thread sampling the registry into the history
  /// store on this cadence (with its own watchdog heartbeat). 0 (default)
  /// leaves history collection on demand — tests and embedders call
  /// metrics_scraper()->ScrapeOnce() to build deterministic timelines.
  double history_scrape_interval_ms = 0.0;
  /// Declarative SLOs, judged by the StatsReporter as multi-window burn
  /// rates over the history store as of the newest scrape, whenever health
  /// is evaluated. A burning objective degrades GetHealth with an SLO
  /// reason, shows up in the aims_slo_* family on /metrics, and
  /// flight-records a breach event whose bundle embeds the burning series'
  /// recent window. Ignored when metrics history is disabled.
  std::vector<obs::SloObjective> slos;
};

/// \brief Server-wide configuration.
struct ServerConfig {
  /// Catalog shards; throughput scales with min(shards, cores) for
  /// CPU-bound work and with overlapped I/O waits for disk-bound work.
  size_t num_shards = 4;
  /// Executor width.
  size_t num_threads = 4;
  /// Per-shard AimsSystem configuration (wavelet family, block size,
  /// disk cost model, block-cache capacity...). Set
  /// system.block_cache.capacity_bytes > 0 to give every shard a sharded
  /// read-through block cache; hot progressive queries then cost CPU
  /// instead of simulated seeks, and tenants are billed only for cold
  /// reads.
  core::AimsConfig system;
  /// Ingest admission/retry policy.
  IngestAdmissionPolicy admission;
  /// Query admission/fairness policy.
  SchedulerConfig scheduler;
  /// Recognizer tuning applied to every client stream.
  recognition::StreamRecognizerConfig recognizer;
  /// Raw-segment retention: sweep cadence and the default policy tiers.
  /// interval_ms 0 (default) leaves sweeping on demand
  /// (TriggerRetentionSweep / retention_sweeper()->SweepNow).
  RetentionSweeperConfig retention;
  /// Metrics/tracing/health wiring.
  ObsConfig obs;
};

/// \brief The integrated service runtime.
class AimsServer {
 public:
  explicit AimsServer(ServerConfig config = {});
  ~AimsServer();

  AimsServer(const AimsServer&) = delete;
  AimsServer& operator=(const AimsServer&) = delete;

  /// \brief Registers a motion template shared by all clients' recognizers.
  /// InvalidArgument for an empty template, one with fewer than 2 frames,
  /// or one whose channel count differs from the registered templates'.
  /// The vocabulary is immutable while recognition streams are open:
  /// returns FailedPrecondition in that case.
  Status AddVocabularyEntry(std::string label, linalg::Matrix segment);

  // ---- The typed client API (see api.h for the envelope contracts). ----

  /// \brief Registers \p client. AlreadyExists when the session is already
  /// open; FailedPrecondition when recognition is requested against an
  /// empty vocabulary.
  Result<OpenSessionResponse> OpenSession(const OpenSessionRequest& request);

  /// \brief Stores a recording through the admission-controlled ingest
  /// pipeline and blocks until it lands. NotFound without an open session;
  /// ResourceExhausted when admission rejects; InvalidArgument for fewer
  /// than 2 frames or frames whose widths differ or are 0.
  Result<IngestRecordingResponse> IngestRecording(
      IngestRecordingRequest request);

  /// \brief Admits a progressive query; never blocks. The returned ticket
  /// delivers the (possibly partial) answer. NotFound without an open
  /// session; ResourceExhausted when the priority lane is full.
  Result<SubmitQueryResponse> SubmitQuery(const SubmitQueryRequest& request);

  /// \brief Feeds live frames to the client's recognition stream.
  /// FailedPrecondition when the session was opened without recognition;
  /// InvalidArgument, before any frame is pushed, when a frame's channel
  /// count differs from the vocabulary's.
  Result<StreamSamplesResponse> StreamSamples(StreamSamplesRequest request);

  /// \brief Closes the session (flushing the recognition stream, if any).
  /// The client's stored recordings remain queryable by other sessions.
  Result<CloseSessionResponse> CloseSession(const CloseSessionRequest& request);

  /// \brief Reports the derived health signal (counter rates, queue
  /// saturation, p99 vs. target). Needs no open session. Never fails; the
  /// Result envelope is for uniformity with the rest of the API.
  Result<GetHealthResponse> GetHealth(const GetHealthRequest& request);

  /// \brief Reports per-tenant attributed resource usage. Needs no open
  /// session (usage outlives sessions). FailedPrecondition when the cost
  /// ledger is disabled; NotFound when a specific client was requested and
  /// the ledger has never charged it.
  Result<GetTenantUsageResponse> GetTenantUsage(
      const GetTenantUsageRequest& request);

  /// \brief Range-queries the self-hosted metrics history: step-aligned
  /// windows of one stored series under an aggregation (avg/min/max/last/
  /// rate/delta/quantile). Needs no open session. FailedPrecondition when
  /// metrics history is disabled; InvalidArgument on a bad func/step/
  /// range. An unknown series returns an empty point list, not an error.
  /// The HTTP twin is GET /api/v1/query_range on the admin plane.
  Result<QueryMetricsHistoryResponse> QueryMetricsHistory(
      const QueryMetricsHistoryRequest& request);

  // ---- Admin/operator API (routing, rebalance, fault injection). ----

  /// \brief Per-shard health probes plus the routing epoch. Needs no open
  /// session.
  Result<GetShardStatsResponse> GetShardStats(
      const GetShardStatsRequest& request);

  /// \brief Plans (and, unless dry_run, starts) a tenant rebalance; the
  /// migration runs asynchronously on the server's executor while the
  /// affected tenants stay fully serveable. See TriggerRebalanceRequest
  /// for the two modes. AlreadyExists while a rebalance is running;
  /// FailedPrecondition for planner mode without a cost ledger.
  Result<TriggerRebalanceResponse> TriggerRebalance(
      const TriggerRebalanceRequest& request);

  /// \brief Progress of the current (or most recent) rebalance.
  Result<RebalanceStatusResponse> RebalanceStatus(
      const RebalanceStatusRequest& request);

  /// \brief Renders (and, unless the request says otherwise, writes) the
  /// flight recorder's post-mortem bundle on demand — the typed-API
  /// trigger next to the HTTP and automatic ones. FailedPrecondition when
  /// the recorder is disabled.
  Result<DumpFlightRecordResponse> DumpFlightRecord(
      const DumpFlightRecordRequest& request);

  /// \brief Typed fault injection / counter reset against one shard's
  /// device.
  Result<AdminFaultResponse> AdminFault(const AdminFaultRequest& request);

  /// \brief Clears one shard's (or every shard's) block cache.
  Result<ClearCacheResponse> ClearCache(const ClearCacheRequest& request);

  // ---- Raw-sample lifecycle API (continuous aggregates, retention). ----

  /// \brief Registers a continuous aggregate for the client: the exact
  /// range result is maintained at every ingest commit and backfilled for
  /// sessions already stored, so matching queries answer with zero block
  /// I/O. NotFound without an open session; InvalidArgument on an
  /// inverted range.
  Result<RegisterAggregateResponse> RegisterAggregate(
      const RegisterAggregateRequest& request);

  /// \brief Drops one continuous aggregate. NotFound on an unknown
  /// handle.
  Result<UnregisterAggregateResponse> UnregisterAggregate(
      const UnregisterAggregateRequest& request);

  /// \brief Sets (or, with clear, drops) the retention policy the sweeper
  /// applies — the server default or one tenant's override.
  Result<SetRetentionPolicyResponse> SetRetentionPolicy(
      const SetRetentionPolicyRequest& request);

  /// \brief Runs one retention sweep synchronously and returns its stats.
  Result<TriggerRetentionSweepResponse> TriggerRetentionSweep(
      const TriggerRetentionSweepRequest& request);

  // ---- Raw subsystem accessors: test/bench instrumentation only. ----
  // Application code goes through the typed API above; these exist so
  // tests and benches can reach into shard devices, metrics, and queues.

  ShardedCatalog& catalog() { return *catalog_; }
  DataMigrator& migrator() { return *migrator_; }
  IngestService& ingest() { return *ingest_; }
  QueryScheduler& scheduler() { return *scheduler_; }
  RecognitionService& recognition() { return *recognition_; }
  obs::MetricsRegistry& metrics() { return *metrics_; }
  obs::Tracer& tracer() { return *tracer_; }
  obs::StatsReporter& reporter() { return *reporter_; }
  ThreadPool& pool() { return *pool_; }
  /// Always constructed (like the registry and tracer); services only see
  /// it when ObsConfig::enable_cost_ledger is set.
  obs::CostLedger& cost_ledger() { return *cost_ledger_; }
  /// The async slow-query logger, or null when slow-query logging is not
  /// configured (threshold 0 or empty path).
  obs::AsyncLogger* slow_query_log() { return slow_log_.get(); }
  /// The black-box recorder, or null when disabled.
  obs::FlightRecorder* flight_recorder() { return recorder_.get(); }
  /// The metrics-history store, or null when disabled.
  obs::MetricsTimeSeries* metrics_history() { return history_.get(); }
  /// The registry->history scraper, or null when metrics history is
  /// disabled. Its thread runs only when history_scrape_interval_ms > 0;
  /// ScrapeOnce works either way.
  obs::MetricsScraper* metrics_scraper() { return scraper_.get(); }
  /// Always constructed; its checker thread runs only when
  /// ObsConfig::watchdog_interval_ms > 0.
  obs::Watchdog& watchdog() { return *watchdog_; }
  /// The continuous-aggregate registry (always constructed).
  ContinuousAggregateRegistry& aggregates() { return *aggregates_; }
  /// The retention sweeper (always constructed; its thread runs only when
  /// ServerConfig::retention.interval_ms > 0).
  RetentionSweeper& retention_sweeper() { return *sweeper_; }
  /// The admin HTTP listener, or null when ObsConfig::admin_port < 0.
  obs::AdminHttpServer* admin_http() { return admin_.get(); }
  /// OK, or why the admin listener failed to start (port in use, ...).
  const Status& admin_status() const { return admin_status_; }
  const ServerConfig& config() const { return config_; }

  /// \brief Drains admitted ingests and queries, then stops the executor.
  /// Idempotent.
  void Shutdown();

 private:
  struct SessionState {
    bool recognition = false;
  };

  /// Builds the admin plane's routing table (called once at construction
  /// when admin_port >= 0; all routes are read paths over the members).
  void WireAdminRoutes();

  ServerConfig config_;
  std::unique_ptr<obs::MetricsRegistry> metrics_;
  std::unique_ptr<obs::Tracer> tracer_;
  std::unique_ptr<obs::CostLedger> cost_ledger_;
  // Stream before logger before scheduler: the scheduler's destructor may
  // still publish records, and the logger flushes into the stream.
  std::unique_ptr<std::ofstream> slow_log_stream_;
  std::unique_ptr<obs::AsyncLogger> slow_log_;
  std::unique_ptr<obs::MetricsTimeSeries> history_;
  // The black box outlives (is declared before) every component that
  // feeds it — scheduler, tracer sink, reporter hook, watchdog callback.
  // Shutdown stops its persist thread before those wind down.
  std::unique_ptr<obs::FlightRecorder> recorder_;
  // Before the catalog: the catalog's ingest-commit hook targets the
  // registry, so the registry must outlive it.
  std::unique_ptr<ContinuousAggregateRegistry> aggregates_;
  std::unique_ptr<ShardedCatalog> catalog_;
  // Declared before the pool: rebalance tasks run on the pool and touch
  // the migrator, and the pool joins its workers before either dies.
  std::unique_ptr<DataMigrator> migrator_;
  std::unique_ptr<ThreadPool> pool_;
  std::unique_ptr<IngestService> ingest_;
  std::unique_ptr<QueryScheduler> scheduler_;
  std::unique_ptr<RecognitionService> recognition_;
  std::unique_ptr<obs::StatsReporter> reporter_;
  std::unique_ptr<obs::MetricsScraper> scraper_;
  // Retention sweeper: declared before the watchdog (whose handle it
  // beats) — safe because Shutdown() stops it while the watchdog is still
  // alive, and a stopped sweeper's destructor never touches its handle.
  std::unique_ptr<RetentionSweeper> sweeper_;
  // The watchdog owns every heartbeat handle; Shutdown() silences all
  // beaters (pool joined, reporter stopped, drains done) before members
  // are destroyed, so its position only needs to follow what its STALL
  // CALLBACK reads (the recorder). Admin listener last: its handlers read
  // everything above, so it is destroyed (and stopped) first.
  std::unique_ptr<obs::Watchdog> watchdog_;
  std::unique_ptr<obs::AdminHttpServer> admin_;
  Status admin_status_;

  mutable std::mutex sessions_mutex_;
  std::unordered_map<ClientId, SessionState> sessions_;

  /// Asynchronous-rebalance bookkeeping (guarded by rebalance_mutex_).
  struct RebalanceRun {
    bool running = false;
    std::vector<RebalanceMove> moves;
    size_t completed = 0;
    std::string error;
  };
  mutable std::mutex rebalance_mutex_;
  RebalanceRun rebalance_;

  bool shut_down_ = false;
};

}  // namespace aims::server
