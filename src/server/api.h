#pragma once

#include <optional>
#include <string>
#include <vector>

#include "obs/cache_stats.h"
#include "obs/cost_ledger.h"
#include "obs/shard_stats.h"
#include "obs/stats_reporter.h"
#include "obs/timeseries.h"
#include "obs/wal_stats.h"
#include "recognition/isolator.h"
#include "server/data_migrator.h"
#include "server/query_scheduler.h"
#include "server/sharded_catalog.h"
#include "streams/sample.h"

/// \file api.h
/// \brief The typed request/response envelopes of the AimsServer façade —
/// the narrow waist every client goes through. Each operation takes one
/// *Request struct and returns Result<*Response>: inputs and outputs are
/// named fields (extensible without signature churn), and every failure
/// travels as a Status whose StatusCode round-trips unchanged from the
/// subsystem that produced it (catalog NotFound stays NotFound at the
/// client). The raw subsystem accessors on AimsServer remain available for
/// tests and benches, but application code is expected to speak this API.

namespace aims::server {

/// \brief Registers a client with the server. A session must be open
/// before the client can ingest, query, or stream.
struct OpenSessionRequest {
  ClientId client = 0;
  /// Also opens a live recognition stream for this client (requires a
  /// non-empty vocabulary); StreamSamples then becomes available.
  bool enable_recognition = false;
};

struct OpenSessionResponse {
  ClientId client = 0;
  /// Routing generation at open time — provenance/debugging only.
  /// Placement is deliberately NOT exposed: which physical shard a
  /// client's recordings land on is the router's concern and can change
  /// (live rebalancing) without the client noticing.
  uint64_t router_epoch = 0;
};

/// \brief Stores one fully materialized recording. Admission control
/// applies, and the ingest runs on the calling thread.
struct IngestRecordingRequest {
  ClientId client = 0;
  std::string name;
  streams::Recording recording;
};

struct IngestRecordingResponse {
  GlobalSessionId session = 0;
  size_t num_frames = 0;
  size_t num_channels = 0;
};

/// \brief Submits a progressive range query to the scheduler.
struct SubmitQueryRequest {
  ClientId client = 0;
  QueryRequest query;
};

struct SubmitQueryResponse {
  /// Live handle: poll, Cancel(), or Wait() for the QueryOutcome.
  QueryTicketPtr ticket;
};

/// \brief Feeds live frames to the client's recognition stream.
struct StreamSamplesRequest {
  ClientId client = 0;
  std::vector<streams::Frame> frames;
};

struct StreamSamplesResponse {
  /// Motions recognized while consuming this batch, in stream order.
  std::vector<recognition::RecognitionEvent> events;
  size_t frames_pushed = 0;
};

/// \brief Asks the server how it is doing: counter rates, queue
/// saturation, latency-vs-target — the StatsReporter's derived health
/// signal (see obs/stats_reporter.h). Needs no open session: health is a
/// property of the server, not of one tenant.
struct GetHealthRequest {
  /// Re-evaluate the registry right now instead of returning the
  /// background thread's most recent periodic snapshot.
  bool force_refresh = false;
};

struct GetHealthResponse {
  obs::HealthSnapshot health;
  /// Whether the periodic reporter thread is running (false means the
  /// snapshot was computed on demand).
  bool reporter_running = false;
  /// Catalog-wide block-cache counters (summed over shards). All zero when
  /// caching is disabled.
  obs::CacheStats cache;
  /// Catalog-wide WAL counters (summed over shards; the group-commit
  /// batch high-water mark is a max). All zero on the in-memory backend.
  obs::WalStats wal;
};

/// \brief Asks the server what each tenant has consumed: CPU time, block
/// I/O, queue occupancy, and operation counts, attributed by the
/// CostLedger every ingest/query/stream path charges (see
/// obs/cost_ledger.h). Needs no open session: usage outlives sessions.
struct GetTenantUsageRequest {
  /// A specific tenant, or nullopt for every tenant the ledger has seen.
  std::optional<ClientId> client;
};

struct TenantUsageEntry {
  ClientId client = 0;
  obs::TenantUsage usage;
};

struct GetTenantUsageResponse {
  /// Per-tenant usage in ascending client order (one entry when the
  /// request named a specific client).
  std::vector<TenantUsageEntry> tenants;
  /// Sum over \c tenants — the server-wide attributed total.
  obs::TenantUsage total;
};

/// \brief Range-queries the server's self-hosted metrics history: "what
/// did <series> look like over [start, end] at <step> resolution under
/// <func>?" — the typed twin of `GET /api/v1/query_range` on the admin
/// plane. Needs no open session. The history store retains a bounded
/// window (ObsConfig::history), so points older than retention are gone;
/// absence of history is an empty answer, not an error. The range is
/// bounded like Prometheus: more than obs::kMaxRangeQueryPoints step
/// windows, or a timestamp/step beyond obs::kMaxRangeQueryTimestampMs,
/// is InvalidArgument — so pick a start near now, not 0.
struct QueryMetricsHistoryRequest {
  /// Stored series name, e.g. "catalog.ingest_count" or
  /// "span.query_ms.p99" (histograms are stored as derived
  /// .p50/.p95/.p99/.count series).
  std::string series;
  /// Aggregation per step window: avg/min/max/last/rate/delta/quantile
  /// (see obs::RangeFunc).
  obs::RangeFunc func = obs::RangeFunc::kAvg;
  /// Quantile for kQuantile, in [0,1].
  double quantile = 0.99;
  /// Window, in the scraper's clock (unix ms). end_ms 0 means "now".
  int64_t start_ms = 0;
  int64_t end_ms = 0;
  /// Step stride; each point t_i aggregates (t_i - step, t_i].
  int64_t step_ms = 1000;
};

struct QueryMetricsHistoryResponse {
  std::string series;
  obs::RangeFunc func = obs::RangeFunc::kAvg;
  /// Evaluated points, time-ascending; windows with no samples are
  /// omitted (Prometheus matrix semantics).
  std::vector<obs::RangePoint> points;
};

/// \brief Asks the server for its per-shard health probes: placement
/// counts, lock-wait quantiles, WAL lag, queue depth — the admin-facing
/// view of the routing layer. Shard indices appear here (and only here):
/// this is the operator surface, not the client surface.
struct GetShardStatsRequest {};

struct GetShardStatsResponse {
  /// Current routing generation (bumped by pins / topology changes /
  /// committed migrations).
  uint64_t router_epoch = 0;
  /// One entry per shard, in shard order.
  std::vector<obs::ShardStatsEntry> shards;
};

/// \brief Asks the server to rebalance tenant placement. Two modes:
///   * explicit move — both \c client and \c target_shard set: migrate
///     exactly that tenant there;
///   * planner-driven — neither set: derive hot-tenant moves from the cost
///     ledger's per-tenant load (FailedPrecondition when the ledger is
///     disabled).
/// The returned plan describes what will run; with \c dry_run the plan is
/// returned without executing. Execution is asynchronous — poll
/// RebalanceStatus. AlreadyExists when a rebalance is still running.
struct TriggerRebalanceRequest {
  std::optional<ClientId> client;
  std::optional<size_t> target_shard;
  bool dry_run = false;
};

struct TriggerRebalanceResponse {
  RebalancePlan plan;
  /// False for dry runs and empty plans.
  bool started = false;
};

/// \brief Polls the progress of the asynchronous rebalance.
struct RebalanceStatusRequest {};

struct RebalanceStatusResponse {
  bool running = false;
  /// Moves of the current (or most recent) rebalance and how many have
  /// completed.
  std::vector<RebalanceMove> moves;
  size_t completed_moves = 0;
  /// The migrator's per-tenant progress for the move in flight.
  MigrationStatus migration;
  /// First failure of the run, if any (the run stops at it).
  std::string error;
  uint64_t router_epoch = 0;
};

// AdminFaultRequest/Response and ClearCacheRequest/Response — the typed
// fault-injection and cache-admin envelopes — are defined next to the
// catalog (sharded_catalog.h) and re-exported through this header; they
// are part of the same façade surface.

/// \brief Asks the server's flight recorder to capture a bundle now.
///
/// The typed twin of `GET /debug/flightrecord` on the admin plane: the
/// recorder snapshots its ring buffers (health history, evicted traces,
/// slow queries, events) plus live WAL/cache/shard/watchdog context.
struct DumpFlightRecordRequest {
  /// Free-text reason stamped into the bundle (shows up in post-mortems).
  std::string reason = "api request";
  /// When true and the recorder has a bundle path, also persist the
  /// bundle to disk; when false the bundle is only rendered in-memory.
  bool write_file = true;
};

struct DumpFlightRecordResponse {
  /// Path the bundle was written to; empty for in-memory-only dumps.
  std::string path;
  /// The rendered bundle JSON.
  std::string bundle_json;
};

/// \brief Registers a continuous aggregate: a standing range query over
/// \c channel / [\c first_frame, \c last_frame] whose exact result is
/// incrementally maintained for every session the client ingests (and
/// backfilled for the sessions it already stored). A later SubmitQuery
/// matching the range exactly answers from the maintained result with
/// zero block I/O — EXPLAIN shows an aggregate_hit plan. NotFound without
/// an open session; InvalidArgument on an inverted range.
struct RegisterAggregateRequest {
  ClientId client = 0;
  size_t channel = 0;
  size_t first_frame = 0;
  size_t last_frame = 0;
};

struct RegisterAggregateResponse {
  /// Registry handle (pass to UnregisterAggregate).
  uint64_t handle = 0;
  /// Already-stored sessions whose result was computed at registration.
  size_t sessions_backfilled = 0;
};

/// \brief Drops one continuous aggregate. NotFound on an unknown handle.
struct UnregisterAggregateRequest {
  uint64_t handle = 0;
};

struct UnregisterAggregateResponse {};

/// \brief Sets the retention policy the background sweeper applies: the
/// server default (client unset) or one tenant's override. With \c clear
/// set, drops the named tenant's override instead (InvalidArgument when
/// clearing without a client).
struct SetRetentionPolicyRequest {
  /// A specific tenant's override, or nullopt for the server default.
  std::optional<ClientId> client;
  storage::tslife::RetentionPolicy policy;
  bool clear = false;
};

struct SetRetentionPolicyResponse {};

/// \brief Runs one retention sweep right now on the caller's thread (the
/// background cadence, if configured, keeps running independently).
/// \c now_us 0 sweeps against the wall clock; tests inject a time.
struct TriggerRetentionSweepRequest {
  int64_t now_us = 0;
};

struct TriggerRetentionSweepResponse {
  storage::tslife::SweepStats stats;
};

/// \brief Closes the client's session (and recognition stream, if open).
struct CloseSessionRequest {
  ClientId client = 0;
};

struct CloseSessionResponse {
  /// Final recognition event if the stream tail completed a motion.
  std::optional<recognition::RecognitionEvent> final_event;
};

}  // namespace aims::server
