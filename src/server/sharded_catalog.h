#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <shared_mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/aims.h"
#include "obs/cache_stats.h"
#include "obs/metrics.h"
#include "obs/shard_stats.h"
#include "obs/tracer.h"
#include "obs/wal_stats.h"
#include "server/shard_router.h"
#include "storage/wal.h"

/// \file sharded_catalog.h
/// \brief Horizontal partitioning of the session catalog across N
/// independent AimsSystem instances ("shards"), each guarded by a
/// reader/writer lock — now behind a *placement-opaque* routing layer:
///
///   * Placement comes from the ShardRouter's consistent-hash ring (plus
///     tenant pins), never from `client % N` — shard count can change
///     without rehashing the world.
///   * `GlobalSessionId`s are opaque: router epoch in the high 16 bits, a
///     monotone session counter in the low 48. No shard index is encoded,
///     so an id stays valid when the DataMigrator moves its session.
///   * A route table maps every id to its current {shard, local id}, with
///     a dual-read window during migration: reads try the migration
///     target first and fall back to the source copy.
///   * On the durable backend, an ingest's route is durable in the
///     shard's own WAL commit group: the catalog entry carries the global
///     id and the client, and open rebuilds ingest routes from the shard
///     catalogs. A routing journal (`routes.wal`, the shard WALs' record
///     framing) holds only migration records, so a crash mid-migration
///     recovers every session to exactly one owner.
///
/// The original concurrency properties are unchanged: ingest takes one
/// shard's exclusive lock (twice on the durable backend, around the
/// unlocked group-commit wait), the whole off-line query path runs under
/// shared locks on AimsSystem's const read path, so ingests to different
/// shards proceed concurrently and queries never block other queries.

namespace aims::server {

/// \brief System-wide session id, minted by the catalog: routing epoch in
/// the high 16 bits (provenance only — never used for placement), a
/// monotone counter in the low 48. Opaque to clients; 0 is never minted.
using GlobalSessionId = uint64_t;

/// \brief One catalog entry as reported by ListSessions: the opaque id,
/// the owning tenant, and the core-level session metadata. Deliberately
/// carries no shard index.
struct CatalogSessionEntry {
  GlobalSessionId id = 0;
  ClientId client = 0;
  core::SessionInfo info;
};

/// \brief Typed fault-injection/admin request against one shard's block
/// device — the façade replacement for the removed raw device accessor.
/// The underlying setters are atomic, so this is safe while the shard
/// serves traffic.
struct AdminFaultRequest {
  size_t shard = 0;
  /// Arm the next N device reads / writes to fail with IoError (0 leaves
  /// the corresponding fault state unchanged; see clear_faults).
  size_t fail_next_reads = 0;
  size_t fail_next_writes = 0;
  /// Disarm any pending injected faults without touching the counters.
  bool clear_faults = false;
  /// Zero the device I/O counters AND clear any pending faults.
  bool reset_counters = false;
};

struct AdminFaultResponse {
  size_t shard = 0;
};

/// \brief Typed cache-clear request — the façade replacement for the
/// removed raw cache accessor. Clearing is internally synchronized.
struct ClearCacheRequest {
  /// A specific shard, or nullopt for every shard.
  std::optional<size_t> shard;
};

struct ClearCacheResponse {
  /// Shards whose cache was actually cleared (0 when caching is off).
  size_t shards_cleared = 0;
};

/// \brief N AimsSystem shards behind reader/writer locks, addressed
/// through the consistent-hash router and the opaque route table.
class ShardedCatalog {
 public:
  /// \param num_shards shard count (at least 1); every shard gets its own
  /// block device and catalog built from \p config.
  /// \param metrics optional registry for latency histograms and
  /// operation counters (may be null).
  /// \param router_config consistent-hash ring tuning.
  explicit ShardedCatalog(size_t num_shards, core::AimsConfig config = {},
                          obs::MetricsRegistry* metrics = nullptr,
                          ShardRouterConfig router_config = {});
  ~ShardedCatalog();

  size_t num_shards() const { return shards_.size(); }

  /// \brief First failure among the shards' durable-store opens or the
  /// routing-journal open (always OK on the in-memory backend). A catalog
  /// whose recovery failed refuses mutating calls with this status.
  Status init_status() const;

  /// \brief Whether the shards run on the durable backend. When
  /// AimsConfig::durability.path is set, each shard gets its own store
  /// under `<path>/shard_<i>` and the catalog keeps its routing journal at
  /// `<path>/routes.wal`.
  bool durable() const;

  /// \brief The placement authority (ring + pins + epoch). Admin surface:
  /// clients never need it, but the migrator, planner, and tests do.
  const ShardRouter& router() const { return *router_; }
  ShardRouter* mutable_router() { return router_.get(); }

  // ---- Write path (exclusive lock on one shard) -------------------------

  /// \brief Device I/O one ingest performed: the device write-counter
  /// delta inside each exclusive section the ingest held (device writes
  /// happen only under a shard's exclusive lock, so the delta is exactly
  /// this ingest's) — the cost-attribution input for charging the acting
  /// tenant's CostLedger.
  struct IngestIoStats {
    size_t blocks_written = 0;
    size_t bytes_written = 0;
  };

  /// \brief Ingests a recording into the shard the router places \p client
  /// on. \p trace (optional) gains a "shard_lock" span covering the
  /// exclusive-lock wait plus the per-channel transform/write spans
  /// recorded by the system. \p io_stats (optional) receives the ingest's
  /// exact block-write I/O — filled even when the ingest fails partway, so
  /// a write fault's device I/O still reaches the tenant's cost ledger.
  ///
  /// Both backends run AimsSystem's staged protocol: prepare (seal,
  /// transform, encode) with no lock held, then stage (block Puts, standing
  /// queries, the WAL append when there is a WAL, the catalog insert) under
  /// the exclusive lock; then, only when a commit was logged, wait for its
  /// sync with the lock released (trace span "wal_sync") so concurrent
  /// ingests share one group-commit fsync, and re-lock ("shard_apply_lock")
  /// for page write-back. The in-memory backend logs nothing, so its ingest
  /// is one exclusive section. The global id is minted before staging and
  /// stored with \p client in the session's catalog entry, so the shard's
  /// commit record is the ingest's only durable write: an acknowledged
  /// ingest survives a crash with its route intact. An ingest whose commit is
  /// durable but that was never acknowledged (killed after the commit, or
  /// failed in write-back) also recovers under \p client and its minted id.
  Result<GlobalSessionId> Ingest(ClientId client, const std::string& name,
                                 const streams::Recording& recording,
                                 obs::Trace* trace = nullptr,
                                 IngestIoStats* io_stats = nullptr);

  // ---- Continuous aggregates (server push-down / commit hook) -----------

  /// \brief Runs after every acknowledged Ingest (route registered, no
  /// shard lock held) with the standing-query results the core maintained
  /// for the new session. The continuous-aggregate registry wires itself
  /// here. Set before traffic; not fired for migration copies.
  using IngestCommitHook =
      std::function<void(GlobalSessionId, ClientId,
                         const std::vector<core::StandingRangeUpdate>&)>;
  void SetIngestCommitHook(IngestCommitHook hook) {
    ingest_hook_ = std::move(hook);
  }

  /// \brief Replaces every shard's standing-query set (one exclusive lock
  /// per shard, taken in shard order) — the registry's push-down.
  void SetStandingQueries(const std::vector<core::StandingRangeQuery>& queries);

  // ---- Read path (shared lock on one shard) -----------------------------

  Result<core::SessionInfo> GetSession(GlobalSessionId id) const;
  Result<std::vector<double>> ReadChannel(GlobalSessionId id,
                                          size_t channel) const;
  Result<core::RangeStatistics> QueryRange(GlobalSessionId id, size_t channel,
                                           size_t first_frame,
                                           size_t last_frame) const;

  /// \brief Progressive range query under the shard's shared lock.
  /// \p observer runs after every block I/O (still under the lock — keep it
  /// cheap) and may stop the evaluation early; stopping releases the
  /// shard's read lock as soon as the current block completes, which is
  /// what makes scheduler-level cancellation prompt. \p on_shard_locked
  /// (optional) fires once the shared lock has been acquired, so callers
  /// can separate lock-wait time from evaluation time in traces.
  Result<core::ProgressiveRangeResult> QueryRangeProgressive(
      GlobalSessionId id, size_t channel, size_t first_frame,
      size_t last_frame, const core::ProgressiveObserver& observer = {},
      const std::function<void()>& on_shard_locked = {}) const;

  /// \brief AimsSystem::BestBasisReport under the shard's shared lock.
  Result<std::vector<size_t>> BestBasisReport(GlobalSessionId id) const;

  /// \brief EXPLAIN under the shard's shared lock: the deterministic plan
  /// a progressive evaluation of this range would follow, with zero block
  /// I/O. The returned plan's `session` field carries the global id.
  Result<core::QueryPlan> PlanRangeQuery(GlobalSessionId id, size_t channel,
                                         size_t first_frame,
                                         size_t last_frame) const;

  /// All sessions across all shards, in id (= ingest) order.
  std::vector<CatalogSessionEntry> ListSessions() const;

  // ---- Raw-sample lifecycle (storage/tslife.h) --------------------------

  /// \brief Segment metadata of one session (dual-read aware, like the
  /// other reads).
  Result<std::vector<storage::tslife::SegmentMeta>> ListSegments(
      GlobalSessionId id) const;

  /// \brief Decodes one channel's raw-segment samples, time-ascending.
  Result<std::vector<gorilla::Sample>> ReadRawSamples(GlobalSessionId id,
                                                      size_t channel) const;

  /// \brief Sealed-segment bytes summed over shards (the
  /// aims_tslife_segment_bytes gauge's source).
  size_t TotalSegmentBytes() const;

  /// \brief Per-tenant retention tiers: the default policy plus overrides
  /// for specific clients.
  struct TenantRetentionPolicies {
    storage::tslife::RetentionPolicy default_policy;
    std::unordered_map<ClientId, storage::tslife::RetentionPolicy> overrides;
  };

  /// \brief One retention sweep over every shard (exclusive lock per
  /// shard, one WAL record group per shard on the durable backend).
  /// Sessions of an override client sweep under that client's policy;
  /// everything else — including unrouted leftovers like migrated-away
  /// source copies — sweeps under the default. \p now_us is the sweep's
  /// clock (ages are measured against data time, so tests inject it).
  Result<storage::tslife::SweepStats> SweepRetention(
      const TenantRetentionPolicies& policies, int64_t now_us);

  size_t total_sessions() const;
  /// Device read counter summed over shards.
  size_t total_blocks_read() const;
  /// Device write counter summed over shards.
  size_t total_blocks_written() const;
  /// Block size every shard's device was built with (bytes moved per
  /// block I/O — the ledger's bytes-from-blocks conversion factor).
  size_t block_size_bytes() const { return config_.block_size_bytes; }

  /// \brief Block-cache counters summed across shards (all zero when the
  /// config disabled caching) — the aims_cache_* Prometheus family and the
  /// GetHealth cache section.
  obs::CacheStats TotalCacheStats() const;

  /// \brief WAL counters summed across shards (zero-valued struct on the
  /// in-memory backend) — the aims_wal_* Prometheus family and the
  /// GetHealth durability section. max_commits_per_sync aggregates as the
  /// max over shards (it is a high-water mark, not a total). The routing
  /// journal's counters are not included.
  obs::WalStats TotalWalStats() const;

  // ---- Shard health ------------------------------------------------------

  /// \brief Per-shard health probes: session/tenant placement, lock-wait
  /// quantiles, WAL lag, queue depth. Feeds GetShardStats and the
  /// `aims_shard_*` Prometheus family, and refreshes the
  /// "catalog.shard_lock_p99_us" gauge the StatsReporter watches.
  std::vector<obs::ShardStatsEntry> ShardStats() const;

  /// \brief Arms every shard WAL's (and the routing journal's) group-
  /// commit sync sections on one shared heartbeat slot: concurrent sync
  /// leaders each open a scope, so the handle stays armed while ANY fsync
  /// is in flight and a wedged device shows up as a watchdog stall. No-op
  /// on the in-memory backend. Wire before traffic; the handle must
  /// outlive the catalog.
  void SetWalWatchdog(obs::Watchdog::Handle* handle);

  // ---- Typed admin surface ----------------------------------------------

  /// \brief Fault injection / counter reset against one shard's device.
  /// InvalidArgument on a bad shard index.
  Result<AdminFaultResponse> ApplyFault(const AdminFaultRequest& request);

  /// \brief Clears one shard's (or every shard's) block cache.
  Result<ClearCacheResponse> ClearCache(const ClearCacheRequest& request);

  // ---- Live migration (called by the DataMigrator) -----------------------

  /// \brief Starts moving \p client to \p target_shard: pins the tenant so
  /// new ingests land on the target, waits for in-flight ingests that
  /// resolved placement before the pin to drain (they are acknowledged,
  /// never dropped), then returns the ids of the tenant's sessions not yet
  /// on the target. Journals nothing: the pin becomes durable with the
  /// commit record.
  Result<std::vector<GlobalSessionId>> BeginTenantMigration(
      ClientId client, size_t target_shard);

  /// \brief Copies one session to \p target_shard and flips its route into
  /// the dual-read window (primary = target, fallback = source). The copy
  /// is materialized under the source's *shared* lock — concurrent queries
  /// keep running — and the owner flip is journaled only after the target
  /// copy is durable, so a crash leaves exactly one owner. The copy
  /// carries no owner tag, bypasses catalog metrics and carries no tenant
  /// attribution: migration is an infrastructure move, not tenant
  /// activity. A copy no RouteMove names stays on disk, unrouted.
  Status MigrateSession(GlobalSessionId id, size_t target_shard);

  /// \brief Ends the dual-read window for every session of \p client
  /// (atomic routing flip to target-only), journals the commit record
  /// (which also makes the pin durable), and bumps the routing epoch.
  Status CommitTenantMigration(ClientId client, size_t target_shard);

  /// \brief Abandons an in-progress migration: already-moved sessions stay
  /// on the target (their copies are durable there), dual-read windows are
  /// closed, and the pin is dropped so future ingests fall back to the
  /// ring.
  void AbortTenantMigration(ClientId client);

 private:
  struct Shard {
    mutable std::shared_mutex mutex;
    core::AimsSystem system;
    /// Last published WAL lag of this shard (bytes), updated after every
    /// write-back so the "storage.wal_lag_bytes" gauge can be recomputed
    /// without taking every other shard's lock.
    std::atomic<uint64_t> wal_lag{0};
    /// Health probes: operation counters, lock-queue depth, and the
    /// lock-wait histogram (standalone — not registry-owned, so per-shard
    /// series never pollute the registry's flat namespace). Mutable: the
    /// const read path records into them too.
    mutable std::atomic<uint64_t> ingests{0};
    mutable std::atomic<uint64_t> queries{0};
    mutable std::atomic<int64_t> active_ops{0};
    mutable obs::Histogram lock_wait_ms;
    Shard(const core::AimsConfig& config, std::vector<double> bounds)
        : system(config), lock_wait_ms(std::move(bounds)) {}
  };

  /// \brief Current placement of one session. `dual` marks the migration
  /// dual-read window: primary is the target copy, fallback the source.
  struct Route {
    ClientId client = 0;
    uint32_t shard = 0;
    core::SessionId local = 0;
    bool dual = false;
    uint32_t fallback_shard = 0;
    core::SessionId fallback_local = 0;
  };

  /// RAII in-flight-ingest marker: BeginTenantMigration waits for these to
  /// drain after pinning, so its session enumeration is complete.
  class IngestGate;

  Result<Route> FindRoute(GlobalSessionId id) const;

  /// Mints the next opaque id: current router epoch (high 16) | counter.
  GlobalSessionId MintSessionId();

  /// Runs \p fn under \p shard's shared lock with lock-wait timing and
  /// queue-depth accounting.
  template <typename Fn>
  auto ReadOnShard(const Shard& shard, Fn&& fn) const;

  /// Runs `fn(system, local)` on \p route's primary copy and, when that
  /// fails inside a migration's dual-read window, on the fallback copy.
  template <typename Fn>
  auto ReadRouted(const Route& route, Fn&& fn) const;

  /// Runs \p fn under \p shard's exclusive lock with lock-wait timing and
  /// queue-depth accounting. \p trace (optional) gains span \p span_name
  /// covering the lock wait; \p device_writes (optional) accumulates the
  /// device write-counter delta inside the section.
  template <typename Fn>
  auto WriteOnShard(Shard& shard, Fn&& fn, obs::Trace* trace = nullptr,
                    const char* span_name = nullptr,
                    size_t* device_writes = nullptr);

  /// Records one successful read on \p route's primary shard and in the
  /// catalog query metrics.
  void CountQuery(const Route& route,
                  std::chrono::steady_clock::time_point start,
                  size_t blocks_read) const;

  /// Shard-level ingest (no routing, no metrics) — the normal ingest path
  /// and the migrator's copy step share it. Runs the staged protocol on
  /// either backend (see Ingest), preparing before the exclusive lock.
  /// \p owner goes into the catalog entry; the migrator passes none.
  /// \p updates (optional, threaded through to the system) receives the
  /// standing-query results of the new session; the migrator passes null:
  /// a migration copy is not tenant activity and must not fire the
  /// continuous-aggregate hook.
  Result<core::SessionId> IngestOnShard(
      Shard& shard, const std::string& name,
      const streams::Recording& recording,
      std::optional<core::SessionOwner> owner, obs::Trace* trace,
      IngestIoStats* io_stats,
      std::vector<core::StandingRangeUpdate>* updates = nullptr);

  /// Ends the dual-read window of every session of \p client.
  void CloseDualReadWindows(ClientId client);

  /// Re-publishes the catalog-wide WAL-lag gauge from the per-shard
  /// atomics (no-op without a metrics registry or on the mem backend).
  void PublishWalLag();
  /// Re-publishes the max-over-shards lock-wait p99 gauge.
  void PublishShardHealth();

  /// Inserts a freshly minted route (and its by-client index entry).
  void RegisterRoute(GlobalSessionId id, ClientId client, size_t shard,
                     core::SessionId local);

  // ---- Routing journal (durable backend only) ---------------------------

  /// Appends one record as its own committed journal transaction; the
  /// append is durable when this returns OK. No-op in-memory.
  Status JournalAppend(const std::vector<uint8_t>& blob);

  /// Rebuilds ingest routes from the shards' owner-tagged entries (two
  /// entries claiming one id are IoError), replays `<path>/routes.wal`'s
  /// route moves, pins, and the route adds of entries that predate owners,
  /// drops routes whose session recovery did not restore, and rewrites the
  /// journal as one compact snapshot transaction. Sets init error state on
  /// failure.
  Status OpenAndReplayJournal(const std::string& base_path);

  core::AimsConfig config_;
  std::unique_ptr<ShardRouter> router_;
  std::vector<std::unique_ptr<Shard>> shards_;

  /// Route table + by-client index, guarded by routes_mutex_.
  mutable std::shared_mutex routes_mutex_;
  std::unordered_map<GlobalSessionId, Route> routes_;
  std::unordered_map<ClientId, std::vector<GlobalSessionId>> client_sessions_;
  std::atomic<uint64_t> next_session_counter_{1};

  /// In-flight ingest gate (see IngestGate).
  mutable std::mutex inflight_mutex_;
  std::condition_variable inflight_cv_;
  std::unordered_map<ClientId, size_t> inflight_;

  /// Routing journal; null on the in-memory backend.
  std::unique_ptr<storage::durable::WriteAheadLog> journal_;
  Status journal_status_;

  /// Continuous-aggregate commit hook (set before traffic; may be empty).
  IngestCommitHook ingest_hook_;

  obs::Counter* ingest_count_ = nullptr;
  obs::Counter* query_count_ = nullptr;
  obs::Counter* blocks_read_ = nullptr;
  obs::Gauge* wal_lag_gauge_ = nullptr;
  obs::Gauge* shard_lock_p99_gauge_ = nullptr;
  obs::Histogram* ingest_latency_ms_ = nullptr;
  obs::Histogram* query_latency_ms_ = nullptr;
};

}  // namespace aims::server
