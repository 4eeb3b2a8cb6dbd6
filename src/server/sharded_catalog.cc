#include "server/sharded_catalog.h"

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <map>
#include <mutex>
#include <unordered_set>
#include <utility>

#include "common/byte_codec.h"
#include "common/macros.h"

namespace aims::server {

namespace {

/// Milliseconds elapsed since \p start.
double MsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

/// Low 48 bits of an opaque id — the monotone mint counter (the high 16
/// carry the routing epoch at mint time, provenance only).
constexpr uint64_t kCounterMask = 0xffffffffffffull;

// ---- Routing-journal record encoding -------------------------------------
// One catalog blob per record, framed by the WriteAheadLog like the shards'
// own catalog records: type u8, then the type's fixed-width fields. An
// ingest writes none: its route rides the shard's commit group as the
// catalog entry's owner. kRouteAdd is written only for routes of stores
// whose entries predate owners; type 2 (a migration-begin record those
// stores may hold) is skipped on replay.
enum RouteRecordType : uint8_t {
  kRouteAdd = 1,        // u64 gid, u64 client, u32 shard, u32 local
  kRouteMove = 3,       // u64 gid, u32 target shard, u32 target local
  kMigrationCommit = 4, // u64 client, u32 target
};

std::vector<uint8_t> EncodeRouteAdd(GlobalSessionId id, ClientId client,
                                    size_t shard, core::SessionId local) {
  std::vector<uint8_t> blob;
  ByteWriter writer(&blob);
  writer.U8(kRouteAdd);
  writer.U64(id);
  writer.U64(client);
  writer.U32(static_cast<uint32_t>(shard));
  writer.U32(local);
  return blob;
}

std::vector<uint8_t> EncodeRouteMove(GlobalSessionId id, size_t target_shard,
                                     core::SessionId target_local) {
  std::vector<uint8_t> blob;
  ByteWriter writer(&blob);
  writer.U8(kRouteMove);
  writer.U64(id);
  writer.U32(static_cast<uint32_t>(target_shard));
  writer.U32(target_local);
  return blob;
}

std::vector<uint8_t> EncodeMigrationCommit(ClientId client, size_t target) {
  std::vector<uint8_t> blob;
  ByteWriter writer(&blob);
  writer.U8(kMigrationCommit);
  writer.U64(client);
  writer.U32(static_cast<uint32_t>(target));
  return blob;
}

/// Bumps the shard's queue-depth gauge for the duration of one operation
/// (waiting for the lock counts — that is what queue depth means).
struct ShardOpScope {
  explicit ShardOpScope(std::atomic<int64_t>& depth) : depth_(depth) {
    depth_.fetch_add(1, std::memory_order_relaxed);
  }
  ~ShardOpScope() { depth_.fetch_sub(1, std::memory_order_relaxed); }
  std::atomic<int64_t>& depth_;
};

}  // namespace

/// RAII in-flight-ingest marker. Opens BEFORE placement resolves; the
/// migrator pins the tenant first and then waits for the gate to drain, so
/// every ingest that resolved placement pre-pin has registered its route
/// by the time the migrator enumerates the tenant's sessions.
class ShardedCatalog::IngestGate {
 public:
  IngestGate(ShardedCatalog* catalog, ClientId client)
      : catalog_(catalog), client_(client) {
    std::lock_guard<std::mutex> lock(catalog_->inflight_mutex_);
    ++catalog_->inflight_[client_];
  }
  ~IngestGate() {
    {
      std::lock_guard<std::mutex> lock(catalog_->inflight_mutex_);
      auto it = catalog_->inflight_.find(client_);
      if (it != catalog_->inflight_.end() && --it->second == 0) {
        catalog_->inflight_.erase(it);
      }
    }
    catalog_->inflight_cv_.notify_all();
  }
  IngestGate(const IngestGate&) = delete;
  IngestGate& operator=(const IngestGate&) = delete;

 private:
  ShardedCatalog* catalog_;
  ClientId client_;
};

ShardedCatalog::ShardedCatalog(size_t num_shards, core::AimsConfig config,
                               obs::MetricsRegistry* metrics,
                               IngestCommitHook ingest_hook,
                               obs::Watchdog* watchdog)
    : config_(config),
      router_(std::make_unique<ShardRouter>(num_shards)),
      ingest_hook_(std::move(ingest_hook)) {
  AIMS_CHECK(num_shards >= 1);
  std::vector<double> lock_bounds =
      obs::MetricsRegistry::DefaultLatencyBoundsMs();
  shards_.reserve(num_shards);
  for (size_t i = 0; i < num_shards; ++i) {
    // Every shard gets its own durable store (its own page file + WAL)
    // under the configured base path, so per-shard commits never contend
    // on one log file and recovery parallelizes naturally by shard.
    core::AimsConfig shard_config = config;
    if (!shard_config.durability.path.empty()) {
      shard_config.durability.path += "/shard_" + std::to_string(i);
    }
    shards_.push_back(std::make_unique<Shard>(shard_config, lock_bounds));
    shards_.back()->wal_lag.store(
        shards_.back()->system.WalStats().lag_bytes,
        std::memory_order_relaxed);
  }
  if (durable()) {
    // The shards have recovered their own stores; now recover the route
    // table that makes their sessions addressable.
    journal_status_ = OpenAndReplayJournal(config_.durability.path);
  }
  if (watchdog != nullptr) {
    obs::Watchdog::Handle* wal_sync = watchdog->Register("wal_sync");
    for (const auto& shard : shards_) shard->system.SetWalWatchdog(wal_sync);
    if (journal_ != nullptr) journal_->SetWatchdog(wal_sync);
  }
  if (metrics != nullptr) {
    ingest_count_ = metrics->GetCounter("catalog.ingest.count");
    query_count_ = metrics->GetCounter("catalog.query.count");
    blocks_read_ = metrics->GetCounter("catalog.query.blocks_read");
    // Max-over-shards lock-wait p99 in MICROseconds (integer gauges would
    // flatten sub-ms waits to zero in ms) — the StatsReporter's shard-
    // health input.
    shard_lock_p99_gauge_ = metrics->GetGauge("catalog.shard_lock_p99_us");
    if (durable()) {
      wal_lag_gauge_ = metrics->GetGauge("storage.wal_lag_bytes");
      PublishWalLag();
    }
  }
}

ShardedCatalog::~ShardedCatalog() = default;

Status ShardedCatalog::init_status() const {
  for (const auto& shard : shards_) {
    std::shared_lock<std::shared_mutex> lock(shard->mutex);
    AIMS_RETURN_NOT_OK(shard->system.init_status());
  }
  return journal_status_;
}

bool ShardedCatalog::durable() const {
  // All shards share one config, so the first answers for every one.
  return shards_.front()->system.durable();
}

void ShardedCatalog::PublishWalLag() {
  if (wal_lag_gauge_ == nullptr) return;
  uint64_t total = 0;
  for (const auto& shard : shards_) {
    total += shard->wal_lag.load(std::memory_order_relaxed);
  }
  wal_lag_gauge_->Set(static_cast<int64_t>(total));
}

void ShardedCatalog::PublishShardHealth() {
  if (shard_lock_p99_gauge_ == nullptr) return;
  double max_p99_ms = 0.0;
  for (const auto& shard : shards_) {
    max_p99_ms = std::max(max_p99_ms, shard->lock_wait_ms.ApproxQuantile(0.99));
  }
  shard_lock_p99_gauge_->Set(static_cast<int64_t>(max_p99_ms * 1000.0 + 0.5));
}

Result<GlobalSessionId> ShardedCatalog::MintSessionId() {
  uint64_t counter = next_session_counter_.load(std::memory_order_relaxed);
  do {
    // Past 48 bits the counter would wrap and reissue ids, 0 first.
    if (counter > kCounterMask) {
      return Status::ResourceExhausted(
          "ShardedCatalog: every session id has been issued");
    }
  } while (!next_session_counter_.compare_exchange_weak(
      counter, counter + 1, std::memory_order_relaxed));
  const uint64_t epoch = router_->epoch() & 0xffffull;
  return (epoch << 48) | counter;
}

void ShardedCatalog::RegisterRoute(GlobalSessionId id, ClientId client,
                                   size_t shard, core::SessionId local) {
  std::unique_lock<std::shared_mutex> lock(routes_mutex_);
  routes_[id] = Route{.client = client,
                      .shard = static_cast<uint32_t>(shard),
                      .local = local};
  client_sessions_[client].push_back(id);
}

Result<ShardedCatalog::Route> ShardedCatalog::FindRoute(
    GlobalSessionId id) const {
  std::shared_lock<std::shared_mutex> lock(routes_mutex_);
  auto it = routes_.find(id);
  if (it == routes_.end()) {
    return Status::NotFound("ShardedCatalog: unknown session id");
  }
  return it->second;
}

template <typename Fn>
auto ShardedCatalog::ReadOnShard(const Shard& shard, Fn&& fn) const {
  ShardOpScope scope(shard.active_ops);
  auto wait_start = std::chrono::steady_clock::now();
  std::shared_lock<std::shared_mutex> lock(shard.mutex);
  shard.lock_wait_ms.Record(MsSince(wait_start));
  return fn(shard.system);
}

template <typename Fn>
auto ShardedCatalog::ReadRouted(const Route& route, Fn&& fn) const {
  auto result = ReadOnShard(*shards_[route.shard],
                            [&](const core::AimsSystem& sys) {
                              return fn(sys, route.local);
                            });
  if (!result.ok() && route.dual) {
    result = ReadOnShard(*shards_[route.fallback_shard],
                         [&](const core::AimsSystem& sys) {
                           return fn(sys, route.fallback_local);
                         });
  }
  return result;
}

template <typename Fn>
auto ShardedCatalog::WriteOnShard(Shard& shard, Fn&& fn, obs::Trace* trace,
                                  obs::Stage stage, size_t* device_writes) {
  ShardOpScope scope(shard.active_ops);
  size_t span = 0;
  if (trace != nullptr) span = trace->BeginSpan(stage);
  auto wait_start = std::chrono::steady_clock::now();
  std::unique_lock<std::shared_mutex> lock(shard.mutex);
  shard.lock_wait_ms.Record(MsSince(wait_start));
  if (trace != nullptr) trace->EndSpan(span);
  const size_t writes_before = shard.system.device().writes();
  auto result = fn(shard.system);
  if (device_writes != nullptr) {
    *device_writes += shard.system.device().writes() - writes_before;
  }
  return result;
}

void ShardedCatalog::CountQuery(const Route& route,
                                size_t blocks_read) const {
  shards_[route.shard]->queries.fetch_add(1, std::memory_order_relaxed);
  if (query_count_ != nullptr) query_count_->Increment();
  if (blocks_read_ != nullptr && blocks_read > 0) {
    blocks_read_->Increment(blocks_read);
  }
}

// ---- Ingest ---------------------------------------------------------------

Result<GlobalSessionId> ShardedCatalog::Ingest(
    ClientId client, const std::string& name,
    const streams::Recording& recording, obs::Trace* trace,
    IngestIoStats* io_stats) {
  AIMS_RETURN_NOT_OK(journal_status_);
  IngestGate gate(this, client);
  size_t shard_index = router_->ShardForClient(client);
  Shard& shard = *shards_[shard_index];
  // The id is minted before staging so the shard's commit group carries
  // it: that one commit makes the session durable and routable again after
  // a crash, under this client and this id.
  AIMS_ASSIGN_OR_RETURN(const GlobalSessionId id, MintSessionId());
  // Seal, transform and encode before taking the lock: PrepareIngest
  // reads no state the exclusive sections mutate, so queries on the shard
  // never wait for this ingest's CPU work.
  AIMS_ASSIGN_OR_RETURN(core::AimsSystem::PreparedIngest prepared,
                        shard.system.PrepareIngest(name, recording, trace));
  std::vector<core::StandingRangeUpdate> updates;
  Result<core::SessionId> local = IngestOnShard(
      shard, std::move(prepared), core::SessionOwner{id, client}, trace,
      io_stats, ingest_hook_ != nullptr ? &updates : nullptr);
  AIMS_RETURN_NOT_OK(local.status());
  RegisterRoute(id, client, shard_index, *local);
  // Continuous aggregates learn the new session only after it is routed
  // and durable; no shard lock is held here, so the hook may take the
  // registry's own lock freely.
  if (ingest_hook_ != nullptr && !updates.empty()) {
    ingest_hook_(id, client, updates);
  }
  shard.ingests.fetch_add(1, std::memory_order_relaxed);
  if (ingest_count_ != nullptr) ingest_count_->Increment();
  PublishShardHealth();
  return id;
}

void ShardedCatalog::SetStandingQueries(
    const std::vector<core::StandingRangeQuery>& queries) {
  for (const std::unique_ptr<Shard>& shard : shards_) {
    std::unique_lock<std::shared_mutex> lock(shard->mutex);
    shard->system.SetStandingQueries(queries);
  }
}

Result<core::SessionId> ShardedCatalog::IngestOnShard(
    Shard& shard, core::AimsSystem::PreparedIngest prepared,
    std::optional<core::SessionOwner> owner, obs::Trace* trace,
    IngestIoStats* io_stats, std::vector<core::StandingRangeUpdate>* updates) {
  // Device writes happen only inside a shard's exclusive sections, so the
  // write-counter delta inside this ingest's sections is exactly its own
  // I/O — and it is charged whatever the outcome: a fault mid-ingest has
  // already performed its writes, and the tenant's ledger must show them.
  size_t blocks_written = 0;
  Result<core::AimsSystem::StagedIngest> staged = WriteOnShard(
      shard,
      [&](core::AimsSystem& sys) {
        return sys.StageIngest(std::move(prepared), trace, updates, owner);
      },
      trace, obs::Stage::kShardLock, &blocks_written);
  Status status = staged.status();
  if (staged.ok() && staged->logged()) {
    // The sync wait runs with the shard lock RELEASED: concurrent ingests
    // into this shard reach their own WaitDurable and share one group-
    // commit fsync instead of serializing syncs behind the exclusive lock.
    // Not durable -> not acknowledged; the WAL's sync error is sticky, so
    // the shard refuses further commits rather than silently degrading.
    size_t sync_span = 0;
    if (trace != nullptr) sync_span = trace->BeginSpan(obs::Stage::kWalSync);
    status = shard.system.WaitDurable(*staged);
    if (trace != nullptr) trace->EndSpan(sync_span);
    if (status.ok()) {
      status = WriteOnShard(
          shard,
          [&](core::AimsSystem& sys) { return sys.ApplyStaged(*staged); },
          trace, obs::Stage::kShardApplyLock, &blocks_written);
      // A checkpoint the apply step began does its I/O here, with the lock
      // released: queries and later ingests on the shard run beside it. A
      // failure is logged and retried by a later ingest; this one is
      // durable either way.
      (void)shard.system.FinishCheckpoint(trace);
      shard.wal_lag.store(shard.system.WalStats().lag_bytes,
                          std::memory_order_relaxed);
      PublishWalLag();
    }
  }
  if (io_stats != nullptr) {
    io_stats->blocks_written = blocks_written;
    io_stats->bytes_written = blocks_written * config_.block_size_bytes;
  }
  AIMS_RETURN_NOT_OK(status);
  return staged->id;
}

// ---- Reads (dual-read aware) ----------------------------------------------

Result<core::SessionInfo> ShardedCatalog::GetSession(GlobalSessionId id) const {
  AIMS_ASSIGN_OR_RETURN(Route route, FindRoute(id));
  return ReadRouted(route, [](const core::AimsSystem& sys,
                              core::SessionId local) {
    return sys.GetSession(local);
  });
}

Result<std::vector<double>> ShardedCatalog::ReadChannel(GlobalSessionId id,
                                                        size_t channel) const {
  AIMS_ASSIGN_OR_RETURN(Route route, FindRoute(id));
  Result<std::vector<double>> result = ReadRouted(
      route, [&](const core::AimsSystem& sys, core::SessionId local) {
        return sys.ReadChannel(local, channel);
      });
  if (result.ok()) CountQuery(route, 0);
  return result;
}

Result<core::RangeStatistics> ShardedCatalog::QueryRange(
    GlobalSessionId id, size_t channel, size_t first_frame,
    size_t last_frame) const {
  AIMS_ASSIGN_OR_RETURN(Route route, FindRoute(id));
  Result<core::RangeStatistics> result = ReadRouted(
      route, [&](const core::AimsSystem& sys, core::SessionId local) {
        return sys.QueryRange(local, channel, first_frame, last_frame);
      });
  // RangeStatistics::blocks_read counts this query's own cold block
  // fetches, so overlapping queries on the shard never inflate it.
  if (result.ok()) CountQuery(route, result->blocks_read);
  return result;
}

Result<core::ProgressiveRangeResult> ShardedCatalog::QueryRangeProgressive(
    GlobalSessionId id, size_t channel, size_t first_frame, size_t last_frame,
    const core::ProgressiveObserver& observer,
    const std::function<void()>& on_shard_locked) const {
  AIMS_ASSIGN_OR_RETURN(Route route, FindRoute(id));
  Result<core::ProgressiveRangeResult> result = ReadRouted(
      route, [&](const core::AimsSystem& sys, core::SessionId local) {
        if (on_shard_locked) on_shard_locked();
        return sys.QueryRangeProgressive(local, channel, first_frame,
                                         last_frame, observer);
      });
  if (result.ok()) {
    CountQuery(route,
               result->steps.empty() ? 0 : result->steps.back().blocks_read);
  }
  return result;
}

Result<std::vector<size_t>> ShardedCatalog::BestBasisReport(
    GlobalSessionId id) const {
  AIMS_ASSIGN_OR_RETURN(Route route, FindRoute(id));
  return ReadRouted(route, [](const core::AimsSystem& sys,
                              core::SessionId local) {
    return sys.BestBasisReport(local);
  });
}

Result<core::QueryPlan> ShardedCatalog::PlanRangeQuery(GlobalSessionId id,
                                                       size_t channel,
                                                       size_t first_frame,
                                                       size_t last_frame) const {
  AIMS_ASSIGN_OR_RETURN(Route route, FindRoute(id));
  AIMS_ASSIGN_OR_RETURN(
      core::QueryPlan plan,
      ReadRouted(route, [&](const core::AimsSystem& sys,
                            core::SessionId local) {
        return sys.PlanRangeQuery(local, channel, first_frame, last_frame);
      }));
  plan.session = id;
  return plan;
}

// ---- Catalog-wide introspection -------------------------------------------

std::vector<CatalogSessionEntry> ShardedCatalog::ListSessions() const {
  std::vector<std::pair<GlobalSessionId, Route>> snapshot;
  {
    std::shared_lock<std::shared_mutex> lock(routes_mutex_);
    snapshot.assign(routes_.begin(), routes_.end());
  }
  // Mint-counter order == ingest order (the epoch bits in the high word
  // are provenance, not ordering).
  std::sort(snapshot.begin(), snapshot.end(),
            [](const auto& a, const auto& b) {
              return (a.first & kCounterMask) < (b.first & kCounterMask);
            });
  std::vector<CatalogSessionEntry> out;
  out.reserve(snapshot.size());
  for (const auto& [id, route] : snapshot) {
    Result<core::SessionInfo> info = ReadRouted(
        route, [](const core::AimsSystem& sys, core::SessionId local) {
          return sys.GetSession(local);
        });
    if (!info.ok()) continue;  // defensive: routes never dangle by design
    CatalogSessionEntry entry;
    entry.id = id;
    entry.client = route.client;
    entry.info = *info;
    out.push_back(std::move(entry));
  }
  return out;
}

size_t ShardedCatalog::total_sessions() const {
  std::shared_lock<std::shared_mutex> lock(routes_mutex_);
  return routes_.size();
}

// ---- Raw-sample lifecycle ---------------------------------------------------

Result<std::vector<storage::tslife::SegmentMeta>> ShardedCatalog::ListSegments(
    GlobalSessionId id) const {
  AIMS_ASSIGN_OR_RETURN(Route route, FindRoute(id));
  return ReadRouted(route, [](const core::AimsSystem& sys,
                              core::SessionId local) {
    return sys.ListSegments(local);
  });
}

Result<std::vector<gorilla::Sample>> ShardedCatalog::ReadRawSamples(
    GlobalSessionId id, size_t channel) const {
  AIMS_ASSIGN_OR_RETURN(Route route, FindRoute(id));
  return ReadRouted(route, [&](const core::AimsSystem& sys,
                               core::SessionId local) {
    return sys.ReadRawSamples(local, channel);
  });
}

size_t ShardedCatalog::TotalSegmentBytes() const {
  size_t total = 0;
  for (const std::unique_ptr<Shard>& shard : shards_) {
    total += ReadOnShard(*shard, [](const core::AimsSystem& sys) {
      return sys.SegmentBytes();
    });
  }
  return total;
}

Result<storage::tslife::SweepStats> ShardedCatalog::SweepRetention(
    const TenantRetentionPolicies& policies, int64_t now_us) {
  // Snapshot which local sessions belong to override clients, per shard.
  // The route table is the authority; local sessions with no route (e.g.
  // migrated-away source copies) fall through to the default policy.
  std::vector<std::unordered_map<ClientId, std::vector<core::SessionId>>>
      override_groups(shards_.size());
  if (!policies.overrides.empty()) {
    std::shared_lock<std::shared_mutex> lock(routes_mutex_);
    for (const auto& [id, route] : routes_) {
      (void)id;
      if (policies.overrides.count(route.client) == 0) continue;
      override_groups[route.shard][route.client].push_back(route.local);
      if (route.dual) {
        override_groups[route.fallback_shard][route.client].push_back(
            route.fallback_local);
      }
    }
  }
  storage::tslife::SweepStats stats;
  for (size_t i = 0; i < shards_.size(); ++i) {
    Shard& shard = *shards_[i];
    AIMS_RETURN_NOT_OK(WriteOnShard(shard, [&](core::AimsSystem& sys) {
      std::vector<bool> overridden(sys.ListSessions().size(), false);
      for (const auto& [client, locals] : override_groups[i]) {
        for (const core::SessionId sid : locals) {
          if (sid < overridden.size()) overridden[sid] = true;
        }
        AIMS_ASSIGN_OR_RETURN(
            storage::tslife::SweepStats shard_stats,
            sys.SweepRetention(policies.overrides.at(client), now_us,
                               &locals));
        stats.Merge(shard_stats);
      }
      std::vector<core::SessionId> rest;
      rest.reserve(overridden.size());
      for (core::SessionId sid = 0; sid < overridden.size(); ++sid) {
        if (!overridden[sid]) rest.push_back(sid);
      }
      AIMS_ASSIGN_OR_RETURN(
          storage::tslife::SweepStats shard_stats,
          sys.SweepRetention(policies.default_policy, now_us, &rest));
      stats.Merge(shard_stats);
      shard.wal_lag.store(sys.WalStats().lag_bytes, std::memory_order_relaxed);
      return Status::OK();
    }));
  }
  PublishWalLag();
  return stats;
}

obs::WalStats ShardedCatalog::TotalWalStats() const {
  obs::WalStats total;
  for (const auto& shard : shards_) {
    std::shared_lock<std::shared_mutex> lock(shard->mutex);
    total.Accumulate(shard->system.WalStats());
  }
  return total;
}

obs::CacheStats ShardedCatalog::TotalCacheStats() const {
  obs::CacheStats total;
  for (const auto& shard : shards_) {
    std::shared_lock<std::shared_mutex> lock(shard->mutex);
    const storage::BlockCache* cache = shard->system.block_cache();
    if (cache != nullptr) total.Accumulate(cache->Stats());
  }
  return total;
}

size_t ShardedCatalog::total_blocks_read() const {
  size_t total = 0;
  for (const auto& shard : shards_) {
    std::shared_lock<std::shared_mutex> lock(shard->mutex);
    total += shard->system.device().reads();
  }
  return total;
}

size_t ShardedCatalog::total_blocks_written() const {
  size_t total = 0;
  for (const auto& shard : shards_) {
    std::shared_lock<std::shared_mutex> lock(shard->mutex);
    total += shard->system.device().writes();
  }
  return total;
}

std::vector<obs::ShardStatsEntry> ShardedCatalog::ShardStats() const {
  std::vector<obs::ShardStatsEntry> out(shards_.size());
  {
    std::shared_lock<std::shared_mutex> lock(routes_mutex_);
    std::vector<std::unordered_set<ClientId>> tenants(shards_.size());
    for (const auto& [id, route] : routes_) {
      (void)id;
      out[route.shard].sessions += 1;
      tenants[route.shard].insert(route.client);
    }
    for (size_t i = 0; i < shards_.size(); ++i) {
      out[i].tenants = tenants[i].size();
    }
  }
  for (size_t i = 0; i < shards_.size(); ++i) {
    const Shard& shard = *shards_[i];
    out[i].shard = i;
    out[i].ingests = shard.ingests.load(std::memory_order_relaxed);
    out[i].queries = shard.queries.load(std::memory_order_relaxed);
    out[i].lock_wait_p50_ms = shard.lock_wait_ms.ApproxQuantile(0.5);
    out[i].lock_wait_p99_ms = shard.lock_wait_ms.ApproxQuantile(0.99);
    out[i].wal_lag_bytes = shard.wal_lag.load(std::memory_order_relaxed);
    out[i].queue_depth = shard.active_ops.load(std::memory_order_relaxed);
  }
  // Snapshotting health is the natural point to refresh the gauge the
  // reporter watches.
  const_cast<ShardedCatalog*>(this)->PublishShardHealth();
  return out;
}

// ---- Typed admin surface ---------------------------------------------------

Result<AdminFaultResponse> ShardedCatalog::ApplyFault(
    const AdminFaultRequest& request) {
  if (request.shard >= shards_.size()) {
    return Status::InvalidArgument("ApplyFault: no such shard");
  }
  storage::BlockDevice* device = shards_[request.shard]->system.mutable_device();
  // Reset first: it also clears pending faults, so reset+arm in one
  // request behaves as "clean slate, then arm".
  if (request.reset_counters) device->ResetCounters();
  if (request.clear_faults) {
    device->FailNextReads(0);
    device->FailNextWrites(0);
  }
  if (request.fail_next_reads > 0) device->FailNextReads(request.fail_next_reads);
  if (request.fail_next_writes > 0) {
    device->FailNextWrites(request.fail_next_writes);
  }
  AdminFaultResponse response;
  response.shard = request.shard;
  return response;
}

Result<ClearCacheResponse> ShardedCatalog::ClearCache(
    const ClearCacheRequest& request) {
  ClearCacheResponse response;
  auto clear_one = [&](size_t i) {
    storage::BlockCache* cache = shards_[i]->system.mutable_block_cache();
    if (cache != nullptr) {
      cache->Clear();
      ++response.shards_cleared;
    }
  };
  if (request.shard.has_value()) {
    if (*request.shard >= shards_.size()) {
      return Status::InvalidArgument("ClearCache: no such shard");
    }
    clear_one(*request.shard);
  } else {
    for (size_t i = 0; i < shards_.size(); ++i) clear_one(i);
  }
  return response;
}

// ---- Live migration --------------------------------------------------------

Result<std::vector<GlobalSessionId>> ShardedCatalog::BeginTenantMigration(
    ClientId client, size_t target_shard) {
  if (target_shard >= shards_.size()) {
    return Status::InvalidArgument("BeginTenantMigration: no such shard");
  }
  AIMS_RETURN_NOT_OK(journal_status_);
  // Pin first: every ingest that resolves placement from here on lands on
  // the target. Nothing is journaled yet: a copy carries no owner, so a
  // copy no RouteMove names is never routed after a crash.
  router_->SetPin(client, target_shard);
  // Wait out ingests that resolved placement before the pin. They are
  // acknowledged normally (redirected-in-time or drained, never dropped);
  // after the drain the tenant's session set is stable under this
  // enumeration.
  {
    std::unique_lock<std::mutex> lock(inflight_mutex_);
    inflight_cv_.wait(lock, [&] {
      return inflight_.find(client) == inflight_.end();
    });
  }
  std::vector<GlobalSessionId> to_move;
  {
    std::shared_lock<std::shared_mutex> lock(routes_mutex_);
    auto it = client_sessions_.find(client);
    if (it != client_sessions_.end()) {
      for (GlobalSessionId id : it->second) {
        if (routes_.at(id).shard != target_shard) to_move.push_back(id);
      }
    }
  }
  return to_move;
}

Status ShardedCatalog::MigrateSession(GlobalSessionId id, size_t target_shard) {
  if (target_shard >= shards_.size()) {
    return Status::InvalidArgument("MigrateSession: no such shard");
  }
  AIMS_ASSIGN_OR_RETURN(Route route, FindRoute(id));
  if (route.shard == target_shard) return Status::OK();
  // 1. Export the stored session under the source's SHARED lock —
  //    concurrent queries keep running against it throughout. The copy is
  //    its stored bytes: coefficients, block payloads and sealed segments
  //    (downsampled tiers included), so the target answers bit for bit.
  AIMS_ASSIGN_OR_RETURN(
      core::AimsSystem::PreparedIngest copy,
      ReadOnShard(*shards_[route.shard], [&](const core::AimsSystem& sys) {
        return sys.ExportStored(route.local);
      }));
  // 2. Stage the copy on the target through the publish step of every
  //    ingest: one WAL group, on stable storage before we proceed on the
  //    durable backend. No owner, no trace, no catalog metrics, no tenant
  //    attribution, no standing-query results — migration is an
  //    infrastructure move, not tenant activity.
  AIMS_ASSIGN_OR_RETURN(
      core::SessionId target_local,
      IngestOnShard(*shards_[target_shard], std::move(copy),
                    /*owner=*/std::nullopt, /*trace=*/nullptr,
                    /*io_stats=*/nullptr));
  // 3. Journal the owner flip. Once this record is durable, recovery
  //    resolves the session to the target — and only then does the live
  //    route flip, so crash-before and crash-after both leave exactly one
  //    owner.
  AIMS_RETURN_NOT_OK(
      JournalAppend(EncodeRouteMove(id, target_shard, target_local)));
  // 4. Enter the dual-read window: primary = target, fallback = source.
  {
    std::unique_lock<std::shared_mutex> lock(routes_mutex_);
    auto it = routes_.find(id);
    if (it == routes_.end()) {
      return Status::NotFound("MigrateSession: route vanished mid-migration");
    }
    Route& live = it->second;
    live.fallback_shard = live.shard;
    live.fallback_local = live.local;
    live.shard = static_cast<uint32_t>(target_shard);
    live.local = target_local;
    live.dual = true;
  }
  return Status::OK();
}

void ShardedCatalog::CloseDualReadWindows(ClientId client) {
  std::unique_lock<std::shared_mutex> lock(routes_mutex_);
  auto it = client_sessions_.find(client);
  if (it == client_sessions_.end()) return;
  for (GlobalSessionId id : it->second) {
    Route& route = routes_.at(id);
    route.dual = false;
    route.fallback_shard = 0;
    route.fallback_local = 0;
  }
}

Status ShardedCatalog::CommitTenantMigration(ClientId client,
                                             size_t target_shard) {
  // Atomic routing flip: close every dual-read window of the tenant in one
  // exclusive critical section — after this, reads resolve to the target
  // only and the source copies are unreachable (logical source cleanup;
  // physical block reclamation is a compaction concern, not a routing one).
  CloseDualReadWindows(client);
  // The commit record makes the pin durable: recovery re-pins the tenant,
  // so post-restart ingests keep landing where the data lives.
  AIMS_RETURN_NOT_OK(
      JournalAppend(EncodeMigrationCommit(client, target_shard)));
  router_->BumpEpoch();
  return Status::OK();
}

void ShardedCatalog::AbortTenantMigration(ClientId client) {
  // Already-moved sessions stay on the target (their copies are durable
  // and journaled there); just close the dual windows and drop the pin.
  CloseDualReadWindows(client);
  router_->ClearPin(client);
}

// ---- Routing journal -------------------------------------------------------

Status ShardedCatalog::JournalAppend(const std::vector<uint8_t>& blob) {
  if (journal_ == nullptr) return Status::OK();
  AIMS_ASSIGN_OR_RETURN(uint64_t txn, journal_->BeginTxn());
  AIMS_RETURN_NOT_OK(journal_->AppendCatalog(txn, blob));
  // Commit = append + WaitDurable; concurrent journal commits share one
  // group-commit fsync like the shard WALs do.
  return journal_->Commit(txn);
}

Status ShardedCatalog::OpenAndReplayJournal(const std::string& base_path) {
  namespace durable = storage::durable;
  durable::WalConfig wal_config;
  wal_config.sync_mode = config_.durability.sync_mode;
  wal_config.group_commit_ms = config_.durability.group_commit_ms;
  const std::string path = base_path + "/routes.wal";

  AIMS_ASSIGN_OR_RETURN(durable::WriteAheadLog::Opened opened,
                        durable::WriteAheadLog::Open(path, wal_config));

  // Which route holds each shard entry, keyed shard << 32 | local.
  std::unordered_map<uint64_t, GlobalSessionId> holders;
  auto entry_key = [](uint32_t shard, core::SessionId local) {
    return (uint64_t{shard} << 32) | local;
  };

  // Ingest routes: an owner-tagged shard entry is its session's home. The
  // owner committed in the session's own WAL group, so every committed
  // ingest is routed, under the client and id it was staged with.
  for (size_t i = 0; i < shards_.size(); ++i) {
    for (const core::SessionInfo& info : shards_[i]->system.ListSessions()) {
      if (!info.owner.has_value()) continue;
      const Route route{.client = info.owner->client,
                        .shard = static_cast<uint32_t>(i),
                        .local = info.id};
      if (!routes_.emplace(info.owner->global_id, route).second) {
        return Status::IoError("routing: two shard entries claim session " +
                               std::to_string(info.owner->global_id));
      }
      holders[entry_key(route.shard, route.local)] = info.owner->global_id;
    }
  }

  // Whether a journal record may route \p id to (shard, local): the entry
  // exists, carries no other session's owner, and no other route holds it.
  // A move's target must also describe the session \p from holds, since a
  // migration copy is its source's stored bytes. A record that fails is
  // damaged or stale and is skipped: replaying it would hand one session's
  // entry to another id.
  auto admissible = [&](GlobalSessionId id, uint32_t shard,
                        core::SessionId local, const Route* from) {
    if (shard >= shards_.size()) return false;  // shrunken shard count
    Result<core::SessionInfo> target = shards_[shard]->system.GetSession(local);
    if (!target.ok()) return false;
    if (target->owner.has_value() && target->owner->global_id != id) {
      return false;
    }
    auto holder = holders.find(entry_key(shard, local));
    if (holder != holders.end() && holder->second != id) return false;
    if (from == nullptr) return true;
    Result<core::SessionInfo> source =
        shards_[from->shard]->system.GetSession(from->local);
    return source.ok() && source->name == target->name &&
           source->num_channels == target->num_channels &&
           source->num_frames == target->num_frames &&
           source->sample_rate_hz == target->sample_rate_hz;
  };

  // Replay. The journal is tiny relative to the shard WALs (fixed-width
  // migration records), so a full linear replay at open is cheap. A
  // RouteAdd is the only route of an entry that predates owners.
  std::unordered_set<GlobalSessionId> journal_routed;
  std::map<ClientId, size_t> pins;  // latest committed target per tenant
  for (const durable::RecoveredTxn& txn : opened.committed) {
    for (const std::vector<uint8_t>& blob : txn.catalog_blobs) {
      ByteReader reader(blob);
      const uint8_t type = reader.U8();
      if (type == kRouteAdd) {
        const GlobalSessionId id = reader.U64();
        Route route;
        route.client = reader.U64();
        route.shard = reader.U32();
        route.local = reader.U32();
        if (!reader.ok() || routes_.count(id) != 0 ||
            !admissible(id, route.shard, route.local, nullptr)) {
          continue;
        }
        routes_[id] = route;
        holders[entry_key(route.shard, route.local)] = id;
        journal_routed.insert(id);
      } else if (type == kRouteMove) {
        const GlobalSessionId id = reader.U64();
        const uint32_t shard = reader.U32();
        const core::SessionId local = reader.U32();
        auto it = routes_.find(id);
        if (!reader.ok() || it == routes_.end() ||
            !admissible(id, shard, local, &it->second)) {
          continue;
        }
        holders.erase(entry_key(it->second.shard, it->second.local));
        holders[entry_key(shard, local)] = id;
        it->second.shard = shard;
        it->second.local = local;
      } else if (type == kMigrationCommit) {
        const ClientId client = reader.U64();
        const uint32_t target = reader.U32();
        if (reader.ok() && target < shards_.size()) pins[client] = target;
      }
      // Anything else is skipped: forward-compatible.
    }
  }

  // Minting resumes past every recovered id; past the last counter it
  // refuses (MintSessionId) rather than wrap.
  uint64_t max_counter = 0;
  for (const auto& [id, route] : routes_) {
    (void)route;
    max_counter = std::max(max_counter, id & kCounterMask);
  }
  next_session_counter_.store(max_counter + 1, std::memory_order_relaxed);

  // Restore each tenant's latest pin. Every SetPin bumps the epoch, which
  // only tags newly minted ids; the counter keeps them unique.
  for (const auto& [client, target] : pins) router_->SetPin(client, target);

  // Rebuild the by-client index in mint order.
  std::vector<std::pair<GlobalSessionId, const Route*>> ordered;
  ordered.reserve(routes_.size());
  for (const auto& [id, route] : routes_) ordered.emplace_back(id, &route);
  std::sort(ordered.begin(), ordered.end(), [](const auto& a, const auto& b) {
    return (a.first & kCounterMask) < (b.first & kCounterMask);
  });
  for (const auto& [id, route] : ordered) {
    client_sessions_[route->client].push_back(id);
  }

  // Compact: rewrite the journal as one snapshot transaction in a fresh
  // file, then atomically rename it over the old log. Crash before the
  // rename leaves the old journal intact; crash after leaves the complete
  // snapshot — either way recovery sees a consistent log. The snapshot
  // holds what the shard entries do not: a RouteAdd per route that came
  // from one, a RouteMove per route away from its owner-tagged entry, and
  // each tenant's latest pin.
  const std::string tmp_path = path + ".tmp";
  std::error_code ec;
  std::filesystem::remove(tmp_path, ec);  // stale tmp from an earlier crash
  AIMS_ASSIGN_OR_RETURN(durable::WriteAheadLog::Opened compacted,
                        durable::WriteAheadLog::Open(tmp_path, wal_config));
  AIMS_ASSIGN_OR_RETURN(uint64_t txn, compacted.wal->BeginTxn());
  for (const auto& [id, route] : ordered) {
    std::vector<uint8_t> blob;
    if (journal_routed.count(id) != 0) {
      blob = EncodeRouteAdd(id, route->client, route->shard, route->local);
    } else {
      Result<core::SessionInfo> at =
          shards_[route->shard]->system.GetSession(route->local);
      if (at.ok() && at->owner.has_value() && at->owner->global_id == id) {
        continue;  // still at its home entry
      }
      blob = EncodeRouteMove(id, route->shard, route->local);
    }
    AIMS_RETURN_NOT_OK(compacted.wal->AppendCatalog(txn, blob));
  }
  for (const auto& [client, target] : pins) {
    AIMS_RETURN_NOT_OK(compacted.wal->AppendCatalog(
        txn, EncodeMigrationCommit(client, target)));
  }
  AIMS_RETURN_NOT_OK(compacted.wal->Commit(txn));
  compacted.wal.reset();  // close before the rename
  opened.wal.reset();
  std::filesystem::rename(tmp_path, path, ec);
  if (ec) {
    return Status::IoError("routing journal compaction rename failed: " +
                           ec.message());
  }
  AIMS_ASSIGN_OR_RETURN(durable::WriteAheadLog::Opened reopened,
                        durable::WriteAheadLog::Open(path, wal_config));
  journal_ = std::move(reopened.wal);
  return Status::OK();
}

}  // namespace aims::server
