#include "server/data_migrator.h"

#include <algorithm>
#include <numeric>
#include <unordered_map>
#include <utility>

#include "common/macros.h"

namespace aims::server {

DataMigrator::DataMigrator(ShardedCatalog* catalog, obs::Watchdog* watchdog)
    : catalog_(catalog),
      watchdog_(watchdog != nullptr ? watchdog->Register("migrator")
                                    : nullptr) {
  AIMS_CHECK(catalog_ != nullptr);
}

MigrationStatus DataMigrator::status() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return run_.migration;
}

MigrationRun DataMigrator::run() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return run_;
}

void DataMigrator::SetStatus(const MigrationStatus& status) {
  std::lock_guard<std::mutex> lock(mutex_);
  run_.migration = status;
}

Status DataMigrator::Claim(std::vector<RebalanceMove> moves) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (run_.running) {
    return Status::AlreadyExists("DataMigrator: a migration is already running");
  }
  run_ = MigrationRun{};
  run_.running = true;
  run_.moves = std::move(moves);
  return Status::OK();
}

void DataMigrator::Abandon(std::string error) {
  std::lock_guard<std::mutex> lock(mutex_);
  run_.error = std::move(error);
  run_.running = false;
}

Status DataMigrator::RunClaimed() {
  // The moves of a running run never change, so a copy is the plan.
  const std::vector<RebalanceMove> moves = run().moves;
  Status status = Status::OK();
  for (const RebalanceMove& move : moves) {
    status = MoveTenant(move.client, move.to_shard);
    if (!status.ok()) break;
    std::lock_guard<std::mutex> lock(mutex_);
    ++run_.completed;
  }
  std::lock_guard<std::mutex> lock(mutex_);
  if (!status.ok()) run_.error = status.message();
  run_.running = false;
  return status;
}

Status DataMigrator::MigrateTenant(ClientId client, size_t target_shard) {
  RebalanceMove move;
  move.client = client;
  move.from_shard = catalog_->router().ShardForClient(client);
  move.to_shard = target_shard;
  AIMS_RETURN_NOT_OK(Claim({move}));
  return RunClaimed();
}

Status DataMigrator::MoveTenant(ClientId client, size_t target_shard) {
  // Armed for the whole move: a migration is episodic supervised work — a
  // copy wedged on one session must trip the watchdog, an idle migrator
  // must not.
  obs::Watchdog::Scope supervised(watchdog_);
  MigrationStatus progress;
  progress.state = MigrationStatus::State::kRunning;
  progress.client = client;
  progress.target_shard = target_shard;
  SetStatus(progress);

  auto fail = [&](const Status& status) {
    catalog_->AbortTenantMigration(client);
    progress.state = MigrationStatus::State::kFailed;
    progress.error = status.message();
    SetStatus(progress);
    return status;
  };

  // Pin + quiesce, then the stable list of sessions to copy.
  Result<std::vector<GlobalSessionId>> to_move =
      catalog_->BeginTenantMigration(client, target_shard);
  if (!to_move.ok()) {
    progress.state = MigrationStatus::State::kFailed;
    progress.error = to_move.status().message();
    SetStatus(progress);
    return to_move.status();
  }
  progress.sessions_total = to_move->size();
  SetStatus(progress);

  // Copy one session at a time: each copy runs under the source's shared
  // lock (queries keep flowing) and flips that session into its dual-read
  // window the moment its target copy is durable.
  for (GlobalSessionId id : *to_move) {
    Status moved = catalog_->MigrateSession(id, target_shard);
    if (!moved.ok()) return fail(moved);
    ++progress.sessions_moved;
    SetStatus(progress);
    if (watchdog_ != nullptr) watchdog_->Beat();
  }

  // Atomic routing flip + durable pin; the tenant now lives wholly on the
  // target.
  Status committed = catalog_->CommitTenantMigration(client, target_shard);
  if (!committed.ok()) return fail(committed);
  progress.state = MigrationStatus::State::kDone;
  SetStatus(progress);
  return Status::OK();
}

RebalancePlanner::RebalancePlanner(RebalancePlannerConfig config)
    : config_(config) {}

double RebalancePlanner::TenantLoad(const obs::TenantUsage& usage) const {
  double cpu_ms = static_cast<double>(usage.cpu_ns) / 1e6;
  double blocks =
      static_cast<double>(usage.blocks_read + usage.blocks_written);
  return cpu_ms * config_.cpu_weight_per_ms +
         blocks * config_.io_weight_per_block +
         usage.queue_ms * config_.queue_weight_per_ms;
}

RebalancePlan RebalancePlanner::Plan(
    const std::vector<std::pair<obs::TenantId, obs::TenantUsage>>& usage,
    const ShardRouter& router, size_t num_shards) const {
  RebalancePlan plan;
  if (num_shards == 0) return plan;

  struct Tenant {
    ClientId client = 0;
    size_t shard = 0;
    double load = 0.0;
  };
  std::vector<Tenant> tenants;
  tenants.reserve(usage.size());
  std::vector<double> shard_load(num_shards, 0.0);
  for (const auto& [client, tenant_usage] : usage) {
    Tenant t;
    t.client = client;
    t.shard = router.ShardForClient(client);
    if (t.shard >= num_shards) continue;  // defensive
    t.load = TenantLoad(tenant_usage);
    shard_load[t.shard] += t.load;
    tenants.push_back(t);
  }
  plan.shard_load_before = shard_load;

  double total =
      std::accumulate(shard_load.begin(), shard_load.end(), 0.0);
  double mean = total / static_cast<double>(num_shards);
  auto imbalance = [&](const std::vector<double>& loads) {
    if (mean <= 0.0) return 1.0;
    return *std::max_element(loads.begin(), loads.end()) / mean;
  };
  plan.imbalance_before = imbalance(shard_load);

  // Greedy: while the hottest shard is over trigger, move its heaviest
  // tenant that actually shrinks the gap to the coolest shard. A tenant
  // heavier than HALF the hot/cool gap would leave the pair at least as
  // spread as before (or just swap which shard is hot and ping-pong), so
  // it is skipped in favor of the next one down.
  while (plan.moves.size() < kMaxMoves && mean > 0.0) {
    size_t hottest = static_cast<size_t>(
        std::max_element(shard_load.begin(), shard_load.end()) -
        shard_load.begin());
    size_t coolest = static_cast<size_t>(
        std::min_element(shard_load.begin(), shard_load.end()) -
        shard_load.begin());
    if (shard_load[hottest] <= kTriggerRatio * mean) break;
    double gap = shard_load[hottest] - shard_load[coolest];

    Tenant* best = nullptr;
    for (Tenant& t : tenants) {
      if (t.shard != hottest || t.load <= 0.0 || t.load > gap / 2.0) continue;
      if (best == nullptr || t.load > best->load) best = &t;
    }
    if (best == nullptr) break;  // only immovable (too-heavy) tenants left

    RebalanceMove move;
    move.client = best->client;
    move.from_shard = hottest;
    move.to_shard = coolest;
    move.load = best->load;
    plan.moves.push_back(move);
    shard_load[hottest] -= best->load;
    shard_load[coolest] += best->load;
    best->shard = coolest;
  }

  plan.shard_load_after = shard_load;
  plan.imbalance_after = imbalance(shard_load);
  return plan;
}

}  // namespace aims::server
