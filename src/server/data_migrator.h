#pragma once

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "obs/cost_ledger.h"
#include "obs/watchdog.h"
#include "server/shard_router.h"
#include "server/sharded_catalog.h"

/// \file data_migrator.h
/// \brief Online tenant rebalancing over the ShardedCatalog:
///
///   * DataMigrator — drives the live-migration protocol for one tenant:
///     pin + quiesce (BeginTenantMigration), per-session copy under the
///     source's shared lock with a dual-read window (MigrateSession),
///     atomic routing flip (CommitTenantMigration). Queries and ingests to
///     the tenant keep running throughout; on the durable backend each
///     route flip and the final pin are journaled, and a copy no record
///     names is never routed, so a crash recovers to exactly one owner.
///
///   * RebalancePlanner — turns the cost ledger's per-tenant usage into
///     hot-tenant moves: compute per-shard load through the router's
///     placement, then greedily move the heaviest movable tenant off the
///     hottest shard onto the coolest until the imbalance ratio drops
///     under the trigger (or the move budget runs out). Pure function of
///     its inputs — the caller decides whether to execute the plan.

namespace aims::server {

/// \brief One proposed tenant move.
struct RebalanceMove {
  ClientId client = 0;
  size_t from_shard = 0;
  size_t to_shard = 0;
  /// The tenant's modeled load (see RebalancePlannerConfig weights).
  double load = 0.0;
};

/// \brief Progress of the migrator's current (or most recent) tenant move.
struct MigrationStatus {
  enum class State : uint8_t { kIdle, kRunning, kDone, kFailed };
  State state = State::kIdle;
  ClientId client = 0;
  size_t target_shard = 0;
  size_t sessions_total = 0;
  size_t sessions_moved = 0;
  /// Failure detail when state == kFailed.
  std::string error;
};

/// \brief The migrator's current (or most recent) run: a plan's moves,
/// executed in order, one tenant at a time.
struct MigrationRun {
  bool running = false;
  std::vector<RebalanceMove> moves;
  /// Moves that finished without error.
  size_t completed = 0;
  /// First failure; the run stops at it.
  std::string error;
  /// The move in flight (or the last one).
  MigrationStatus migration;
};

/// \brief Moves tenants between live shards. One run at a time (AlreadyExists
/// otherwise); its progress is observable concurrently.
class DataMigrator {
 public:
  /// \param watchdog optional supervisor (must outlive the migrator): the
  /// migrator registers "migrator", armed for the span of each tenant move
  /// and beaten after every migrated session, so a move wedged on one
  /// session's copy (shard lock, WAL) is a stall.
  explicit DataMigrator(ShardedCatalog* catalog,
                        obs::Watchdog* watchdog = nullptr);

  /// \brief Claims the migrator for a run of \p moves, which RunClaimed
  /// then executes (on an executor, for an asynchronous rebalance).
  /// AlreadyExists while another run is in flight.
  Status Claim(std::vector<RebalanceMove> moves);
  /// \brief Executes the claimed run's moves in order and ends the run.
  /// Returns the first failure, at which the run stops.
  Status RunClaimed();
  /// \brief Ends a claimed run that will not execute, with \p error.
  void Abandon(std::string error);

  /// \brief Moves every session of \p client to \p target_shard while the
  /// tenant stays fully serveable: a one-move run on the calling thread.
  /// No-op success when the tenant is already there.
  Status MigrateTenant(ClientId client, size_t target_shard);

  /// The move in flight (or the last one).
  MigrationStatus status() const;
  MigrationRun run() const;

 private:
  /// One move of the claimed run; publishes its progress as it goes.
  Status MoveTenant(ClientId client, size_t target_shard);
  void SetStatus(const MigrationStatus& status);

  ShardedCatalog* catalog_;
  obs::Watchdog::Handle* const watchdog_;
  mutable std::mutex mutex_;
  MigrationRun run_;
};

/// \brief A plan plus the load model it was derived from.
struct RebalancePlan {
  std::vector<RebalanceMove> moves;
  /// Modeled per-shard load before / after applying the moves.
  std::vector<double> shard_load_before;
  std::vector<double> shard_load_after;
  /// max/mean load ratio before and after (1.0 = perfectly even).
  double imbalance_before = 0.0;
  double imbalance_after = 0.0;
};

/// \brief Load-model weights and stopping rules of the planner.
struct RebalancePlannerConfig {
  /// Load units per CPU millisecond / block I/O / queue millisecond a
  /// tenant consumed (ledger dimensions; see obs::TenantUsage).
  double cpu_weight_per_ms = 1.0;
  double io_weight_per_block = 0.05;
  double queue_weight_per_ms = 0.25;
};

/// \brief Greedy hot-tenant spreading from ledger usage.
class RebalancePlanner {
 public:
  /// Plan moves only while max shard load > kTriggerRatio * mean load.
  static constexpr double kTriggerRatio = 1.25;
  /// Upper bound on proposed moves per plan (a migration is expensive;
  /// rebalancing converges over several small plans, not one huge one).
  static constexpr size_t kMaxMoves = 4;

  explicit RebalancePlanner(RebalancePlannerConfig config = {});

  /// \brief Proposes moves given per-tenant \p usage (a CostLedger
  /// snapshot), current placement from \p router, and \p num_shards.
  RebalancePlan Plan(
      const std::vector<std::pair<obs::TenantId, obs::TenantUsage>>& usage,
      const ShardRouter& router, size_t num_shards) const;

  /// \brief The modeled load of one tenant's usage (exposed for tests).
  double TenantLoad(const obs::TenantUsage& usage) const;

  const RebalancePlannerConfig& config() const { return config_; }

 private:
  RebalancePlannerConfig config_;
};

}  // namespace aims::server
