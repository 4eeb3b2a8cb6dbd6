#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <unordered_map>
#include <vector>

#include "core/aims.h"
#include "obs/metrics.h"
#include "server/sharded_catalog.h"

/// \file continuous_agg.h
/// \brief Continuous aggregates: standing progressive range queries whose
/// ProPolyne results are maintained incrementally at ingest commit time.
/// A dashboard registers its range once; from then on every ingest
/// evaluates the range against the in-memory wavelet coefficients (see
/// core::StandingRangeQuery / propolyne::IncrementalRangeSum) and the
/// registry retains one exact result per (registration, session). A later
/// range query that matches a registration exactly is answered from here
/// with ZERO block I/O — the scheduler consults Lookup before planning.
///
/// The registry owns handles and per-client scoping; the core systems own
/// evaluation. Registration pushes the standing-query set down to every
/// shard (exclusive locks, like the ingests that read it) and backfills
/// the client's existing sessions with one exact QueryRange each — block
/// I/O once at registration, never again.

namespace aims::server {

/// \brief What one dashboard registers: a fixed range over a fixed
/// channel, scoped to the registering client's sessions.
struct AggregateSpec {
  ClientId client = 0;
  size_t channel = 0;
  size_t first_frame = 0;
  size_t last_frame = 0;
};

/// \brief One maintained exact result (sum/mean over the spec's range in
/// one session).
struct AggregateResult {
  double sum = 0.0;
  double mean = 0.0;
  size_t count = 0;
};

/// \brief Outcome of Register: the handle plus how many already-stored
/// sessions were backfilled.
struct RegisteredAggregate {
  uint64_t handle = 0;
  size_t sessions_backfilled = 0;
};

/// \brief Handle table + maintained results of every continuous aggregate.
///
/// Thread-safe. Register/Unregister take per-shard exclusive locks (the
/// push-down) and must not be called from under a shard lock;
/// OnIngestCommit runs from the catalog's ingest path with no shard lock
/// held, so the lock order registry-after-shards never cycles.
class ContinuousAggregateRegistry {
 public:
  /// \param catalog target of push-downs and backfills (not owned).
  /// \param metrics optional registry for the aims_tslife_aggregate_*
  /// family (may be null).
  explicit ContinuousAggregateRegistry(ShardedCatalog* catalog,
                                       obs::MetricsRegistry* metrics = nullptr);

  /// \brief Registers \p spec: assigns a handle, pushes the updated
  /// standing-query set to every shard (so ingests from this point on
  /// maintain it), then backfills the client's existing sessions with one
  /// exact QueryRange each. Sessions the range does not fit (too short,
  /// no such channel) are skipped, not errors. InvalidArgument on an
  /// inverted range. An ingest racing the registration may be both
  /// backfilled and hook-updated; both write the same exact value.
  Result<RegisteredAggregate> Register(const AggregateSpec& spec);

  /// \brief Drops one registration and pushes the shrunken set down.
  /// NotFound for an unknown handle.
  Status Unregister(uint64_t handle);

  /// \brief The catalog's ingest-commit hook (ShardedCatalog::
  /// IngestCommitHook): folds the core's maintained updates into the
  /// registry. Updates for registrations whose client is
  /// not the ingesting client are ignored — the core evaluates every
  /// standing query against every ingest, the scoping lives here.
  void OnIngestCommit(GlobalSessionId session, ClientId client,
                      const std::vector<core::StandingRangeUpdate>& updates);

  /// \brief The scheduler's consult: an exact-match maintained result for
  /// this (client, session, channel, range), or nullopt. A hit means the
  /// answer below is exact and cost zero block I/O.
  std::optional<AggregateResult> Lookup(ClientId client,
                                        GlobalSessionId session,
                                        size_t channel, size_t first_frame,
                                        size_t last_frame) const;

  size_t size() const;

 private:
  struct Registration {
    AggregateSpec spec;
    /// Maintained exact results, keyed by the catalog's global id.
    std::unordered_map<GlobalSessionId, AggregateResult> values;
  };

  /// The core-facing projection of the handle table (callers hold mutex_).
  std::vector<core::StandingRangeQuery> StandingQueriesLocked() const;

  ShardedCatalog* catalog_;

  mutable std::mutex mutex_;
  std::map<uint64_t, Registration> registrations_;
  uint64_t next_handle_ = 1;

  obs::Counter* registered_ = nullptr;
  obs::Counter* updates_ = nullptr;
  obs::Counter* backfills_ = nullptr;
  obs::Counter* hits_ = nullptr;
  obs::Gauge* active_ = nullptr;
};

}  // namespace aims::server
