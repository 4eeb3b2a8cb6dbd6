#include "server/continuous_agg.h"

#include <utility>

#include "common/macros.h"

namespace aims::server {

ContinuousAggregateRegistry::ContinuousAggregateRegistry(
    ShardedCatalog* catalog, obs::MetricsRegistry* metrics)
    : catalog_(catalog) {
  AIMS_CHECK(catalog != nullptr);
  if (metrics != nullptr) {
    registered_ = metrics->GetCounter("tslife.aggregate_registrations");
    updates_ = metrics->GetCounter("tslife.aggregate_updates");
    backfills_ = metrics->GetCounter("tslife.aggregate_backfills");
    hits_ = metrics->GetCounter("tslife.aggregate_hits");
    active_ = metrics->GetGauge("tslife.aggregates_active");
  }
}

std::vector<core::StandingRangeQuery>
ContinuousAggregateRegistry::StandingQueriesLocked() const {
  std::vector<core::StandingRangeQuery> queries;
  queries.reserve(registrations_.size());
  for (const auto& [handle, reg] : registrations_) {
    core::StandingRangeQuery q;
    q.handle = handle;
    q.channel = reg.spec.channel;
    q.first_frame = reg.spec.first_frame;
    q.last_frame = reg.spec.last_frame;
    queries.push_back(q);
  }
  return queries;
}

Result<RegisteredAggregate> ContinuousAggregateRegistry::Register(
    const AggregateSpec& spec) {
  if (spec.first_frame > spec.last_frame) {
    return Status::InvalidArgument(
        "ContinuousAggregateRegistry::Register: first_frame > last_frame");
  }
  uint64_t handle = 0;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    handle = next_handle_++;
    registrations_[handle].spec = spec;
    // Push down BEFORE backfilling: every ingest from here on maintains
    // the new registration, so the backfill below only has to cover
    // sessions that already existed.
    catalog_->SetStandingQueries(StandingQueriesLocked());
  }

  // Backfill outside the registry lock: QueryRange takes shard shared
  // locks and may be slow; concurrent hook updates interleave safely
  // (same exact value for any session both paths touch).
  RegisteredAggregate out;
  out.handle = handle;
  for (const CatalogSessionEntry& entry : catalog_->ListSessions()) {
    if (entry.client != spec.client) continue;
    Result<core::RangeStatistics> stats = catalog_->QueryRange(
        entry.id, spec.channel, spec.first_frame, spec.last_frame);
    if (!stats.ok()) continue;  // range does not fit this session
    AggregateResult value;
    value.sum = stats->sum;
    value.mean = stats->mean;
    value.count = stats->count;
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = registrations_.find(handle);
    if (it == registrations_.end()) break;  // unregistered mid-backfill
    it->second.values[entry.id] = value;
    ++out.sessions_backfilled;
    if (backfills_ != nullptr) backfills_->Increment();
  }
  if (registered_ != nullptr) registered_->Increment();
  if (active_ != nullptr) active_->Add(1);
  return out;
}

Status ContinuousAggregateRegistry::Unregister(uint64_t handle) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = registrations_.find(handle);
  if (it == registrations_.end()) {
    return Status::NotFound(
        "ContinuousAggregateRegistry::Unregister: unknown handle");
  }
  registrations_.erase(it);
  catalog_->SetStandingQueries(StandingQueriesLocked());
  if (active_ != nullptr) active_->Add(-1);
  return Status::OK();
}

void ContinuousAggregateRegistry::OnIngestCommit(
    GlobalSessionId session, ClientId client,
    const std::vector<core::StandingRangeUpdate>& updates) {
  std::lock_guard<std::mutex> lock(mutex_);
  for (const core::StandingRangeUpdate& update : updates) {
    auto it = registrations_.find(update.handle);
    if (it == registrations_.end()) continue;  // unregistered in flight
    if (it->second.spec.client != client) continue;
    AggregateResult value;
    value.sum = update.sum;
    value.mean = update.mean;
    value.count = update.count;
    it->second.values[session] = value;
    if (updates_ != nullptr) updates_->Increment();
  }
}

std::optional<AggregateResult> ContinuousAggregateRegistry::Lookup(
    ClientId client, GlobalSessionId session, size_t channel,
    size_t first_frame, size_t last_frame) const {
  std::lock_guard<std::mutex> lock(mutex_);
  for (const auto& [handle, reg] : registrations_) {
    (void)handle;
    if (reg.spec.client != client || reg.spec.channel != channel ||
        reg.spec.first_frame != first_frame ||
        reg.spec.last_frame != last_frame) {
      continue;
    }
    auto it = reg.values.find(session);
    if (it == reg.values.end()) continue;
    if (hits_ != nullptr) hits_->Increment();
    return it->second;
  }
  return std::nullopt;
}

void ContinuousAggregateRegistry::ForgetSession(GlobalSessionId session) {
  std::lock_guard<std::mutex> lock(mutex_);
  for (auto& [handle, reg] : registrations_) {
    (void)handle;
    reg.values.erase(session);
  }
}

size_t ContinuousAggregateRegistry::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return registrations_.size();
}

}  // namespace aims::server
