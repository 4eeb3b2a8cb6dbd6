#include "server/ingest_service.h"

#include <optional>
#include <utility>

#include "common/macros.h"

namespace aims::server {

IngestService::IngestService(ShardedCatalog* catalog,
                             IngestAdmissionPolicy policy,
                             obs::MetricsRegistry* metrics, obs::Tracer* tracer,
                             obs::CostLedger* ledger)
    : catalog_(catalog), policy_(policy), tracer_(tracer), ledger_(ledger) {
  AIMS_CHECK(catalog_ != nullptr);
  AIMS_CHECK(policy_.queue_capacity >= 1);
  if (metrics != nullptr) {
    submitted_ = metrics->GetCounter("ingest.submitted");
    admitted_ = metrics->GetCounter("ingest.admitted");
    rejected_queue_ = metrics->GetCounter("ingest.rejected_queue");
    rejected_capacity_ = metrics->GetCounter("ingest.rejected_capacity");
    completed_ = metrics->GetCounter("ingest.completed");
    failed_ = metrics->GetCounter("ingest.failed");
    queue_depth_ = metrics->GetGauge("ingest.queue_depth");
  }
}

IngestService::~IngestService() { Shutdown(); }

Status IngestService::Admit(ClientId client) {
  obs::Counter* rejected = nullptr;
  Status status;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (shut_down_) {
      return Status::FailedPrecondition("IngestService: shut down");
    }
    if (policy_.max_pending_total > 0 &&
        in_flight_ >= policy_.max_pending_total) {
      rejected = rejected_capacity_;
      status = Status::ResourceExhausted("IngestService: server at capacity");
    } else if (size_t& mine = in_flight_by_client_[client];
               mine >= policy_.queue_capacity) {
      rejected = rejected_queue_;
      status = Status::ResourceExhausted("IngestService: client at its cap");
    } else {
      ++mine;
      ++in_flight_;
      return Status::OK();
    }
  }
  if (rejected != nullptr) rejected->Increment();
  if (ledger_ != nullptr) ledger_->ForTenant(client)->CountRejected();
  return status;
}

void IngestService::Finish(ClientId client) {
  // Notify under the mutex: Shutdown may return, and the service be
  // destroyed, as soon as the count reaches zero.
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = in_flight_by_client_.find(client);
  if (--it->second == 0) in_flight_by_client_.erase(it);
  if (--in_flight_ == 0) idle_cv_.notify_all();
}

Result<GlobalSessionId> IngestService::Ingest(
    ClientId client, const std::string& name,
    const streams::Recording& recording) {
  if (submitted_ != nullptr) submitted_->Increment();
  AIMS_RETURN_NOT_OK(Admit(client));
  if (admitted_ != nullptr) admitted_->Increment();
  if (queue_depth_ != nullptr) queue_depth_->AddTracked(1);
  std::optional<obs::Trace> trace;
  if (tracer_ != nullptr) {
    trace.emplace(tracer_->NextRequestId());
    trace->set_label("ingest client=" + std::to_string(client) +
                     " name=" + name);
    // Root span: closed when Record() stamps it, so it covers admission
    // to completion.
    trace->BeginSpan(obs::Stage::kIngest);
    trace->AddSpan(obs::Stage::kAdmission, 0.0, trace->ElapsedMs());
  }
  obs::TenantLedger* tenant =
      ledger_ != nullptr ? ledger_->ForTenant(client) : nullptr;
  if (tenant != nullptr) tenant->CountIngest();
  obs::ScopedCpuCharge cpu_charge(tenant);
  ShardedCatalog::IngestIoStats io_stats;
  // One attempt: on the durable backend a fault after the commit is
  // durable fails the call, and a retry would store the recording twice.
  Result<GlobalSessionId> result =
      catalog_->Ingest(client, name, recording,
                       trace.has_value() ? &*trace : nullptr, &io_stats);
  if (tenant != nullptr && io_stats.blocks_written > 0) {
    tenant->ChargeWrite(io_stats.blocks_written, io_stats.bytes_written);
  }
  obs::Counter* outcome = result.ok() ? completed_ : failed_;
  if (outcome != nullptr) outcome->Increment();
  if (queue_depth_ != nullptr) queue_depth_->AddTracked(-1);
  if (trace.has_value()) tracer_->Record(std::move(*trace));
  Finish(client);
  return result;
}

void IngestService::Shutdown() {
  std::unique_lock<std::mutex> lock(mutex_);
  shut_down_ = true;
  idle_cv_.wait(lock, [&] { return in_flight_ == 0; });
}

}  // namespace aims::server
