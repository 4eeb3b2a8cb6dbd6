#include "server/ingest_service.h"

#include <utility>
#include <vector>

#include "common/macros.h"

namespace aims::server {

IngestService::IngestService(ShardedCatalog* catalog, ThreadPool* pool,
                             IngestAdmissionPolicy policy,
                             obs::MetricsRegistry* metrics, obs::Tracer* tracer,
                             obs::CostLedger* ledger)
    : catalog_(catalog),
      pool_(pool),
      policy_(policy),
      tracer_(tracer),
      ledger_(ledger) {
  AIMS_CHECK(catalog_ != nullptr);
  AIMS_CHECK(pool_ != nullptr);
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

IngestService::ClientState* IngestService::GetOrCreateClient(ClientId client) {
  {
    std::shared_lock<std::shared_mutex> lock(clients_mutex_);
    auto it = clients_.find(client);
    if (it != clients_.end()) return it->second.get();
  }
  std::unique_lock<std::shared_mutex> lock(clients_mutex_);
  auto& slot = clients_[client];
  if (!slot) {
    slot = std::make_unique<ClientState>(client, policy_.queue_capacity);
  }
  return slot.get();
}

Status IngestService::Submit(ClientId client, std::string name,
                             streams::Recording recording, Callback on_done) {
  if (submitted_ != nullptr) submitted_->Increment();
  if (policy_.max_pending_total > 0 &&
      pending_.load(std::memory_order_relaxed) >= policy_.max_pending_total) {
    if (rejected_capacity_ != nullptr) rejected_capacity_->Increment();
    if (ledger_ != nullptr) ledger_->ForTenant(client)->CountRejected();
    return Status::ResourceExhausted("IngestService: server at capacity");
  }
  ClientState* state = GetOrCreateClient(client);
  PendingItem item;
  item.name = std::move(name);
  item.recording = std::move(recording);
  item.on_done = std::move(on_done);
  item.enqueued = std::chrono::steady_clock::now();
  if (tracer_ != nullptr) {
    // The trace is born at admission; a rejected submission below simply
    // drops it, so only admitted work is ever recorded.
    obs::Trace trace(tracer_->NextRequestId());
    trace.set_label("ingest client=" + std::to_string(client) +
                    " name=" + item.name);
    // Root span: closed when Record() stamps it, so it covers admission
    // to completion.
    trace.BeginSpan(obs::Stage::kIngest);
    trace.AddSpan(obs::Stage::kAdmission, 0.0, trace.ElapsedMs());
    item.queue_span = trace.BeginSpan(obs::Stage::kQueueWait);
    item.trace = std::move(trace);
  }
  if (!state->queue.Produce(std::move(item))) {
    if (rejected_queue_ != nullptr) rejected_queue_->Increment();
    if (ledger_ != nullptr) ledger_->ForTenant(client)->CountRejected();
    return Status::ResourceExhausted("IngestService: client queue full");
  }
  pending_.fetch_add(1, std::memory_order_relaxed);
  tasks_in_flight_.fetch_add(1, std::memory_order_relaxed);
  if (queue_depth_ != nullptr) queue_depth_->AddTracked(1);
  // One drain task per admitted item. A task that loses the race to an
  // earlier drainer finds the queue empty and returns — cheap, and it
  // avoids a scheduled-flag handshake with the producer.
  if (!pool_->Submit([this, state] {
        DrainClient(state);
        // Notify while holding the mutex: the destructor may destroy the
        // condition variable the moment the count hits zero, so the notify
        // must not outlive the critical section.
        std::lock_guard<std::mutex> lock(drain_wait_mutex_);
        tasks_in_flight_.fetch_sub(1, std::memory_order_relaxed);
        drained_cv_.notify_all();
      })) {
    // Pool is shutting down; the item stays queued but will never run.
    pending_.fetch_sub(1, std::memory_order_relaxed);
    tasks_in_flight_.fetch_sub(1, std::memory_order_relaxed);
    if (queue_depth_ != nullptr) queue_depth_->AddTracked(-1);
    return Status::FailedPrecondition("IngestService: executor shut down");
  }
  if (admitted_ != nullptr) admitted_->Increment();
  return Status::OK();
}

void IngestService::DrainClient(ClientState* state) {
  std::lock_guard<std::mutex> serialize(state->drain_mutex);
  std::vector<PendingItem> batch;
  while (state->queue.TryConsume(&batch)) {
    for (PendingItem& item : batch) {
      ProcessItem(state, std::move(item));
    }
    batch.clear();
  }
}

void IngestService::ProcessItem(ClientState* state, PendingItem item) {
  obs::Trace* trace = item.trace.has_value() ? &*item.trace : nullptr;
  if (trace != nullptr) trace->EndSpan(item.queue_span);
  obs::TenantLedger* tenant =
      ledger_ != nullptr ? ledger_->ForTenant(state->client) : nullptr;
  if (tenant != nullptr) {
    tenant->ChargeQueueMs(std::chrono::duration<double, std::milli>(
                              std::chrono::steady_clock::now() - item.enqueued)
                              .count());
    tenant->CountIngest();
  }
  obs::ScopedCpuCharge cpu_charge(tenant);
  ShardedCatalog::IngestIoStats io_stats;
  // One attempt: on the durable backend a fault after the commit is
  // durable fails the call, and a retry would store the recording twice.
  Result<GlobalSessionId> result = catalog_->Ingest(
      state->client, item.name, item.recording, trace, &io_stats);
  if (tenant != nullptr && io_stats.blocks_written > 0) {
    tenant->ChargeWrite(io_stats.blocks_written, io_stats.bytes_written);
  }
  if (trace != nullptr && tracer_ != nullptr) {
    tracer_->Record(std::move(*item.trace));
  }
  if (result.ok()) {
    if (completed_ != nullptr) completed_->Increment();
  } else {
    if (failed_ != nullptr) failed_->Increment();
  }
  if (queue_depth_ != nullptr) queue_depth_->AddTracked(-1);
  if (item.on_done) item.on_done(result);
  // Completion accounting last, so Drain() returning implies callbacks ran.
  {
    std::lock_guard<std::mutex> lock(drain_wait_mutex_);
    pending_.fetch_sub(1, std::memory_order_relaxed);
  }
  drained_cv_.notify_all();
}

void IngestService::Drain() {
  std::unique_lock<std::mutex> lock(drain_wait_mutex_);
  drained_cv_.wait(
      lock, [&] { return pending_.load(std::memory_order_relaxed) == 0; });
}

IngestService::~IngestService() {
  std::unique_lock<std::mutex> lock(drain_wait_mutex_);
  drained_cv_.wait(lock, [&] {
    return tasks_in_flight_.load(std::memory_order_relaxed) == 0;
  });
}

}  // namespace aims::server
