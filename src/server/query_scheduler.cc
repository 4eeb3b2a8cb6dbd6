#include "server/query_scheduler.h"

#include <algorithm>
#include <utility>

#include "common/macros.h"
#include "obs/json_util.h"
#include "server/continuous_agg.h"

namespace aims::server {

const char* QueryStateName(QueryState state) {
  switch (state) {
    case QueryState::kPending:
      return "Pending";
    case QueryState::kRunning:
      return "Running";
    case QueryState::kComplete:
      return "Complete";
    case QueryState::kPartialDeadline:
      return "PartialDeadline";
    case QueryState::kCancelled:
      return "Cancelled";
    case QueryState::kFailed:
      return "Failed";
  }
  return "Unknown";
}

std::string QueryRecordJson(const QueryRequest& request,
                            const QueryOutcome& outcome) {
  using obs::TrimmedDouble;
  std::string out = "{\"type\":\"query\"";
  out += ",\"request_id\":" + std::to_string(outcome.trace.request_id());
  out += ",\"tenant\":" + std::to_string(request.tenant);
  out += ",\"session\":" + std::to_string(request.session);
  out += ",\"channel\":" + std::to_string(request.channel);
  out += ",\"first_frame\":" + std::to_string(request.first_frame);
  out += ",\"last_frame\":" + std::to_string(request.last_frame);
  out += ",\"priority\":\"";
  out += request.priority == QueryPriority::kInteractive ? "interactive"
                                                         : "batch";
  out += "\",\"state\":\"";
  out += QueryStateName(outcome.state);
  out += "\"";
  const QueryAnswer& answer = outcome.answer;
  out += ",\"answer\":{\"sum\":" + TrimmedDouble(answer.sum);
  out += ",\"mean\":" + TrimmedDouble(answer.mean);
  out += ",\"count\":" + std::to_string(answer.count);
  out += ",\"error_bound\":" + TrimmedDouble(answer.error_bound);
  out += ",\"blocks_read\":" + std::to_string(answer.blocks_read);
  out += ",\"cache_hits\":" + std::to_string(answer.cache_hits);
  out += ",\"blocks_needed\":" + std::to_string(answer.blocks_needed) + "}";
  out += ",\"plan\":";
  out += outcome.plan.has_value() ? outcome.plan->ToJson() : "null";
  out += ",\"actuals\":";
  if (outcome.breakdown.has_value()) {
    const QueryBreakdown& b = *outcome.breakdown;
    out += "{\"admission_wait_ms\":" + TrimmedDouble(b.admission_wait_ms);
    out += ",\"shard_lock_wait_ms\":" + TrimmedDouble(b.shard_lock_wait_ms);
    out += ",\"refinement_ms\":" + TrimmedDouble(b.refinement_ms);
    out += ",\"exec_ms\":" + TrimmedDouble(b.exec_ms);
    out += ",\"total_ms\":" + TrimmedDouble(b.total_ms);
    out += ",\"blocks_read\":" + std::to_string(b.blocks_read);
    out += ",\"blocks_fetched\":" + std::to_string(b.blocks_fetched);
    out += ",\"cache_hits\":" + std::to_string(b.cache_hits);
    out += ",\"bytes_read\":" + std::to_string(b.bytes_read);
    out += ",\"predicted_blocks\":" + std::to_string(b.predicted_blocks);
    out += ",\"predicted_cold_blocks\":" +
           std::to_string(b.predicted_cold_blocks);
    out += ",\"reconciled\":";
    out += b.reconciled ? "true" : "false";
    out += ",\"error_bound_trajectory\":[";
    for (size_t i = 0; i < b.error_bound_trajectory.size(); ++i) {
      if (i > 0) out += ",";
      out += TrimmedDouble(b.error_bound_trajectory[i]);
    }
    out += "]}";
  } else {
    out += "null";
  }
  out += "}";
  return out;
}

QueryOutcome QueryTicket::Wait() const {
  std::unique_lock<std::mutex> lock(mutex_);
  // Holding mutex_ with done_ unset keeps the scheduler alive: Finish needs
  // this mutex to publish, and the scheduler drains every unfinished
  // ticket before it is destroyed.
  if (!done_) {
    if (QueryTicketPtr claimed = scheduler_->ClaimForCaller(this)) {
      lock.unlock();
      scheduler_->Execute(claimed);
      lock.lock();
    }
  }
  cv_.wait(lock, [&] { return done_; });
  return outcome_;
}

std::optional<QueryOutcome> QueryTicket::TryGet() const {
  std::lock_guard<std::mutex> lock(mutex_);
  if (!done_) return std::nullopt;
  return outcome_;
}

QueryScheduler::QueryScheduler(const ShardedCatalog* catalog, ThreadPool* pool,
                               SchedulerConfig config, obs::Tracer* tracer,
                               obs::MetricsRegistry* metrics,
                               obs::CostLedger* ledger,
                               obs::AsyncLogger* slow_log,
                               double slow_query_threshold_ms,
                               obs::FlightRecorder* recorder)
    : catalog_(catalog),
      pool_(pool),
      config_(config),
      tracer_(tracer),
      ledger_(ledger),
      slow_log_(slow_log),
      slow_query_threshold_ms_(slow_query_threshold_ms),
      recorder_(recorder) {
  AIMS_CHECK(catalog != nullptr && pool != nullptr);
  if (metrics != nullptr) {
    submitted_ = metrics->GetCounter("scheduler.submitted");
    rejected_ = metrics->GetCounter("scheduler.rejected");
    completed_ = metrics->GetCounter("scheduler.completed");
    partial_deadline_ = metrics->GetCounter("scheduler.partial_deadline");
    cancelled_ = metrics->GetCounter("scheduler.cancelled");
    failed_ = metrics->GetCounter("scheduler.failed");
    slow_queries_ = metrics->GetCounter("scheduler.slow_queries");
    dispatched_inline_ = metrics->GetCounter("scheduler.dispatched_inline");
    pending_gauge_ = metrics->GetGauge("scheduler.pending");
  }
}

QueryScheduler::~QueryScheduler() { Drain(); }

Result<QueryTicketPtr> QueryScheduler::Submit(QueryRequest request) {
  // With a tracer attached, ticket ids come from the server-wide request-id
  // source, so a query's trace never collides with an ingest or stream
  // trace in the exported timeline. Without one, ids are scheduler-local.
  const uint64_t id = tracer_ != nullptr
                          ? tracer_->NextRequestId()
                          : next_id_.fetch_add(1, std::memory_order_relaxed);
  QueryTicketPtr ticket(new QueryTicket(this, id, std::move(request)));
  const QueryRequest& req = ticket->request_;
  if (req.deadline_ms > 0.0) {
    ticket->deadline_ =
        std::chrono::steady_clock::now() +
        std::chrono::duration_cast<std::chrono::steady_clock::duration>(
            std::chrono::duration<double, std::milli>(req.deadline_ms));
  }
  ticket->trace_.set_label(
      std::string(req.priority == QueryPriority::kInteractive ? "interactive"
                                                              : "batch") +
      " range_query session=" + std::to_string(req.session) +
      " channel=" + std::to_string(req.channel));

  const bool interactive = req.priority == QueryPriority::kInteractive;
  {
    std::lock_guard<std::mutex> lock(queues_mutex_);
    std::deque<QueryTicketPtr>& lane = interactive ? interactive_ : batch_;
    const size_t cap = interactive ? config_.max_pending_interactive
                                   : kMaxPendingBatch;
    if (lane.size() >= cap) {
      if (rejected_ != nullptr) rejected_->Increment();
      if (ledger_ != nullptr) ledger_->ForTenant(req.tenant)->CountRejected();
      return Status::ResourceExhausted(
          "QueryScheduler::Submit: pending lane full");
    }
    lane.push_back(ticket);
  }
  in_flight_.fetch_add(1, std::memory_order_acq_rel);
  if (pending_gauge_ != nullptr) pending_gauge_->AddTracked(1);

  posted_.fetch_add(1, std::memory_order_acq_rel);
  if (!pool_->Submit([this] { RunOne(); })) {
    Retire(&posted_);
    // Executor shutting down: retract the admission if the ticket is still
    // queued. If a concurrent worker already claimed it, its own task will
    // carry it to completion and the submission stands.
    std::unique_lock<std::mutex> lock(queues_mutex_);
    std::deque<QueryTicketPtr>& lane = interactive ? interactive_ : batch_;
    auto it = std::find(lane.begin(), lane.end(), ticket);
    if (it != lane.end()) {
      lane.erase(it);
      lock.unlock();
      if (pending_gauge_ != nullptr) pending_gauge_->Add(-1);
      if (rejected_ != nullptr) rejected_->Increment();
      Retire(&in_flight_);
      return Status::FailedPrecondition(
          "QueryScheduler::Submit: executor shutting down");
    }
  }
  if (submitted_ != nullptr) submitted_->Increment();
  return ticket;
}

std::deque<QueryTicketPtr>* QueryScheduler::NextLaneLocked() {
  const bool prefer_batch =
      config_.batch_promotion_period > 0 &&
      (pop_counter_ + 1) % config_.batch_promotion_period == 0;
  std::deque<QueryTicketPtr>& first = prefer_batch ? batch_ : interactive_;
  std::deque<QueryTicketPtr>& second = prefer_batch ? interactive_ : batch_;
  if (!first.empty()) return &first;
  if (!second.empty()) return &second;
  return nullptr;
}

QueryTicketPtr QueryScheduler::PopNext() {
  std::lock_guard<std::mutex> lock(queues_mutex_);
  std::deque<QueryTicketPtr>* lane = NextLaneLocked();
  if (lane == nullptr) return nullptr;
  ++pop_counter_;
  QueryTicketPtr ticket = std::move(lane->front());
  lane->pop_front();
  return ticket;
}

QueryTicketPtr QueryScheduler::ClaimForCaller(const QueryTicket* ticket) {
  // A busy pool keeps the query queued: running it here would raise the
  // query concurrency the pool bounds.
  if (!pool_->HasIdleWorker()) return nullptr;
  QueryTicketPtr claimed;
  {
    std::lock_guard<std::mutex> lock(queues_mutex_);
    std::deque<QueryTicketPtr>* lane = NextLaneLocked();
    if (lane == nullptr || lane->front().get() != ticket) return nullptr;
    ++pop_counter_;
    claimed = std::move(lane->front());
    lane->pop_front();
  }
  if (dispatched_inline_ != nullptr) dispatched_inline_->Increment();
  return claimed;
}

void QueryScheduler::RunOne() {
  // Null when a waiting caller ran this task's ticket (and every other
  // queued one is taken), or when a failed Submit retracted it.
  if (QueryTicketPtr ticket = PopNext()) Execute(ticket);
  Retire(&posted_);
}

void QueryScheduler::Retire(std::atomic<size_t>* counter) {
  std::lock_guard<std::mutex> lock(drain_mutex_);
  if (counter->fetch_sub(1, std::memory_order_acq_rel) == 1) {
    drained_cv_.notify_all();
  }
}

void QueryScheduler::Execute(const QueryTicketPtr& ticket) {
  const QueryRequest& req = ticket->request_;
  obs::Trace& trace = ticket->trace_;

  QueryOutcome outcome;
  outcome.dispatch_index =
      dispatch_counter_.fetch_add(1, std::memory_order_acq_rel) + 1;

  // Resolve the tenant's ledger once; every charge below is lock-free.
  obs::TenantLedger* tenant =
      ledger_ != nullptr ? ledger_->ForTenant(req.tenant) : nullptr;

  // Root span covering the request from submission; every stage below
  // nests under it, so the Chrome export shows one tree per query.
  trace.BeginSpanAt(obs::Stage::kQuery, 0.0);
  const double admission_ms = trace.ElapsedMs();
  trace.AddSpan(obs::Stage::kAdmissionWait, 0.0, admission_ms);

  if (ticket->cancel_requested()) {
    // Cancelled while pending: release the executor slot without touching
    // the catalog at all.
    outcome.state = QueryState::kCancelled;
    outcome.status = Status::Cancelled("query cancelled before dispatch");
    Finish(ticket, std::move(outcome), nullptr, admission_ms);
    return;
  }
  ticket->state_.store(QueryState::kRunning, std::memory_order_release);

  if (tenant != nullptr) {
    tenant->ChargeQueueMs(admission_ms);
    tenant->CountQuery();
  }
  // From here on every Finish charges the tenant the wall time from
  // dispatch (admission_ms) to Finish's own clock read: the always-on CPU
  // charge costs no clock read of its own.

  // Continuous-aggregate short circuit: a registered standing query whose
  // exact range (and tenant) this request matches is answered from the
  // incrementally maintained result — complete, exact, zero block I/O, no
  // shard lock. EXPLAIN sees an aggregate_hit plan (every predicted count
  // 0, empty schedule); ANALYZE reconciles trivially (0 fetched == 0
  // predicted).
  if (aggregates_ != nullptr) {
    std::optional<AggregateResult> hit =
        aggregates_->Lookup(req.tenant, req.session, req.channel,
                            req.first_frame, req.last_frame);
    if (hit.has_value()) {
      outcome.state = QueryState::kComplete;
      outcome.answer.sum = hit->sum;
      outcome.answer.mean = hit->mean;
      outcome.answer.count = hit->count;
      if (req.explain != ExplainMode::kNone) {
        core::QueryPlan plan;
        plan.session = req.session;
        plan.channel = req.channel;
        plan.first_frame = req.first_frame;
        plan.last_frame = req.last_frame;
        plan.aggregate_hit = true;
        outcome.plan = std::move(plan);
      }
      if (req.explain == ExplainMode::kAnalyze) {
        QueryBreakdown breakdown;
        breakdown.admission_wait_ms = admission_ms;
        breakdown.reconciled = true;
        outcome.breakdown = std::move(breakdown);
      }
      Finish(ticket, std::move(outcome), tenant, admission_ms);
      return;
    }
  }

  if (req.explain != ExplainMode::kNone) {
    // The plan is deterministic and block-I/O free; for kAnalyze it is
    // computed before execution so the breakdown can reconcile against it.
    Result<core::QueryPlan> plan = catalog_->PlanRangeQuery(
        req.session, req.channel, req.first_frame, req.last_frame);
    if (!plan.ok()) {
      outcome.state = QueryState::kFailed;
      outcome.status = plan.status();
      Finish(ticket, std::move(outcome), tenant, admission_ms);
      return;
    }
    outcome.plan = std::move(*plan);
    if (req.explain == ExplainMode::kExplain) {
      // EXPLAIN without ANALYZE: the plan IS the answer. No evaluation, no
      // device reads; blocks_needed still tells the client what a run
      // would cost.
      outcome.state = QueryState::kComplete;
      outcome.answer.count = req.last_frame - req.first_frame + 1;
      outcome.answer.blocks_needed = outcome.plan->predicted_blocks;
      Finish(ticket, std::move(outcome), tenant, admission_ms);
      return;
    }
  }

  const double exec_start_ms = trace.ElapsedMs();
  constexpr size_t kNoSpan = static_cast<size_t>(-1);
  size_t lock_span = trace.BeginSpan(obs::Stage::kShardLock);
  size_t refine_span = kNoSpan;
  // The interval between observer callbacks is exactly one block fetch, so
  // each callback stamps the previous fetch as a closed block_io span.
  double io_start_ms = 0.0;
  double lock_acquired_ms = exec_start_ms;
  enum class StopReason { kNone, kCancel, kDeadline, kTarget };
  StopReason stop = StopReason::kNone;

  auto on_shard_locked = [&] {
    trace.EndSpan(lock_span);
    refine_span = trace.BeginSpan(obs::Stage::kRefinement);
    io_start_ms = trace.ElapsedMs();
    lock_acquired_ms = io_start_ms;
  };
  // Per-step capture so the failure path knows how many fetches (and of
  // those, cache hits) happened before the error — the result object never
  // materializes on that path.
  size_t observed_fetches = 0;
  size_t observed_hits = 0;
  auto observer =
      [&](const core::ProgressiveRangeStep& step) -> core::StepControl {
    const double now_ms = trace.ElapsedMs();
    trace.AddSpan(obs::Stage::kBlockIo, io_start_ms, now_ms);
    io_start_ms = now_ms;
    observed_fetches = step.blocks_read;
    observed_hits = step.cache_hits;
    if (ticket->cancel_requested()) {
      stop = StopReason::kCancel;
      return core::StepControl::kStop;
    }
    if (ticket->deadline_.has_value() &&
        std::chrono::steady_clock::now() >= *ticket->deadline_) {
      stop = StopReason::kDeadline;
      return core::StepControl::kStop;
    }
    if (req.target_error_bound > 0.0 &&
        step.sum_error_bound <= req.target_error_bound) {
      stop = StopReason::kTarget;
      return core::StepControl::kStop;
    }
    return core::StepControl::kContinue;
  };

  Result<core::ProgressiveRangeResult> result = catalog_->QueryRangeProgressive(
      req.session, req.channel, req.first_frame, req.last_frame, observer,
      on_shard_locked);

  if (refine_span != kNoSpan) trace.EndSpan(refine_span);
  trace.CloseOpenSpans();
  const double exec_end_ms = trace.ElapsedMs();

  if (!result.ok()) {
    // The originating StatusCode (NotFound, OutOfRange, IoError, ...)
    // rides through the outcome envelope unchanged.
    outcome.state = QueryState::kFailed;
    outcome.status = result.status();
    if (tenant != nullptr) {
      // The completed steps' cold reads hit the device and were charged
      // there; an IoError means one more read failed after seeking (the
      // device charges the failed access too), so bill it. Validation
      // failures (NotFound, OutOfRange) read nothing extra.
      size_t cold = observed_fetches - observed_hits;
      if (result.status().code() == StatusCode::kIoError) ++cold;
      if (cold > 0) {
        tenant->ChargeRead(cold, cold * catalog_->block_size_bytes());
      }
    }
    Finish(ticket, std::move(outcome), tenant, admission_ms);
    return;
  }

  const core::ProgressiveRangeResult& progressive = *result;
  QueryAnswer& answer = outcome.answer;
  answer.count = req.last_frame - req.first_frame + 1;
  answer.blocks_needed = progressive.total_blocks_needed;
  if (!progressive.steps.empty()) {
    const core::ProgressiveRangeStep& last = progressive.steps.back();
    answer.sum = last.sum_estimate;
    answer.mean = last.mean_estimate;
    answer.error_bound = last.sum_error_bound;
    answer.blocks_read = last.blocks_read;
    answer.cache_hits = last.cache_hits;
  }

  if (progressive.complete || stop == StopReason::kTarget) {
    outcome.state = QueryState::kComplete;
  } else if (stop == StopReason::kCancel) {
    outcome.state = QueryState::kCancelled;
    outcome.status = Status::Cancelled("query cancelled during evaluation");
  } else if (stop == StopReason::kDeadline) {
    // Deadline expiry is not an error: the partial answer plus its
    // guaranteed bound is the contract.
    outcome.state = QueryState::kPartialDeadline;
  } else {
    outcome.state = QueryState::kComplete;
  }

  // Per-stage breakdown for every executed evaluation: ANALYZE surfaces it
  // to the client, and the slow-query log needs the actuals either way.
  QueryBreakdown breakdown;
  breakdown.admission_wait_ms = admission_ms;
  breakdown.shard_lock_wait_ms = lock_acquired_ms - exec_start_ms;
  breakdown.refinement_ms = exec_end_ms - lock_acquired_ms;
  breakdown.exec_ms = exec_end_ms - exec_start_ms;
  // blocks_read is the COLD device-read count: total fetches minus the
  // fetches the block cache absorbed. With caching off they coincide.
  breakdown.blocks_fetched = answer.blocks_read;
  breakdown.cache_hits = answer.cache_hits;
  breakdown.blocks_read = answer.blocks_read - answer.cache_hits;
  breakdown.bytes_read = breakdown.blocks_read * catalog_->block_size_bytes();
  breakdown.error_bound_trajectory.reserve(progressive.steps.size());
  for (const core::ProgressiveRangeStep& step : progressive.steps) {
    breakdown.error_bound_trajectory.push_back(step.sum_error_bound);
  }
  if (outcome.plan.has_value()) {
    breakdown.predicted_blocks = outcome.plan->predicted_blocks;
    breakdown.predicted_cold_blocks = outcome.plan->predicted_cold_blocks;
    // A complete evaluation must touch exactly the planned blocks — the
    // plan and the execution walk the same deterministic schedule — and its
    // cold reads must match the plan's residency-based prediction exactly
    // (residency only grows under the shard lock, and only with blocks
    // from this very schedule).
    breakdown.reconciled =
        progressive.complete &&
        breakdown.blocks_fetched == breakdown.predicted_blocks &&
        breakdown.blocks_read == breakdown.predicted_cold_blocks;
  }
  outcome.breakdown = std::move(breakdown);

  if (tenant != nullptr) {
    // Hits cost CPU (covered by Finish's CPU charge), not I/O:
    // only cold reads reach the tenant's I/O ledger.
    const size_t cold = answer.blocks_read - answer.cache_hits;
    tenant->ChargeRead(cold, cold * catalog_->block_size_bytes());
  }
  Finish(ticket, std::move(outcome), tenant, admission_ms);
}

void QueryScheduler::Finish(const QueryTicketPtr& ticket,
                            QueryOutcome outcome, obs::TenantLedger* tenant,
                            double dispatch_ms) {
  const double total_ms = ticket->trace_.ElapsedMs();
  if (tenant != nullptr && total_ms > dispatch_ms) {
    tenant->ChargeCpuNs(static_cast<uint64_t>((total_ms - dispatch_ms) * 1e6));
  }
  if (outcome.breakdown.has_value()) outcome.breakdown->total_ms = total_ms;
  switch (outcome.state) {
    case QueryState::kComplete:
      if (completed_ != nullptr) completed_->Increment();
      break;
    case QueryState::kPartialDeadline:
      if (partial_deadline_ != nullptr) partial_deadline_->Increment();
      break;
    case QueryState::kCancelled:
      if (cancelled_ != nullptr) cancelled_->Increment();
      break;
    case QueryState::kFailed:
      if (failed_ != nullptr) failed_->Increment();
      break;
    default:
      break;
  }
  ticket->trace_.CloseOpenSpans();
  // The outcome takes the ticket's trace (nothing reads it after this) and
  // the tracer a copy: a copy's span vector is sized to fit, and the ring
  // may retain it for a long time.
  outcome.trace = std::move(ticket->trace_);
  if (tracer_ != nullptr) tracer_->Record(outcome.trace);

  if (slow_query_threshold_ms_ > 0.0 && total_ms >= slow_query_threshold_ms_) {
    if (slow_queries_ != nullptr) slow_queries_->Increment();
    if (ledger_ != nullptr) {
      ledger_->ForTenant(ticket->request_.tenant)->CountSlowQuery();
    }
    if (slow_log_ != nullptr || recorder_ != nullptr) {
      std::string record = QueryRecordJson(ticket->request_, outcome);
      // The black box keeps its own bounded copy: it survives into the
      // post-mortem bundle after the log's sink is gone.
      if (recorder_ != nullptr) recorder_->RecordSlowQuery(record);
      // Log() never blocks: under overload the record is dropped and the
      // logger's drop counter ticks instead.
      if (slow_log_ != nullptr) slow_log_->Log(std::move(record));
    }
  }

  ticket->state_.store(outcome.state, std::memory_order_release);
  {
    std::lock_guard<std::mutex> lock(ticket->mutex_);
    ticket->outcome_ = std::move(outcome);
    ticket->done_ = true;
  }
  ticket->cv_.notify_all();

  if (pending_gauge_ != nullptr) pending_gauge_->Add(-1);
  Retire(&in_flight_);
}

void QueryScheduler::Drain() {
  std::unique_lock<std::mutex> lock(drain_mutex_);
  drained_cv_.wait(lock, [&] {
    return in_flight_.load(std::memory_order_acquire) == 0 &&
           posted_.load(std::memory_order_acquire) == 0;
  });
}

}  // namespace aims::server
