#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <optional>

#include "common/status.h"
#include "core/aims.h"
#include "obs/cost_ledger.h"
#include "obs/flight_recorder.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/tracer.h"
#include "server/sharded_catalog.h"
#include "server/thread_pool.h"

/// \file query_scheduler.h
/// \brief Deadline-aware scheduling of progressive offline queries — the
/// service-level realization of the paper's central promise that range
/// statistics are answered approximately first and refined as more wavelet
/// coefficients arrive. A client submits a typed QueryRequest and gets a
/// QueryTicket back immediately; the query executes on the shared
/// ThreadPool via the block-granular progressive evaluator, and three
/// properties hold that a blocking run-to-completion API cannot offer:
///
///   * deadlines: a query whose deadline expires mid-evaluation returns
///     its best partial answer with the current guaranteed error bound
///     instead of failing — more deadline buys a tighter bound;
///   * cancellation: a cancelled query stops at the next block-I/O
///     boundary, releasing its executor slot and its shard read lock
///     promptly (a cancelled query that never started does zero I/O);
///   * priority admission: interactive and batch lanes with bounded
///     pending queues that reject (ResourceExhausted) rather than block,
///     and a promotion rule that keeps the batch lane starvation-free
///     under sustained interactive load.
///
/// A query runs on whichever thread dispatches it first: a pool worker,
/// or the caller blocked in QueryTicket::Wait when the pool has an idle
/// worker and the ticket is next in dispatch order (it would have started
/// at once anyway, so the cross-thread hop buys nothing).
///
/// Every request carries a Trace decomposing its latency into spans
/// (admission wait, shard lock, each block I/O, the refinement loop),
/// recorded into the server's Tracer on completion.

namespace aims::server {

class ContinuousAggregateRegistry;
class QueryScheduler;

/// \brief Admission lane of a query.
enum class QueryPriority {
  kInteractive,  ///< Latency-sensitive; dispatched first.
  kBatch,        ///< Throughput work; served by the promotion rule.
};

/// \brief Introspection mode of a query (EXPLAIN / EXPLAIN ANALYZE).
enum class ExplainMode {
  kNone,     ///< Execute normally; no plan attached.
  kExplain,  ///< Return the plan only — zero block I/O, no evaluation.
  kAnalyze,  ///< Execute AND attach plan + per-stage actuals, reconciled.
};

/// \brief A typed range-statistics query over one stored channel.
struct QueryRequest {
  GlobalSessionId session = 0;
  size_t channel = 0;
  size_t first_frame = 0;
  size_t last_frame = 0;
  QueryPriority priority = QueryPriority::kInteractive;
  /// Wall-clock budget measured from submission; 0 disables the deadline.
  /// On expiry the query returns its best partial answer, never an error.
  double deadline_ms = 0.0;
  /// Stop refining once the guaranteed sum error bound is at or below this
  /// value (0 = run to exactness). A query stopped this way is complete:
  /// it delivered the accuracy that was asked for.
  double target_error_bound = 0.0;
  /// EXPLAIN/ANALYZE: kExplain returns QueryOutcome::plan without touching
  /// a block; kAnalyze executes and attaches plan + breakdown, reconciled.
  ExplainMode explain = ExplainMode::kNone;
  /// Tenant charged for this query's costs (set by AimsServer::SubmitQuery
  /// from the requesting client; 0 when submitted directly to the
  /// scheduler without a tenant).
  ClientId tenant = 0;
};

/// \brief Terminal (and transient) states of a scheduled query.
enum class QueryState {
  kPending,          ///< Admitted, waiting for an executor slot.
  kRunning,          ///< Evaluating (on a pool worker or the caller).
  kComplete,         ///< Exact, or reached the requested error bound.
  kPartialDeadline,  ///< Deadline expired; best partial answer returned.
  kCancelled,        ///< Cancelled before or during evaluation.
  kFailed,           ///< Evaluation failed; see QueryOutcome::status.
};

/// \brief Human-readable state name (e.g. "PartialDeadline").
const char* QueryStateName(QueryState state);

/// \brief The (possibly partial) answer of a scheduled query.
struct QueryAnswer {
  double sum = 0.0;
  double mean = 0.0;
  size_t count = 0;
  /// Guaranteed bound on |sum - exact sum|; 0 when exact.
  double error_bound = 0.0;
  /// Refinement steps taken (block fetches — cache hits included, so this
  /// matches the evaluation's trajectory length regardless of residency).
  size_t blocks_read = 0;
  /// Of blocks_read, fetches served by the block cache (no device I/O).
  size_t cache_hits = 0;
  /// Blocks a run-to-exactness evaluation would read.
  size_t blocks_needed = 0;
};

/// \brief Actual per-stage breakdown of one executed query — the ANALYZE
/// side, reconciled against the plan's prediction. Times come from the
/// same measurements the trace spans record.
struct QueryBreakdown {
  /// Submission to dispatch (time spent in the admission lane).
  double admission_wait_ms = 0.0;
  /// Waiting on the shard's shared lock.
  double shard_lock_wait_ms = 0.0;
  /// The whole progressive refinement loop (all block I/O included).
  double refinement_ms = 0.0;
  /// Dispatch to evaluation end (lock wait + refinement).
  double exec_ms = 0.0;
  /// Submission to completion.
  double total_ms = 0.0;
  /// Cold device reads — block fetches the cache could not serve (equal to
  /// blocks_fetched when caching is off). This is what the tenant's ledger
  /// is charged for.
  size_t blocks_read = 0;
  /// Total refinement steps (cold reads + cache hits).
  size_t blocks_fetched = 0;
  /// Of blocks_fetched, fetches served by the block cache.
  size_t cache_hits = 0;
  /// blocks_read * the catalog's block size — bytes moved off the device.
  size_t bytes_read = 0;
  /// The plan's predicted block count (0 when no plan was computed).
  size_t predicted_blocks = 0;
  /// The plan's predicted cold (device-read) block count.
  size_t predicted_cold_blocks = 0;
  /// True when a plan was computed, the query ran to completion,
  /// blocks_fetched == predicted_blocks, AND blocks_read ==
  /// predicted_cold_blocks — the cache-aware EXPLAIN/ANALYZE contract.
  bool reconciled = false;
  /// Guaranteed sum error bound after each refinement step.
  std::vector<double> error_bound_trajectory;
};

/// \brief Everything a finished query reports back.
struct QueryOutcome {
  QueryState state = QueryState::kPending;
  /// OK for kComplete and kPartialDeadline (a partial answer is a success);
  /// Cancelled for kCancelled; the evaluation error for kFailed, with the
  /// originating StatusCode preserved end to end.
  Status status;
  /// Valid whenever at least one refinement step ran (blocks_read > 0) and
  /// always for kComplete.
  QueryAnswer answer;
  /// Global dispatch sequence number (1-based); diagnostic, and the
  /// starvation-freedom tests' witness.
  uint64_t dispatch_index = 0;
  /// Span decomposition of this request's latency.
  obs::Trace trace;
  /// The predicted plan (engaged for kExplain and kAnalyze requests).
  std::optional<core::QueryPlan> plan;
  /// Actual per-stage breakdown (engaged for every executed evaluation;
  /// absent for kExplain-only and for queries cancelled before dispatch).
  std::optional<QueryBreakdown> breakdown;
};

/// \brief One self-describing JSON record of a finished query: request
/// identity, state, the plan (null unless EXPLAIN/ANALYZE), and the
/// actuals (null unless executed). The slow-query log emits exactly this;
/// the EXPLAIN ANALYZE golden test pins its schema.
std::string QueryRecordJson(const QueryRequest& request,
                            const QueryOutcome& outcome);

/// \brief Shared handle to one submitted query. Cheap to copy (shared_ptr
/// wrapped), safe to poll/cancel/wait from any thread.
class QueryTicket {
 public:
  uint64_t id() const { return id_; }
  const QueryRequest& request() const { return request_; }
  QueryState state() const { return state_.load(std::memory_order_acquire); }
  bool done() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return done_;
  }

  /// \brief Requests cancellation (idempotent, never blocks). A pending
  /// query finishes kCancelled without touching the catalog; a running one
  /// stops at the next block-I/O boundary.
  void Cancel() { cancel_requested_.store(true, std::memory_order_release); }
  bool cancel_requested() const {
    return cancel_requested_.load(std::memory_order_acquire);
  }

  /// \brief Blocks until the query reaches a terminal state. When the
  /// ticket is still queued, is the next one the scheduler would dispatch,
  /// and a pool worker is idle, the query runs here on the calling thread
  /// instead (same evaluation, same contracts) — counted in
  /// scheduler.dispatched_inline.
  QueryOutcome Wait() const;

  /// \brief The outcome if the query already finished, else nullopt.
  std::optional<QueryOutcome> TryGet() const;

 private:
  friend class QueryScheduler;
  QueryTicket(QueryScheduler* scheduler, uint64_t id, QueryRequest request)
      : scheduler_(scheduler),
        id_(id),
        request_(std::move(request)),
        trace_(id) {}

  /// Alive while the ticket is unfinished: the scheduler drains every
  /// admitted ticket before it is destroyed.
  QueryScheduler* const scheduler_;
  const uint64_t id_;
  const QueryRequest request_;
  /// Absolute deadline derived from deadline_ms at submission.
  std::optional<std::chrono::steady_clock::time_point> deadline_;
  std::atomic<QueryState> state_{QueryState::kPending};
  std::atomic<bool> cancel_requested_{false};
  /// Built by the dispatching worker; epoch = submission time.
  obs::Trace trace_;

  mutable std::mutex mutex_;
  mutable std::condition_variable cv_;
  bool done_ = false;
  QueryOutcome outcome_;
};

using QueryTicketPtr = std::shared_ptr<QueryTicket>;

/// \brief Admission and fairness policy.
struct SchedulerConfig {
  /// Bounded pending interactive lane (the batch lane holds
  /// QueryScheduler::kMaxPendingBatch); a full lane rejects with
  /// ResourceExhausted.
  size_t max_pending_interactive = 64;
  /// Every Nth dispatch serves the batch lane first (0 disables the rule),
  /// so batch queries are dispatched within N slots of admission even
  /// under a saturating interactive stream.
  size_t batch_promotion_period = 4;
};

/// \brief Asynchronous executor of progressive queries over the catalog.
///
/// Thread-safe. Submit never blocks; results are delivered through the
/// ticket. Exposes (when given a registry):
///   scheduler.submitted / rejected / completed / partial_deadline /
///   cancelled / failed / dispatched_inline (counters), scheduler.pending
///   (gauge with high-water mark). A query's latencies are its trace's
///   spans, which the tracer observes in its span.<stage>_ms histograms.
class QueryScheduler {
 public:
  /// Bound of the batch lane's pending queue.
  static constexpr size_t kMaxPendingBatch = 256;

  /// \param catalog query target (not owned).
  /// \param pool shared executor (not owned).
  /// \param tracer optional span sink (may be null).
  /// \param metrics optional registry (may be null).
  /// \param ledger optional per-tenant cost ledger (may be null): each
  /// query charges its tenant's queue wait, evaluation time, and block
  /// reads.
  /// \param slow_log optional slow-query sink (may be null).
  /// \param slow_query_threshold_ms queries slower than this end to end
  /// are counted in scheduler.slow_queries and emitted (plan + actuals) to
  /// \p slow_log; 0 disables the slow-query path entirely.
  /// \param recorder optional flight recorder (may be null): slow-query
  /// records also land in its bounded ring, so the post-mortem bundle
  /// carries the most recent offenders even when the async log's sink is
  /// long gone.
  /// \param aggregates optional continuous-aggregate registry (may be
  /// null), consulted at the top of every execution: a query whose
  /// (tenant, session, channel, range) exactly matches a maintained
  /// aggregate completes from the registered result with ZERO block I/O —
  /// EXPLAIN shows an aggregate_hit plan and ANALYZE reconciles trivially.
  QueryScheduler(const ShardedCatalog* catalog, ThreadPool* pool,
                 SchedulerConfig config = {}, obs::Tracer* tracer = nullptr,
                 obs::MetricsRegistry* metrics = nullptr,
                 obs::CostLedger* ledger = nullptr,
                 obs::AsyncLogger* slow_log = nullptr,
                 double slow_query_threshold_ms = 0.0,
                 obs::FlightRecorder* recorder = nullptr,
                 const ContinuousAggregateRegistry* aggregates = nullptr);

  /// Waits for every admitted query to finish and every posted pool task
  /// to return (the pool must still be running or already drained).
  ~QueryScheduler();

  QueryScheduler(const QueryScheduler&) = delete;
  QueryScheduler& operator=(const QueryScheduler&) = delete;

  /// \brief Admits a query. Returns the ticket, ResourceExhausted when the
  /// lane is full, FailedPrecondition when the executor is shutting down.
  /// Never blocks.
  Result<QueryTicketPtr> Submit(QueryRequest request);

  /// \brief Blocks until every admitted query has finished and every pool
  /// task Submit posted has returned (a task whose ticket a waiting caller
  /// ran still holds a pointer to this scheduler). Call before tearing
  /// down the catalog or the pool.
  void Drain();

  /// Admitted-but-unfinished count.
  size_t pending() const {
    return in_flight_.load(std::memory_order_relaxed);
  }

  const SchedulerConfig& config() const { return config_; }

 private:
  friend class QueryTicket;

  /// The pool task Submit posts once per admitted ticket: dispatches the
  /// next queued ticket, if a waiting caller has not taken it already.
  void RunOne();
  QueryTicketPtr PopNext();
  /// The lane the next dispatch pops from (null when both are empty).
  /// Requires queues_mutex_.
  std::deque<QueryTicketPtr>* NextLaneLocked();
  /// Dispatches \p ticket to its waiting caller: succeeds only when a pool
  /// worker is idle and \p ticket is the one PopNext would return next,
  /// which the claim then counts as a pop. Null otherwise.
  QueryTicketPtr ClaimForCaller(const QueryTicket* ticket);
  void Execute(const QueryTicketPtr& ticket);
  /// Publishes \p outcome, first charging a non-null \p tenant the wall
  /// time from \p dispatch_ms (on the ticket's trace clock) to now as the
  /// query's CPU.
  void Finish(const QueryTicketPtr& ticket, QueryOutcome outcome,
              obs::TenantLedger* tenant, double dispatch_ms);
  /// Decrements one of Drain's counters under drain_mutex_, so Drain can
  /// never return (and the scheduler be destroyed) between the decrement
  /// and the notify.
  void Retire(std::atomic<size_t>* counter);

  const ShardedCatalog* catalog_;
  ThreadPool* pool_;
  const ContinuousAggregateRegistry* aggregates_;
  SchedulerConfig config_;
  obs::Tracer* tracer_;
  obs::CostLedger* ledger_;
  obs::AsyncLogger* slow_log_;
  double slow_query_threshold_ms_;
  obs::FlightRecorder* recorder_;

  mutable std::mutex queues_mutex_;
  std::deque<QueryTicketPtr> interactive_;
  std::deque<QueryTicketPtr> batch_;
  uint64_t pop_counter_ = 0;

  std::atomic<uint64_t> next_id_{1};
  std::atomic<uint64_t> dispatch_counter_{0};
  /// Admitted queries not yet finished; the destructor blocks on zero.
  std::atomic<size_t> in_flight_{0};
  /// RunOne tasks posted to the pool and not yet returned; the destructor
  /// blocks on zero too.
  std::atomic<size_t> posted_{0};
  std::mutex drain_mutex_;
  std::condition_variable drained_cv_;

  obs::Counter* submitted_ = nullptr;
  obs::Counter* rejected_ = nullptr;
  obs::Counter* completed_ = nullptr;
  obs::Counter* partial_deadline_ = nullptr;
  obs::Counter* cancelled_ = nullptr;
  obs::Counter* failed_ = nullptr;
  obs::Counter* slow_queries_ = nullptr;
  obs::Counter* dispatched_inline_ = nullptr;
  obs::Gauge* pending_gauge_ = nullptr;
};

}  // namespace aims::server
