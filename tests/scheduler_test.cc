#include <atomic>
#include <chrono>
#include <cmath>
#include <future>
#include <memory>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/macros.h"
#include "obs/tracer.h"
#include "server/query_scheduler.h"
#include "server/server.h"
#include "server/sharded_catalog.h"
#include "server/thread_pool.h"

/// \file scheduler_test.cc
/// \brief The QueryScheduler contracts: deadline expiry yields a partial
/// answer whose guaranteed bound tightens with larger deadlines,
/// cancellation stops work at the next block-I/O boundary (a never-started
/// query does zero I/O), the two priority lanes are starvation-free under
/// the promotion rule, full lanes reject instead of blocking, every
/// request carries a span trace, and StatusCodes round-trip unchanged
/// through the typed façade. Run with -DAIMS_SANITIZE=thread to check the
/// concurrent submit/cancel schedule space for data races.

namespace aims::server {
namespace {

/// Deterministic multi-channel recording; distinct per \p base.
streams::Recording MakeRecording(size_t frames, size_t channels, double base) {
  streams::Recording rec;
  rec.sample_rate_hz = 100.0;
  for (size_t f = 0; f < frames; ++f) {
    streams::Frame frame;
    frame.timestamp = static_cast<double>(f) / 100.0;
    frame.values.resize(channels);
    for (size_t c = 0; c < channels; ++c) {
      frame.values[c] =
          base + std::sin(0.1 * static_cast<double>(f * (c + 1)));
    }
    rec.Append(std::move(frame));
  }
  return rec;
}

double ChannelSum(const streams::Recording& rec, size_t channel, size_t first,
                  size_t last) {
  double sum = 0.0;
  for (size_t f = first; f <= last; ++f) sum += rec.frames[f].values[channel];
  return sum;
}

/// 64-byte blocks => 8 doubles per block, so a misaligned range query's
/// O(lg n) lazy-transform coefficients land in many subtree tiles and the
/// progressive evaluator takes many observable steps.
core::AimsConfig SmallBlockConfig(double seek_ms = 0.0) {
  core::AimsConfig config;
  config.block_size_bytes = 64;
  if (seek_ms > 0.0) {
    config.disk_cost.seek_ms = seek_ms;
    config.disk_cost.transfer_ms_per_kb = 0.0;
    config.disk_cost.simulate_io_wait = true;
  }
  return config;
}

/// A deliberately misaligned range: a full dyadic range collapses to a
/// single scaling coefficient (one block, one step), while ragged edges
/// spread nonzero query coefficients across every resolution level.
QueryRequest MakeQuery(GlobalSessionId session, size_t frames,
                       size_t channel = 0) {
  QueryRequest query;
  query.session = session;
  query.channel = channel;
  query.first_frame = 7;
  query.last_frame = frames - 10;
  return query;
}

/// Scheduler harness over a one-session catalog.
struct Harness {
  explicit Harness(core::AimsConfig config, size_t threads = 2,
                   SchedulerConfig scheduler_config = {})
      : catalog(1, config, &metrics),
        pool(threads),
        scheduler(&catalog, &pool, scheduler_config, &tracer, &metrics) {}

  GlobalSessionId Store(const streams::Recording& rec) {
    auto id = catalog.Ingest(0, "test", rec);
    AIMS_CHECK(id.ok());
    return id.ValueOrDie();
  }

  obs::MetricsRegistry metrics;
  obs::Tracer tracer;
  ShardedCatalog catalog;
  ThreadPool pool;
  QueryScheduler scheduler;
};

/// Parks one pool worker until the returned promise is fulfilled — lets a
/// test control exactly when queued queries start dispatching.
std::shared_ptr<std::promise<void>> BlockWorker(ThreadPool* pool) {
  auto gate = std::make_shared<std::promise<void>>();
  auto parked = std::make_shared<std::promise<void>>();
  std::future<void> parked_future = parked->get_future();
  AIMS_CHECK(pool->Submit([gate, parked] {
    parked->set_value();
    gate->get_future().wait();
  }));
  parked_future.wait();  // the worker is definitely occupied now
  return gate;
}

TEST(QuerySchedulerTest, CompleteQueryMatchesExactAndTraces) {
  Harness h(SmallBlockConfig());
  streams::Recording rec = MakeRecording(256, 2, 10.0);
  GlobalSessionId id = h.Store(rec);

  QueryRequest query = MakeQuery(id, rec.num_frames(), 1);
  auto ticket = h.scheduler.Submit(query);
  ASSERT_TRUE(ticket.ok());
  QueryOutcome outcome = ticket.ValueOrDie()->Wait();

  const double exact = ChannelSum(rec, 1, query.first_frame, query.last_frame);
  EXPECT_EQ(outcome.state, QueryState::kComplete);
  EXPECT_TRUE(outcome.status.ok());
  EXPECT_NEAR(outcome.answer.sum, exact, 1e-6 * std::fabs(exact));
  EXPECT_EQ(outcome.answer.error_bound, 0.0);
  EXPECT_EQ(outcome.answer.count,
            query.last_frame - query.first_frame + 1);
  EXPECT_EQ(outcome.answer.blocks_read, outcome.answer.blocks_needed);
  EXPECT_GT(outcome.answer.blocks_needed, 4u);

  // Every request decomposes into at least admission_wait, shard_lock, and
  // one block_io span (plus the refinement parent), all closed.
  EXPECT_GE(outcome.trace.spans().size(), 3u);
  size_t admission = 0, lock = 0, refine = 0, io = 0;
  for (const obs::TraceSpan& span : outcome.trace.spans()) {
    EXPECT_GE(span.end_ms, span.start_ms);
    if (span.name == "admission_wait") ++admission;
    if (span.name == "shard_lock") ++lock;
    if (span.name == "refinement") ++refine;
    if (span.name == "block_io") ++io;
  }
  EXPECT_EQ(admission, 1u);
  EXPECT_EQ(lock, 1u);
  EXPECT_EQ(refine, 1u);
  EXPECT_EQ(io, outcome.answer.blocks_read);

  // The trace also landed in the server-wide tracer.
  EXPECT_EQ(h.tracer.total_recorded(), 1u);
  EXPECT_EQ(h.tracer.Snapshot().back().request_id(),
            ticket.ValueOrDie()->id());
}

TEST(QuerySchedulerTest, DeadlineExpiryReturnsBoundedPartialAnswer) {
  // 9 blocks at 8 ms each (~72 ms total): a 10 ms deadline cannot finish.
  Harness h(SmallBlockConfig(/*seek_ms=*/8.0));
  streams::Recording rec = MakeRecording(512, 1, 5.0);
  GlobalSessionId id = h.Store(rec);

  QueryRequest query = MakeQuery(id, rec.num_frames());
  query.deadline_ms = 10.0;
  auto ticket = h.scheduler.Submit(query);
  ASSERT_TRUE(ticket.ok());
  QueryOutcome outcome = ticket.ValueOrDie()->Wait();

  EXPECT_EQ(outcome.state, QueryState::kPartialDeadline);
  EXPECT_TRUE(outcome.status.ok()) << outcome.status.ToString();
  EXPECT_GT(outcome.answer.blocks_read, 0u);
  EXPECT_LT(outcome.answer.blocks_read, outcome.answer.blocks_needed);
  EXPECT_GT(outcome.answer.error_bound, 0.0);
  // The guarantee the partial answer ships with actually holds.
  EXPECT_LE(std::fabs(outcome.answer.sum -
                      ChannelSum(rec, 0, query.first_frame, query.last_frame)),
            outcome.answer.error_bound + 1e-9);
}

TEST(QuerySchedulerTest, LargerDeadlineRefinesFurther) {
  Harness h(SmallBlockConfig(/*seek_ms=*/4.0));
  streams::Recording rec = MakeRecording(512, 1, 5.0);
  GlobalSessionId id = h.Store(rec);

  auto run = [&](double deadline_ms) {
    QueryRequest query = MakeQuery(id, rec.num_frames());
    query.deadline_ms = deadline_ms;
    auto ticket = h.scheduler.Submit(query);
    AIMS_CHECK(ticket.ok());
    return ticket.ValueOrDie()->Wait();
  };
  QueryOutcome tight = run(8.0);
  QueryOutcome loose = run(80.0);
  QueryOutcome unbounded = run(0.0);

  // More deadline => at least as many blocks => an error bound at least as
  // tight (greedy best-first refinement is monotone in blocks read).
  EXPECT_LE(tight.answer.blocks_read, loose.answer.blocks_read);
  EXPECT_GE(tight.answer.error_bound, loose.answer.error_bound);
  EXPECT_EQ(unbounded.state, QueryState::kComplete);
  EXPECT_EQ(unbounded.answer.error_bound, 0.0);
}

TEST(QuerySchedulerTest, TargetErrorBoundStopsEarlyAsComplete) {
  Harness h(SmallBlockConfig());
  streams::Recording rec = MakeRecording(512, 1, 5.0);
  GlobalSessionId id = h.Store(rec);

  // Learn a mid-refinement bound from a full run, then ask only for it.
  QueryRequest probe = MakeQuery(id, rec.num_frames());
  auto full = h.scheduler.Submit(probe);
  ASSERT_TRUE(full.ok());
  QueryOutcome exact = full.ValueOrDie()->Wait();
  ASSERT_EQ(exact.state, QueryState::kComplete);
  auto progressive = h.catalog.QueryRangeProgressive(
      id, 0, probe.first_frame, probe.last_frame);
  ASSERT_TRUE(progressive.ok());
  const auto& steps = progressive.ValueOrDie().steps;
  ASSERT_GT(steps.size(), 4u);
  double target = steps[steps.size() / 2].sum_error_bound;
  ASSERT_GT(target, 0.0);

  QueryRequest query = MakeQuery(id, rec.num_frames());
  query.target_error_bound = target;
  auto ticket = h.scheduler.Submit(query);
  ASSERT_TRUE(ticket.ok());
  QueryOutcome outcome = ticket.ValueOrDie()->Wait();

  // Delivering the requested accuracy counts as completion, and the
  // scheduler read fewer blocks to get there.
  EXPECT_EQ(outcome.state, QueryState::kComplete);
  EXPECT_LE(outcome.answer.error_bound, target);
  EXPECT_LT(outcome.answer.blocks_read, outcome.answer.blocks_needed);
}

TEST(QuerySchedulerTest, CancelWhilePendingDoesZeroIo) {
  Harness h(SmallBlockConfig(), /*threads=*/1);
  streams::Recording rec = MakeRecording(256, 1, 5.0);
  GlobalSessionId id = h.Store(rec);
  size_t reads_before = h.catalog.total_blocks_read();

  auto gate = BlockWorker(&h.pool);
  auto ticket = h.scheduler.Submit(MakeQuery(id, rec.num_frames()));
  ASSERT_TRUE(ticket.ok());
  ticket.ValueOrDie()->Cancel();
  gate->set_value();
  QueryOutcome outcome = ticket.ValueOrDie()->Wait();

  EXPECT_EQ(outcome.state, QueryState::kCancelled);
  EXPECT_EQ(outcome.status.code(), StatusCode::kCancelled);
  EXPECT_EQ(outcome.answer.blocks_read, 0u);
  EXPECT_EQ(h.catalog.total_blocks_read(), reads_before);
}

TEST(QuerySchedulerTest, CancelDuringBlockIoStopsPromptly) {
  // Each of the 9 blocks costs 8 ms of simulated I/O (~72 ms total); the
  // 20 ms sleep lands the cancel mid-refinement.
  Harness h(SmallBlockConfig(/*seek_ms=*/8.0));
  streams::Recording rec = MakeRecording(512, 1, 5.0);
  GlobalSessionId id = h.Store(rec);

  auto ticket = h.scheduler.Submit(MakeQuery(id, rec.num_frames()));
  ASSERT_TRUE(ticket.ok());
  // Let a few block reads happen, then cancel mid-evaluation.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  auto cancel_at = std::chrono::steady_clock::now();
  ticket.ValueOrDie()->Cancel();
  QueryOutcome outcome = ticket.ValueOrDie()->Wait();
  double cancel_to_done_ms =
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - cancel_at)
          .count();

  EXPECT_EQ(outcome.state, QueryState::kCancelled);
  EXPECT_EQ(outcome.status.code(), StatusCode::kCancelled);
  EXPECT_LT(outcome.answer.blocks_read, outcome.answer.blocks_needed);
  // Promptness: one in-flight block read at most, not the query's tail
  // (generous margin for slow CI).
  EXPECT_LT(cancel_to_done_ms, 150.0);
}

TEST(QuerySchedulerTest, InteractiveDispatchesBeforeQueuedBatch) {
  Harness h(SmallBlockConfig(), /*threads=*/1);
  streams::Recording rec = MakeRecording(128, 1, 5.0);
  GlobalSessionId id = h.Store(rec);

  auto gate = BlockWorker(&h.pool);
  QueryRequest batch = MakeQuery(id, rec.num_frames());
  batch.priority = QueryPriority::kBatch;
  auto batch_ticket = h.scheduler.Submit(batch);
  auto interactive_ticket =
      h.scheduler.Submit(MakeQuery(id, rec.num_frames()));
  ASSERT_TRUE(batch_ticket.ok());
  ASSERT_TRUE(interactive_ticket.ok());
  gate->set_value();

  QueryOutcome batch_outcome = batch_ticket.ValueOrDie()->Wait();
  QueryOutcome interactive_outcome = interactive_ticket.ValueOrDie()->Wait();
  // Submitted after, dispatched first.
  EXPECT_LT(interactive_outcome.dispatch_index,
            batch_outcome.dispatch_index);
}

TEST(QuerySchedulerTest, BatchLaneIsNotStarved) {
  SchedulerConfig config;
  config.batch_promotion_period = 3;
  Harness h(SmallBlockConfig(), /*threads=*/1, config);
  streams::Recording rec = MakeRecording(128, 1, 5.0);
  GlobalSessionId id = h.Store(rec);

  auto gate = BlockWorker(&h.pool);
  QueryRequest batch = MakeQuery(id, rec.num_frames());
  batch.priority = QueryPriority::kBatch;
  auto batch_ticket = h.scheduler.Submit(batch);
  ASSERT_TRUE(batch_ticket.ok());
  std::vector<QueryTicketPtr> interactive;
  for (int i = 0; i < 8; ++i) {
    auto ticket = h.scheduler.Submit(MakeQuery(id, rec.num_frames()));
    ASSERT_TRUE(ticket.ok());
    interactive.push_back(ticket.ValueOrDie());
  }
  gate->set_value();

  QueryOutcome batch_outcome = batch_ticket.ValueOrDie()->Wait();
  for (const auto& ticket : interactive) ticket->Wait();
  // The promotion rule dispatches the waiting batch query within one
  // period even though eight interactive queries were queued ahead.
  EXPECT_LE(batch_outcome.dispatch_index,
            static_cast<uint64_t>(config.batch_promotion_period));
}

TEST(QuerySchedulerTest, FullLaneRejectsInsteadOfBlocking) {
  SchedulerConfig config;
  config.max_pending_interactive = 2;
  Harness h(SmallBlockConfig(), /*threads=*/1, config);
  streams::Recording rec = MakeRecording(128, 1, 5.0);
  GlobalSessionId id = h.Store(rec);

  auto gate = BlockWorker(&h.pool);
  auto first = h.scheduler.Submit(MakeQuery(id, rec.num_frames()));
  auto second = h.scheduler.Submit(MakeQuery(id, rec.num_frames()));
  auto third = h.scheduler.Submit(MakeQuery(id, rec.num_frames()));
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(second.ok());
  ASSERT_FALSE(third.ok());
  EXPECT_EQ(third.status().code(), StatusCode::kResourceExhausted);
  // The batch lane is independent and still admits.
  QueryRequest batch = MakeQuery(id, rec.num_frames());
  batch.priority = QueryPriority::kBatch;
  auto batch_ticket = h.scheduler.Submit(batch);
  EXPECT_TRUE(batch_ticket.ok());

  gate->set_value();
  h.scheduler.Drain();
  EXPECT_EQ(h.metrics.GetCounter("scheduler.rejected")->value(), 1u);
}

TEST(QuerySchedulerTest, ConcurrentSubmitAndCancelIsCoherent) {
  Harness h(SmallBlockConfig(), /*threads=*/4);
  streams::Recording rec = MakeRecording(256, 2, 5.0);
  GlobalSessionId id = h.Store(rec);

  constexpr size_t kSubmitters = 4;
  constexpr size_t kPerSubmitter = 16;
  std::vector<std::vector<QueryTicketPtr>> tickets(kSubmitters);
  std::vector<std::thread> submitters;
  for (size_t s = 0; s < kSubmitters; ++s) {
    submitters.emplace_back([&, s] {
      for (size_t i = 0; i < kPerSubmitter; ++i) {
        QueryRequest query = MakeQuery(id, rec.num_frames(), i % 2);
        query.priority =
            (i % 3 == 0) ? QueryPriority::kBatch : QueryPriority::kInteractive;
        auto ticket = h.scheduler.Submit(query);
        AIMS_CHECK(ticket.ok());
        tickets[s].push_back(ticket.ValueOrDie());
        if (i % 2 == 1) tickets[s].back()->Cancel();
      }
    });
  }
  for (auto& t : submitters) t.join();

  size_t complete = 0, cancelled = 0;
  for (const auto& lane : tickets) {
    for (const auto& ticket : lane) {
      QueryOutcome outcome = ticket->Wait();
      if (outcome.state == QueryState::kComplete) ++complete;
      if (outcome.state == QueryState::kCancelled) ++cancelled;
      EXPECT_TRUE(outcome.state == QueryState::kComplete ||
                  outcome.state == QueryState::kCancelled);
    }
  }
  EXPECT_EQ(complete + cancelled, kSubmitters * kPerSubmitter);
  // Every ticket not cancelled in time ran to the exact answer.
  EXPECT_GE(complete, 1u);
  h.scheduler.Drain();
  EXPECT_EQ(h.metrics.GetCounter("scheduler.submitted")->value(),
            kSubmitters * kPerSubmitter);
}

// A caller that waits on an idle pool runs its own query: a worker would
// have started it at once, so the cross-thread hop buys nothing. The
// answers are the pool path's, bit for bit.
TEST(QuerySchedulerTest, WaitRunsTheQueryInlineOnAnIdlePool) {
  Harness h(SmallBlockConfig(), /*threads=*/2);
  streams::Recording rec = MakeRecording(512, 2, 5.0);
  GlobalSessionId id = h.Store(rec);
  const obs::Counter* inline_runs =
      h.metrics.GetCounter("scheduler.dispatched_inline");
  constexpr size_t kQueries = 200;
  auto query_for = [&](size_t i) {
    QueryRequest query = MakeQuery(id, rec.num_frames(), i % 2);
    query.first_frame = i % 37;
    return query;
  };

  // The pool path: poll until a worker has finished each query, so Wait
  // only collects the outcome.
  std::vector<QueryOutcome> pooled;
  for (size_t i = 0; i < kQueries; ++i) {
    auto ticket = h.scheduler.Submit(query_for(i));
    ASSERT_TRUE(ticket.ok());
    while (!ticket.ValueOrDie()->done()) std::this_thread::yield();
    pooled.push_back(ticket.ValueOrDie()->Wait());
  }
  EXPECT_EQ(inline_runs->value(), 0u);

  for (size_t i = 0; i < kQueries; ++i) {
    // Idle: the task posted for the previous query has returned and its
    // worker is back asleep, so no awake worker races this caller.
    h.scheduler.Drain();
    std::this_thread::sleep_for(std::chrono::microseconds(200));
    auto ticket = h.scheduler.Submit(query_for(i));
    ASSERT_TRUE(ticket.ok());
    const QueryOutcome outcome = ticket.ValueOrDie()->Wait();
    const QueryAnswer& want = pooled[i].answer;
    ASSERT_EQ(outcome.state, QueryState::kComplete);
    ASSERT_EQ(pooled[i].state, QueryState::kComplete);
    EXPECT_EQ(outcome.answer.sum, want.sum) << i;
    EXPECT_EQ(outcome.answer.mean, want.mean) << i;
    EXPECT_EQ(outcome.answer.count, want.count) << i;
    EXPECT_EQ(outcome.answer.error_bound, want.error_bound) << i;
    EXPECT_EQ(outcome.answer.blocks_read, want.blocks_read) << i;
    EXPECT_EQ(outcome.answer.blocks_needed, want.blocks_needed) << i;
  }
  // Nearly all on a quiet host. The worker Submit wakes may still take a
  // ticket first, more often on a loaded host, where it can preempt the
  // caller, so the bound leaves room.
  RecordProperty("inline_runs", static_cast<int>(inline_runs->value()));
  EXPECT_GT(inline_runs->value(), kQueries / 4);
}

// With the only worker busy, Wait leaves the query queued: running it on
// the caller would raise the concurrency the pool bounds.
TEST(QuerySchedulerTest, WaitOnABusyPoolWaitsForAWorker) {
  Harness h(SmallBlockConfig(), /*threads=*/1);
  streams::Recording rec = MakeRecording(256, 1, 5.0);
  GlobalSessionId id = h.Store(rec);

  auto gate = BlockWorker(&h.pool);
  auto ticket = h.scheduler.Submit(MakeQuery(id, rec.num_frames()));
  ASSERT_TRUE(ticket.ok());
  const auto start = std::chrono::steady_clock::now();
  std::thread releaser([gate] {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    gate->set_value();
  });
  const QueryOutcome outcome = ticket.ValueOrDie()->Wait();
  const double waited_ms = std::chrono::duration<double, std::milli>(
                               std::chrono::steady_clock::now() - start)
                               .count();
  releaser.join();

  EXPECT_GE(waited_ms, 50.0);
  EXPECT_EQ(outcome.state, QueryState::kComplete);
  ASSERT_TRUE(outcome.breakdown.has_value());
  EXPECT_GE(outcome.breakdown->admission_wait_ms, 50.0);
  EXPECT_EQ(h.metrics.GetCounter("scheduler.dispatched_inline")->value(), 0u);
}

// The pool task posted for a ticket its caller ran can outlive the last
// in-flight query. Destroying the scheduler right after such a query must
// wait for that task, or the task runs on freed memory.
TEST(QuerySchedulerTest, DestroyAfterAnInlineQueryLeavesNoTaskBehind) {
  obs::MetricsRegistry metrics;
  ShardedCatalog catalog(1, SmallBlockConfig(), &metrics);
  ThreadPool pool(2);
  streams::Recording rec = MakeRecording(128, 1, 5.0);
  auto id = catalog.Ingest(0, "test", rec);
  ASSERT_TRUE(id.ok());
  const obs::Counter* inline_runs =
      metrics.GetCounter("scheduler.dispatched_inline");
  for (int round = 0; round < 200; ++round) {
    auto scheduler = std::make_unique<QueryScheduler>(
        &catalog, &pool, SchedulerConfig{}, nullptr, &metrics);
    // Query until one runs on this thread (a woken worker may win a race).
    const uint64_t inline_before = inline_runs->value();
    for (int attempt = 0; attempt < 1000 && inline_runs->value() ==
                                                inline_before;
         ++attempt) {
      auto ticket = scheduler->Submit(MakeQuery(*id, rec.num_frames()));
      ASSERT_TRUE(ticket.ok());
      EXPECT_EQ(ticket.ValueOrDie()->Wait().state, QueryState::kComplete);
    }
    ASSERT_GT(inline_runs->value(), inline_before) << "round " << round;
    scheduler.reset();
    // Every task the scheduler posted has returned.
    EXPECT_EQ(pool.queued(), 0u) << "round " << round;
  }
}

TEST(AimsServerFacadeTest, StatusCodesRoundTripThroughEnvelopes) {
  ServerConfig config;
  config.num_shards = 1;
  config.num_threads = 1;
  AimsServer server(config);

  // No session opened yet: every per-client operation is NotFound.
  EXPECT_EQ(server.SubmitQuery({7, QueryRequest{}}).status().code(),
            StatusCode::kNotFound);
  EXPECT_EQ(
      server.IngestRecording({7, "x", MakeRecording(16, 1, 1.0)})
          .status()
          .code(),
      StatusCode::kNotFound);
  EXPECT_EQ(server.CloseSession({7}).status().code(), StatusCode::kNotFound);

  ASSERT_TRUE(server.OpenSession({7}).ok());
  EXPECT_EQ(server.OpenSession({7}).status().code(),
            StatusCode::kAlreadyExists);
  // Opened without recognition: streaming is a precondition failure.
  EXPECT_EQ(server.StreamSamples({7, {}}).status().code(),
            StatusCode::kFailedPrecondition);

  // A scheduler failure preserves the catalog's code inside the outcome.
  auto stored = server.IngestRecording({7, "rec", MakeRecording(64, 2, 1.0)});
  ASSERT_TRUE(stored.ok());
  QueryRequest bad_channel;
  bad_channel.session = stored->session;
  bad_channel.channel = 99;
  bad_channel.last_frame = 10;
  auto submitted = server.SubmitQuery({7, bad_channel});
  ASSERT_TRUE(submitted.ok());
  QueryOutcome outcome = submitted->ticket->Wait();
  EXPECT_EQ(outcome.state, QueryState::kFailed);
  EXPECT_EQ(outcome.status.code(), StatusCode::kOutOfRange);

  QueryRequest bad_session;
  // Ids are opaque: any value the catalog never minted is simply unknown.
  bad_session.session = 0x12345678ull;
  bad_session.last_frame = 10;
  auto missing = server.SubmitQuery({7, bad_session});
  ASSERT_TRUE(missing.ok());
  EXPECT_EQ(missing->ticket->Wait().status.code(), StatusCode::kNotFound);
}

TEST(AimsServerFacadeTest, VocabularyImmutableWhileStreamsOpen) {
  ServerConfig config;
  config.num_shards = 1;
  config.num_threads = 1;
  AimsServer server(config);

  linalg::Matrix segment(8, 2);
  for (size_t r = 0; r < 8; ++r) {
    segment.SetRow(r, {static_cast<double>(r), 1.0});
  }
  ASSERT_TRUE(server.AddVocabularyEntry("wave", segment).ok());

  ASSERT_TRUE(server.OpenSession({3, /*enable_recognition=*/true}).ok());
  EXPECT_EQ(server.AddVocabularyEntry("late", segment).code(),
            StatusCode::kFailedPrecondition);
  ASSERT_TRUE(server.CloseSession({3}).ok());
  EXPECT_TRUE(server.AddVocabularyEntry("late", segment).ok());
}

}  // namespace
}  // namespace aims::server
