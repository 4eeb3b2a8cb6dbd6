#include <atomic>
#include <chrono>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "server/data_migrator.h"
#include "server/server.h"
#include "server/sharded_catalog.h"

/// \file rebalance_test.cc
/// \brief The live-rebalance contract: a tenant's sessions move between
/// shards while its queries and ingests keep running — zero failed reads,
/// no lost acknowledged ingest, opaque ids unchanged — the routing journal
/// recovers migrated placement across a reopen, the planner proposes
/// sensible hot-tenant moves, and the typed admin surface (GetShardStats /
/// TriggerRebalance / RebalanceStatus / AdminFault / ClearCache) behaves.
/// Run with -DAIMS_SANITIZE=thread to check the migration/query/ingest
/// interleavings for data races.

namespace aims::server {
namespace {

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

double ChannelSum(const streams::Recording& rec, size_t channel) {
  double sum = 0.0;
  for (const auto& frame : rec.frames) sum += frame.values[channel];
  return sum;
}

// Slow, quantized tones with frame timestamps from \p t0 seconds: smooth
// enough that a retention sweep downsamples their raw segments.
streams::Recording TonesFrom(double t0, size_t frames, size_t channels) {
  streams::Recording rec;
  rec.sample_rate_hz = 100.0;
  for (size_t f = 0; f < frames; ++f) {
    streams::Frame frame;
    frame.timestamp = t0 + static_cast<double>(f) / 100.0;
    frame.values.resize(channels);
    for (size_t c = 0; c < channels; ++c) {
      frame.values[c] = std::round(std::sin(0.03 * static_cast<double>(f) *
                                            static_cast<double>(c + 1)) *
                                   2048.0) /
                        2048.0;
    }
    rec.Append(std::move(frame));
  }
  return rec;
}

uint64_t Bits(double value) {
  uint64_t bits = 0;
  std::memcpy(&bits, &value, sizeof(bits));
  return bits;
}

// What one stored session answers, as bits. Left out are the progressive
// steps' cache_hits and the plan's residency flags: they describe the
// shard's block cache, not the session.
struct SessionAnswers {
  std::vector<uint64_t> channels;     // ReadChannel
  std::vector<uint64_t> progressive;  // QueryRangeProgressive steps
  std::vector<uint64_t> schedules;    // PlanRangeQuery schedules
  std::vector<uint64_t> segments;     // ListSegments
  std::vector<uint64_t> raw;          // ReadRawSamples
};

SessionAnswers AnswersOf(const ShardedCatalog& catalog, GlobalSessionId id,
                         size_t channels, size_t first, size_t last) {
  SessionAnswers out;
  for (size_t c = 0; c < channels; ++c) {
    auto values = catalog.ReadChannel(id, c);
    EXPECT_TRUE(values.ok()) << values.status().ToString();
    if (values.ok()) {
      for (double v : *values) out.channels.push_back(Bits(v));
    }
    auto progressive = catalog.QueryRangeProgressive(id, c, first, last);
    EXPECT_TRUE(progressive.ok()) << progressive.status().ToString();
    if (progressive.ok()) {
      for (const core::ProgressiveRangeStep& step : progressive->steps) {
        out.progressive.insert(
            out.progressive.end(),
            {step.blocks_read, Bits(step.sum_estimate),
             Bits(step.mean_estimate), Bits(step.sum_error_bound)});
      }
    }
    auto plan = catalog.PlanRangeQuery(id, c, first, last);
    EXPECT_TRUE(plan.ok()) << plan.status().ToString();
    if (plan.ok()) {
      for (const core::QueryPlanBlockFetch& fetch : plan->schedule) {
        out.schedules.insert(out.schedules.end(),
                             {fetch.logical_block, fetch.num_coefficients,
                              Bits(fetch.query_energy)});
      }
    }
    auto raw = catalog.ReadRawSamples(id, c);
    EXPECT_TRUE(raw.ok()) << raw.status().ToString();
    if (raw.ok()) {
      for (const gorilla::Sample& sample : *raw) {
        out.raw.insert(out.raw.end(), {static_cast<uint64_t>(sample.t_ms),
                                       Bits(sample.value)});
      }
    }
  }
  auto metas = catalog.ListSegments(id);
  EXPECT_TRUE(metas.ok()) << metas.status().ToString();
  if (metas.ok()) {
    for (const storage::tslife::SegmentMeta& meta : *metas) {
      out.segments.insert(
          out.segments.end(),
          {meta.channel, meta.seq, meta.tier, meta.decimation, meta.count,
           static_cast<uint64_t>(meta.t0_us), static_cast<uint64_t>(meta.t1_us),
           Bits(meta.rate_hz), Bits(meta.nmse)});
    }
  }
  return out;
}

// A move copies the stored bytes: after it, every session answers bit for
// bit as before, one of them downsampled by a retention sweep first. On a
// durable target each copy is one WAL group (its block puts, its catalog
// entry, one put per source segment, begin and commit) with no segment
// drop.
void ExpectBitIdenticalMove(const core::AimsConfig& config) {
  ShardedCatalog catalog(2, config);
  ASSERT_TRUE(catalog.init_status().ok()) << catalog.init_status().ToString();
  const ClientId client = 9;
  const size_t target = 1 - catalog.router().ShardForClient(client);
  constexpr size_t kChannels = 3;
  constexpr size_t kFrames = 300;
  // The sweep at data time 60 s downsamples the session recorded from 0 s
  // and leaves the one recorded from 100 s raw.
  std::vector<GlobalSessionId> ids;
  std::vector<size_t> blocks;
  for (double t0 : {0.0, 100.0}) {
    const size_t written = catalog.total_blocks_written();
    auto id = catalog.Ingest(client, "move", TonesFrom(t0, kFrames, kChannels));
    ASSERT_TRUE(id.ok()) << id.status().ToString();
    ids.push_back(*id);
    blocks.push_back(catalog.total_blocks_written() - written);
  }
  ShardedCatalog::TenantRetentionPolicies policies;
  policies.default_policy.downsample_age_seconds = 1.0;
  ASSERT_TRUE(catalog.SweepRetention(policies, 60 * 1000000ll).ok());

  std::vector<SessionAnswers> before;
  size_t expected_records = 0;
  for (size_t i = 0; i < ids.size(); ++i) {
    auto metas = catalog.ListSegments(ids[i]);
    ASSERT_TRUE(metas.ok());
    ASSERT_FALSE(metas->empty());
    EXPECT_EQ(metas->front().tier, i == 0 ? 1u : 0u);
    before.push_back(AnswersOf(catalog, ids[i], kChannels, 17, kFrames - 20));
    expected_records += blocks[i] + 1 + metas->size() + 2;
  }
  const obs::WalStats wal_before = catalog.TotalWalStats();

  DataMigrator migrator(&catalog);
  ASSERT_TRUE(migrator.MigrateTenant(client, target).ok());
  EXPECT_EQ(catalog.ShardStats()[target].sessions, ids.size());
  for (size_t i = 0; i < ids.size(); ++i) {
    SessionAnswers after =
        AnswersOf(catalog, ids[i], kChannels, 17, kFrames - 20);
    EXPECT_EQ(after.channels, before[i].channels) << "session " << i;
    EXPECT_EQ(after.progressive, before[i].progressive) << "session " << i;
    EXPECT_EQ(after.schedules, before[i].schedules) << "session " << i;
    EXPECT_EQ(after.segments, before[i].segments) << "session " << i;
    EXPECT_EQ(after.raw, before[i].raw) << "session " << i;
  }
  if (catalog.durable()) {
    const obs::WalStats wal_after = catalog.TotalWalStats();
    EXPECT_EQ(wal_after.commits - wal_before.commits, ids.size());
    EXPECT_EQ(wal_after.records - wal_before.records, expected_records);
  }
}

std::string TestDir(const std::string& name) {
  std::string dir =
      (std::filesystem::temp_directory_path() / ("aims_rebalance_" + name))
          .string();
  std::filesystem::remove_all(dir);
  return dir;
}

TEST(DataMigratorTest, MigrateTenantMovesEverySessionAndIdsSurvive) {
  ShardedCatalog catalog(4);
  const ClientId client = 11;
  const size_t source = catalog.router().ShardForClient(client);
  const size_t target = (source + 1) % 4;

  constexpr size_t kSessions = 5;
  constexpr size_t kFrames = 64;
  std::vector<std::pair<GlobalSessionId, double>> sessions;
  for (size_t i = 0; i < kSessions; ++i) {
    streams::Recording rec = MakeRecording(kFrames, 2, 3.0 + i);
    double expected = ChannelSum(rec, 0);
    auto id = catalog.Ingest(client, "rec", rec);
    ASSERT_TRUE(id.ok());
    sessions.emplace_back(*id, expected);
  }
  const uint64_t epoch_before = catalog.router().epoch();

  DataMigrator migrator(&catalog);
  ASSERT_TRUE(migrator.MigrateTenant(client, target).ok());

  // The same opaque ids keep answering (MoveIsBitIdentical* pin the bits).
  for (const auto& [id, expected] : sessions) {
    auto stats = catalog.QueryRange(id, 0, 0, kFrames - 1);
    ASSERT_TRUE(stats.ok()) << stats.status().ToString();
    EXPECT_NEAR(stats->sum, expected, 1e-6);
  }
  // Placement followed: the tenant is pinned to the target, the route
  // table puts every session there, and the epoch advanced at commit.
  ASSERT_TRUE(catalog.router().PinOf(client).has_value());
  EXPECT_EQ(*catalog.router().PinOf(client), target);
  EXPECT_GT(catalog.router().epoch(), epoch_before);
  auto shard_stats = catalog.ShardStats();
  EXPECT_EQ(shard_stats[target].sessions, kSessions);
  EXPECT_EQ(shard_stats[source].sessions, 0u);
  // Post-migration ingests land where the data lives.
  auto late = catalog.Ingest(client, "late", MakeRecording(32, 1, 9.0));
  ASSERT_TRUE(late.ok());
  EXPECT_EQ(catalog.ShardStats()[target].sessions, kSessions + 1);

  MigrationStatus status = migrator.status();
  EXPECT_EQ(status.state, MigrationStatus::State::kDone);
  EXPECT_EQ(status.sessions_moved, kSessions);
}

TEST(DataMigratorTest, MoveIsBitIdenticalInMemory) {
  ExpectBitIdenticalMove(core::AimsConfig{});
}

TEST(DataMigratorTest, MoveIsBitIdenticalAndOneWalGroupPerSessionDurable) {
  const std::string dir = TestDir("bit_identical");
  core::AimsConfig config;
  config.durability.path = dir;
  ExpectBitIdenticalMove(config);
  std::filesystem::remove_all(dir);
}

TEST(DataMigratorTest, MigrationToCurrentShardIsANoop) {
  ShardedCatalog catalog(2);
  const ClientId client = 3;
  ASSERT_TRUE(catalog.Ingest(client, "rec", MakeRecording(32, 1, 1.0)).ok());
  DataMigrator migrator(&catalog);
  const size_t home = catalog.router().ShardForClient(client);
  ASSERT_TRUE(migrator.MigrateTenant(client, home).ok());
  EXPECT_EQ(migrator.status().state, MigrationStatus::State::kDone);
  EXPECT_EQ(migrator.status().sessions_moved, 0u);
}

TEST(DataMigratorTest, BadTargetShardFails) {
  ShardedCatalog catalog(2);
  DataMigrator migrator(&catalog);
  Status status = migrator.MigrateTenant(1, 99);
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(migrator.status().state, MigrationStatus::State::kFailed);
}

// The tentpole invariant: a tenant under live query + ingest traffic is
// migrated and NOTHING fails — every read of a known session answers
// correctly throughout the move, and every acknowledged ingest is
// readable afterwards. TSan runs this schedule space for races.
TEST(DataMigratorTest, RebalanceUnderTrafficLosesNothing) {
  ShardedCatalog catalog(4);
  const ClientId client = 23;
  const size_t source = catalog.router().ShardForClient(client);
  const size_t target = (source + 2) % 4;

  constexpr size_t kFrames = 64;
  constexpr size_t kInitial = 8;
  std::mutex known_mutex;
  std::vector<std::pair<GlobalSessionId, double>> known;
  for (size_t i = 0; i < kInitial; ++i) {
    streams::Recording rec = MakeRecording(kFrames, 2, 1.0 + i);
    double expected = ChannelSum(rec, 0);
    auto id = catalog.Ingest(client, "warm", rec);
    ASSERT_TRUE(id.ok());
    known.emplace_back(*id, expected);
  }

  std::atomic<bool> stop{false};
  std::atomic<size_t> failed_reads{0};
  std::atomic<size_t> reads_done{0};

  // Readers hammer the known set for the whole migration window.
  std::vector<std::thread> readers;
  for (int r = 0; r < 3; ++r) {
    readers.emplace_back([&] {
      size_t cursor = 0;
      while (!stop.load()) {
        std::pair<GlobalSessionId, double> pick;
        {
          std::lock_guard<std::mutex> lock(known_mutex);
          pick = known[cursor++ % known.size()];
        }
        auto stats = catalog.QueryRange(pick.first, 0, 0, kFrames - 1);
        if (!stats.ok() || std::abs(stats->sum - pick.second) > 1e-6) {
          failed_reads.fetch_add(1);
        }
        reads_done.fetch_add(1);
      }
    });
  }
  // A writer keeps ingesting to the migrating tenant; each ack goes into
  // the known set (and must therefore survive the migration).
  std::thread writer([&] {
    for (size_t i = 0; !stop.load(); ++i) {
      streams::Recording rec = MakeRecording(kFrames, 1, 100.0 + i);
      double expected = ChannelSum(rec, 0);
      auto id = catalog.Ingest(client, "live", rec);
      if (id.ok()) {
        std::lock_guard<std::mutex> lock(known_mutex);
        known.emplace_back(*id, expected);
      }
    }
  });

  DataMigrator migrator(&catalog);
  Status migrated = migrator.MigrateTenant(client, target);
  // Let traffic run a little past the commit, then stop.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  stop.store(true);
  writer.join();
  for (auto& t : readers) t.join();

  ASSERT_TRUE(migrated.ok()) << migrated.ToString();
  EXPECT_EQ(failed_reads.load(), 0u);
  EXPECT_GT(reads_done.load(), 0u);
  // Every acknowledged ingest — before, during, after the move — answers.
  for (const auto& [id, expected] : known) {
    auto stats = catalog.QueryRange(id, 0, 0, kFrames - 1);
    ASSERT_TRUE(stats.ok()) << stats.status().ToString();
    EXPECT_NEAR(stats->sum, expected, 1e-6);
  }
  // And they all live on the target now.
  auto shard_stats = catalog.ShardStats();
  EXPECT_EQ(shard_stats[target].sessions, known.size());
}

// A crash is not the only interruption: an abort mid-migration must leave
// every session readable (already-moved ones stay on the target).
TEST(DataMigratorTest, AbortLeavesEverySessionReadable) {
  ShardedCatalog catalog(2);
  const ClientId client = 5;
  const size_t source = catalog.router().ShardForClient(client);
  const size_t target = 1 - source;
  std::vector<std::pair<GlobalSessionId, double>> sessions;
  for (size_t i = 0; i < 3; ++i) {
    streams::Recording rec = MakeRecording(48, 1, 2.0 + i);
    auto id = catalog.Ingest(client, "rec", rec);
    ASSERT_TRUE(id.ok());
    sessions.emplace_back(*id, ChannelSum(rec, 0));
  }
  auto to_move = catalog.BeginTenantMigration(client, target);
  ASSERT_TRUE(to_move.ok());
  ASSERT_EQ(to_move->size(), 3u);
  // Move one session, then abandon.
  ASSERT_TRUE(catalog.MigrateSession((*to_move)[0], target).ok());
  catalog.AbortTenantMigration(client);
  EXPECT_FALSE(catalog.router().PinOf(client).has_value());
  for (const auto& [id, expected] : sessions) {
    auto stats = catalog.QueryRange(id, 0, 0, 47);
    ASSERT_TRUE(stats.ok());
    EXPECT_NEAR(stats->sum, expected, 1e-6);
  }
}

// Durable: a committed migration's routing (including the pin) survives a
// reopen via the routing journal — the same opaque ids resolve on the
// target shard, each session with exactly one owner.
TEST(DataMigratorTest, DurableReopenRecoversMigratedRoutes) {
  std::string dir = TestDir("reopen");
  core::AimsConfig config;
  config.durability.path = dir;
  const ClientId client = 7;
  std::vector<std::pair<GlobalSessionId, double>> sessions;
  size_t target = 0;
  {
    ShardedCatalog catalog(2, config);
    ASSERT_TRUE(catalog.init_status().ok());
    const size_t source = catalog.router().ShardForClient(client);
    target = 1 - source;
    for (size_t i = 0; i < 3; ++i) {
      streams::Recording rec = MakeRecording(96, 1, 4.0 + i);
      auto id = catalog.Ingest(client, "durable", rec);
      ASSERT_TRUE(id.ok());
      sessions.emplace_back(*id, ChannelSum(rec, 0));
    }
    DataMigrator migrator(&catalog);
    ASSERT_TRUE(migrator.MigrateTenant(client, target).ok());
  }
  ShardedCatalog reopened(2, config);
  ASSERT_TRUE(reopened.init_status().ok()) << reopened.init_status().ToString();
  EXPECT_EQ(reopened.total_sessions(), sessions.size());
  for (const auto& [id, expected] : sessions) {
    auto stats = reopened.QueryRange(id, 0, 0, 95);
    ASSERT_TRUE(stats.ok()) << stats.status().ToString();
    EXPECT_NEAR(stats->sum, expected, 1e-6);
  }
  // Exactly one owner: the route table places everything on the target,
  // and the recovered pin keeps future ingests there.
  auto shard_stats = reopened.ShardStats();
  EXPECT_EQ(shard_stats[target].sessions, sessions.size());
  EXPECT_EQ(shard_stats[1 - target].sessions, 0u);
  ASSERT_TRUE(reopened.router().PinOf(client).has_value());
  EXPECT_EQ(*reopened.router().PinOf(client), target);
  std::filesystem::remove_all(dir);
}

// ---- RebalancePlanner ------------------------------------------------------

obs::TenantUsage Usage(uint64_t cpu_ms, uint64_t blocks, double queue_ms) {
  obs::TenantUsage usage;
  usage.cpu_ns = cpu_ms * 1000000ull;
  usage.blocks_read = blocks;
  usage.queue_ms = queue_ms;
  return usage;
}

TEST(RebalancePlannerTest, LoadModelWeighsAllThreeDimensions) {
  RebalancePlannerConfig config;
  config.cpu_weight_per_ms = 1.0;
  config.io_weight_per_block = 0.05;
  config.queue_weight_per_ms = 0.25;
  RebalancePlanner planner(config);
  EXPECT_DOUBLE_EQ(planner.TenantLoad(Usage(10, 100, 4.0)),
                   10.0 * 1.0 + 100 * 0.05 + 4.0 * 0.25);
}

TEST(RebalancePlannerTest, BalancedLoadProposesNothing) {
  ShardRouter router(2);
  // Two tenants with identical load on different shards.
  ClientId a = 0, b = 0;
  for (ClientId c = 0; c < 64 && (a == 0 || b == 0); ++c) {
    (router.ShardForClient(c) == 0 ? a : b) = c;
  }
  std::vector<std::pair<obs::TenantId, obs::TenantUsage>> usage = {
      {a, Usage(10, 0, 0)}, {b, Usage(10, 0, 0)}};
  RebalancePlan plan = RebalancePlanner().Plan(usage, router, 2);
  EXPECT_TRUE(plan.moves.empty());
  EXPECT_NEAR(plan.imbalance_before, 1.0, 1e-9);
}

TEST(RebalancePlannerTest, HotTenantMovesToTheCoolestShard) {
  ShardRouter router(2);
  ClientId on0 = 0, other0 = 0, on1 = 0;
  for (ClientId c = 1; c < 128; ++c) {
    if (router.ShardForClient(c) == 0) {
      (on0 == 0 ? on0 : other0) = c;
    } else if (on1 == 0) {
      on1 = c;
    }
  }
  ASSERT_NE(on0, 0u);
  ASSERT_NE(other0, 0u);
  ASSERT_NE(on1, 0u);
  // Shard 0 carries a hot tenant + a light one; shard 1 is nearly idle.
  std::vector<std::pair<obs::TenantId, obs::TenantUsage>> usage = {
      {on0, Usage(100, 0, 0)}, {other0, Usage(10, 0, 0)},
      {on1, Usage(5, 0, 0)}};
  RebalancePlan plan = RebalancePlanner().Plan(usage, router, 2);
  ASSERT_FALSE(plan.moves.empty());
  // It moves a tenant off the hot shard onto the cool one — and not the
  // hot tenant itself (moving 100 of ~115 to shard 1 would just swap the
  // hotspot); the heaviest tenant that FITS the gap goes.
  for (const auto& move : plan.moves) {
    EXPECT_EQ(move.from_shard, 0u);
    EXPECT_EQ(move.to_shard, 1u);
  }
  EXPECT_LT(plan.imbalance_after, plan.imbalance_before);
  EXPECT_LE(plan.moves.size(), RebalancePlanner::kMaxMoves);
}

// ---- Server façade: shard stats, rebalance, typed admin -------------------

TEST(ServerRebalanceTest, ExplicitMoveRunsAsyncAndIsObservable) {
  ServerConfig config;
  config.num_shards = 3;
  config.num_threads = 2;
  AimsServer server(config);
  const ClientId client = 4;
  ASSERT_TRUE(server.OpenSession({client}).ok());
  std::vector<std::pair<GlobalSessionId, double>> sessions;
  for (size_t i = 0; i < 4; ++i) {
    streams::Recording rec = MakeRecording(64, 2, 5.0 + i);
    auto stored = server.IngestRecording({client, "rec", rec});
    ASSERT_TRUE(stored.ok());
    sessions.emplace_back(stored->session, ChannelSum(rec, 0));
  }
  const size_t source = server.catalog().router().ShardForClient(client);
  const size_t target = (source + 1) % 3;

  // Ledger attribution is tenant activity only: migration must not charge
  // the tenant for the infrastructure copy.
  auto usage_before = server.GetTenantUsage({client});
  ASSERT_TRUE(usage_before.ok());

  TriggerRebalanceRequest request;
  request.client = client;
  request.target_shard = target;
  auto triggered = server.TriggerRebalance(request);
  ASSERT_TRUE(triggered.ok()) << triggered.status().ToString();
  EXPECT_TRUE(triggered->started);
  ASSERT_EQ(triggered->plan.moves.size(), 1u);
  EXPECT_EQ(triggered->plan.moves[0].client, client);
  EXPECT_EQ(triggered->plan.moves[0].to_shard, target);

  // Poll until the async run finishes.
  for (int i = 0; i < 500; ++i) {
    auto status = server.RebalanceStatus({});
    ASSERT_TRUE(status.ok());
    if (!status->running) {
      EXPECT_EQ(status->error, "");
      EXPECT_EQ(status->completed_moves, 1u);
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  ASSERT_FALSE(server.RebalanceStatus({})->running);

  for (const auto& [id, expected] : sessions) {
    QueryRequest query;
    query.session = id;
    query.channel = 0;
    query.first_frame = 0;
    query.last_frame = 63;
    auto submitted = server.SubmitQuery({client, query});
    ASSERT_TRUE(submitted.ok());
    QueryOutcome outcome = submitted->ticket->Wait();
    ASSERT_EQ(outcome.state, QueryState::kComplete);
    EXPECT_NEAR(outcome.answer.sum, expected, 1e-6);
  }

  auto usage_after = server.GetTenantUsage({client});
  ASSERT_TRUE(usage_after.ok());
  EXPECT_EQ(usage_after->total.blocks_written,
            usage_before->total.blocks_written);
  EXPECT_EQ(usage_after->total.ingests, usage_before->total.ingests);

  auto stats = server.GetShardStats({});
  ASSERT_TRUE(stats.ok());
  ASSERT_EQ(stats->shards.size(), 3u);
  EXPECT_EQ(stats->shards[target].sessions, sessions.size());
  EXPECT_GT(stats->router_epoch, 1u);
  server.Shutdown();
}

TEST(ServerRebalanceTest, DryRunPlansWithoutExecuting) {
  ServerConfig config;
  config.num_shards = 2;
  config.num_threads = 1;
  AimsServer server(config);
  const ClientId client = 2;
  ASSERT_TRUE(server.OpenSession({client}).ok());
  ASSERT_TRUE(
      server.IngestRecording({client, "rec", MakeRecording(32, 1, 1.0)}).ok());
  const size_t source = server.catalog().router().ShardForClient(client);

  TriggerRebalanceRequest request;
  request.client = client;
  request.target_shard = 1 - source;
  request.dry_run = true;
  auto triggered = server.TriggerRebalance(request);
  ASSERT_TRUE(triggered.ok());
  EXPECT_FALSE(triggered->started);
  ASSERT_EQ(triggered->plan.moves.size(), 1u);
  // Nothing moved.
  EXPECT_EQ(server.catalog().ShardStats()[source].sessions, 1u);
  // Half-specified requests are rejected.
  TriggerRebalanceRequest half;
  half.client = client;
  EXPECT_EQ(server.TriggerRebalance(half).status().code(),
            StatusCode::kInvalidArgument);
  server.Shutdown();
}

TEST(ServerRebalanceTest, ShardStatsCountPlacementAndTraffic) {
  ServerConfig config;
  config.num_shards = 2;
  config.num_threads = 1;
  AimsServer server(config);
  ASSERT_TRUE(server.OpenSession({1}).ok());
  auto stored = server.IngestRecording({1, "rec", MakeRecording(64, 1, 2.0)});
  ASSERT_TRUE(stored.ok());
  auto stats = server.GetShardStats({});
  ASSERT_TRUE(stats.ok());
  ASSERT_EQ(stats->shards.size(), 2u);
  size_t sessions = 0, tenants = 0, ingests = 0;
  for (const auto& entry : stats->shards) {
    sessions += entry.sessions;
    tenants += entry.tenants;
    ingests += entry.ingests;
    EXPECT_EQ(entry.queue_depth, 0);
  }
  EXPECT_EQ(sessions, 1u);
  EXPECT_EQ(tenants, 1u);
  EXPECT_EQ(ingests, 1u);
  server.Shutdown();
}

TEST(ServerAdminTest, TypedFaultAndCacheSurface) {
  ServerConfig config;
  config.num_shards = 2;
  config.num_threads = 1;
  AimsServer server(config);
  // Bad shard indices are InvalidArgument, not a crash.
  AdminFaultRequest bad;
  bad.shard = 99;
  EXPECT_EQ(server.AdminFault(bad).status().code(),
            StatusCode::kInvalidArgument);
  ClearCacheRequest bad_cache;
  bad_cache.shard = 99;
  EXPECT_EQ(server.ClearCache(bad_cache).status().code(),
            StatusCode::kInvalidArgument);

  // Arm a write fault through the façade, watch it fire, then clear it.
  ASSERT_TRUE(server.OpenSession({1}).ok());
  const size_t shard = server.catalog().router().ShardForClient(1);
  AdminFaultRequest arm;
  arm.shard = shard;
  arm.fail_next_writes = 1;
  ASSERT_TRUE(server.AdminFault(arm).ok());
  auto failed = server.IngestRecording({1, "doomed", MakeRecording(64, 1, 1.0)});
  EXPECT_FALSE(failed.ok());
  AdminFaultRequest clear;
  clear.shard = shard;
  clear.clear_faults = true;
  ASSERT_TRUE(server.AdminFault(clear).ok());
  EXPECT_TRUE(
      server.IngestRecording({1, "fine", MakeRecording(64, 1, 1.0)}).ok());
  EXPECT_TRUE(server.ClearCache({}).ok());
  server.Shutdown();
}

}  // namespace
}  // namespace aims::server
