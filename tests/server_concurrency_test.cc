#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstring>
#include <filesystem>
#include <future>
#include <limits>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "obs/metrics.h"
#include "server/ingest_service.h"
#include "server/recognition_service.h"
#include "server/server.h"
#include "server/sharded_catalog.h"
#include "server/thread_pool.h"

/// \file server_concurrency_test.cc
/// \brief Hammers the aims::server runtime with parallel ingest + query
/// and verifies the invariants that must hold regardless of interleaving:
/// every admitted recording lands exactly once, query answers match the
/// ingested data bit-for-bit (modulo float tolerance), backpressure keeps
/// queue depth bounded with explicit drop accounting, and shutdown never
/// loses admitted work. Run with -DAIMS_SANITIZE=thread to check the same
/// schedule space for data races.

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

double ChannelSum(const streams::Recording& rec, size_t channel) {
  double sum = 0.0;
  for (const auto& frame : rec.frames) sum += frame.values[channel];
  return sum;
}

TEST(ShardedCatalogTest, SessionIdsAreOpaqueAndDistinct) {
  ShardedCatalog catalog(4);
  streams::Recording rec = MakeRecording(16, 1, 1.0);
  auto a = catalog.Ingest(0, "a", rec);
  auto b = catalog.Ingest(9, "b", rec);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_NE(*a, *b);
  EXPECT_NE(*a, 0u);  // 0 is never minted.
  // Ids resolve through the route table, not by decoding bits: an id the
  // catalog never minted is NotFound even if its bit pattern "looks like"
  // a plausible shard/local encoding.
  EXPECT_EQ(catalog.GetSession(0x0003000000000029ull).status().code(),
            StatusCode::kNotFound);
}

TEST(ShardedCatalogTest, PlacementComesFromTheRouter) {
  ShardedCatalog catalog(4);
  EXPECT_EQ(catalog.num_shards(), 4u);
  streams::Recording rec = MakeRecording(16, 1, 1.0);
  // Wherever the ring puts a tenant, its sessions land there — and the
  // placement is a router decision, not `client % num_shards`.
  for (ClientId client : {ClientId{0}, ClientId{5}, ClientId{7}}) {
    size_t placed = catalog.router().ShardForClient(client);
    EXPECT_LT(placed, 4u);
    auto id = catalog.Ingest(client, "probe", rec);
    ASSERT_TRUE(id.ok());
    EXPECT_TRUE(catalog.GetSession(*id).ok());
  }
  // The ring is deterministic: an identical router reproduces placement.
  ShardRouter twin(4);
  for (ClientId client = 0; client < 64; ++client) {
    EXPECT_EQ(catalog.router().ShardForClient(client),
              twin.ShardForClient(client));
  }
}

TEST(ShardedCatalogTest, ParallelIngestAndQueryConsistent) {
  constexpr size_t kWriters = 4;
  constexpr size_t kPerWriter = 6;
  constexpr size_t kFrames = 64;
  constexpr size_t kChannels = 3;

  obs::MetricsRegistry metrics;
  ShardedCatalog catalog(4, {}, &metrics);

  std::mutex ingested_mutex;
  std::vector<std::pair<GlobalSessionId, double>> ingested;  // id, sum(ch 0)
  std::atomic<bool> writers_done{false};
  std::atomic<size_t> verify_failures{0};

  std::vector<std::thread> writers;
  for (size_t w = 0; w < kWriters; ++w) {
    writers.emplace_back([&, w] {
      for (size_t i = 0; i < kPerWriter; ++i) {
        double base = static_cast<double>(w * 10 + i);
        streams::Recording rec = MakeRecording(kFrames, kChannels, base);
        double expected = ChannelSum(rec, 0);
        auto id = catalog.Ingest(w, "rec", rec);
        ASSERT_TRUE(id.ok()) << id.status().ToString();
        std::lock_guard<std::mutex> lock(ingested_mutex);
        ingested.emplace_back(*id, expected);
      }
    });
  }

  // Readers race the writers, verifying whatever has already landed.
  std::vector<std::thread> readers;
  for (size_t r = 0; r < 2; ++r) {
    readers.emplace_back([&] {
      size_t cursor = 0;
      while (!writers_done.load() || cursor > 0) {
        std::pair<GlobalSessionId, double> target;
        {
          std::lock_guard<std::mutex> lock(ingested_mutex);
          if (ingested.empty()) {
            if (writers_done.load()) break;
            continue;
          }
          target = ingested[cursor % ingested.size()];
          ++cursor;
        }
        auto stats = catalog.QueryRange(target.first, 0, 0, kFrames - 1);
        if (!stats.ok() || std::abs(stats->sum - target.second) > 1e-6) {
          verify_failures.fetch_add(1);
        }
        if (writers_done.load()) break;
      }
    });
  }
  for (auto& t : writers) t.join();
  writers_done.store(true);
  for (auto& t : readers) t.join();

  EXPECT_EQ(verify_failures.load(), 0u);
  EXPECT_EQ(catalog.total_sessions(), kWriters * kPerWriter);

  // Post-hoc: every ingested id answers exactly.
  for (const auto& [id, expected] : ingested) {
    auto info = catalog.GetSession(id);
    ASSERT_TRUE(info.ok());
    EXPECT_EQ(info->num_frames, kFrames);
    auto stats = catalog.QueryRange(id, 0, 0, kFrames - 1);
    ASSERT_TRUE(stats.ok());
    EXPECT_NEAR(stats->sum, expected, 1e-6);
  }
  EXPECT_EQ(metrics.DumpText().find("counter catalog.ingest.count 0"),
            std::string::npos);
}

TEST(ShardedCatalogTest, ConcurrentReadersOfOneSessionAgree) {
  ShardedCatalog catalog(2);
  streams::Recording rec = MakeRecording(128, 2, 5.0);
  double expected = ChannelSum(rec, 1);
  auto id = catalog.Ingest(/*client=*/1, "shared", rec);
  ASSERT_TRUE(id.ok());

  std::atomic<size_t> failures{0};
  std::vector<std::thread> readers;
  for (size_t r = 0; r < 4; ++r) {
    readers.emplace_back([&] {
      for (int i = 0; i < 25; ++i) {
        auto stats = catalog.QueryRange(*id, 1, 0, 127);
        if (!stats.ok() || std::abs(stats->sum - expected) > 1e-6) {
          failures.fetch_add(1);
        }
        auto channel = catalog.ReadChannel(*id, 1);
        if (!channel.ok() || channel->size() != 128) failures.fetch_add(1);
      }
    });
  }
  for (auto& t : readers) t.join();
  EXPECT_EQ(failures.load(), 0u);
}

TEST(ShardedCatalogTest, IngestsRaceQueriesAndStandingQueriesOnOneShard) {
  // Ingests prepare with no lock held, so on one shard their CPU work
  // overlaps queries, other ingests' publish steps and SetStandingQueries.
  // Every acknowledged ingest must read back bit-exactly what a lone
  // system stores for the same recording, and every standing-query result
  // it reports must equal that session's exact range sum.
  constexpr size_t kWriters = 3;
  constexpr size_t kPerWriter = 5;
  constexpr size_t kFrames = 96;
  constexpr size_t kChannels = 2;
  // Handle h names kQueries[h - 1] in every set the toggler installs, so an
  // update is checkable whichever set was live when its ingest published.
  const std::vector<core::StandingRangeQuery> kQueries = {
      {1, 0, 0, kFrames - 1}, {2, 1, 5, 60}, {3, 0, 17, 17}, {4, 1, 30, 95}};
  for (bool durable : {false, true}) {
    SCOPED_TRACE(durable ? "durable" : "in-memory");
    core::AimsConfig config;
    if (durable) {
      config.durability.path = ::testing::TempDir() + "aims_race_" +
                               std::to_string(::getpid());
      std::filesystem::remove_all(config.durability.path);
      config.durability.sync_mode = storage::durable::WalSyncMode::kNone;
      config.durability.checkpoint_wal_bytes = 64 << 10;
    }
    std::mutex mutex;
    std::vector<std::pair<GlobalSessionId, double>> ingested;  // id, base
    std::vector<std::pair<GlobalSessionId, core::StandingRangeUpdate>> updates;
    ShardedCatalog catalog(
        1, config, nullptr,
        [&](GlobalSessionId id, ClientId,
            const std::vector<core::StandingRangeUpdate>& batch) {
          std::lock_guard<std::mutex> lock(mutex);
          for (const auto& update : batch) updates.emplace_back(id, update);
        });
    ASSERT_TRUE(catalog.init_status().ok());
    catalog.SetStandingQueries(kQueries);

    std::atomic<bool> writers_done{false};
    std::atomic<size_t> failures{0};
    std::thread toggler([&] {
      for (size_t round = 1; !writers_done.load(); ++round) {
        std::vector<core::StandingRangeQuery> subset;
        for (size_t q = 0; q < kQueries.size(); ++q) {
          if ((round >> q) & 1) subset.push_back(kQueries[q]);
        }
        catalog.SetStandingQueries(subset);
        std::this_thread::yield();
      }
    });
    std::vector<std::thread> readers;
    for (size_t r = 0; r < 2; ++r) {
      readers.emplace_back([&, r] {
        for (size_t i = r; !writers_done.load(); ++i) {
          GlobalSessionId id = 0;
          {
            std::lock_guard<std::mutex> lock(mutex);
            if (!ingested.empty()) id = ingested[i % ingested.size()].first;
          }
          if (id == 0) {
            std::this_thread::yield();
            continue;
          }
          if (!catalog.QueryRange(id, i % kChannels, 3, kFrames - 4).ok() ||
              !catalog.QueryRangeProgressive(id, 0, 0, kFrames / 2).ok() ||
              !catalog.ReadChannel(id, 1).ok()) {
            failures.fetch_add(1);
          }
        }
      });
    }
    std::vector<std::thread> writers;
    for (size_t w = 0; w < kWriters; ++w) {
      writers.emplace_back([&, w] {
        for (size_t i = 0; i < kPerWriter; ++i) {
          const double base = static_cast<double>(w * 10 + i);
          auto id = catalog.Ingest(w, "race",
                                   MakeRecording(kFrames, kChannels, base));
          if (!id.ok()) {
            failures.fetch_add(1);
            continue;
          }
          std::lock_guard<std::mutex> lock(mutex);
          ingested.emplace_back(*id, base);
        }
      });
    }
    for (auto& t : writers) t.join();
    writers_done.store(true);
    for (auto& t : readers) t.join();
    toggler.join();
    EXPECT_EQ(failures.load(), 0u);
    ASSERT_EQ(ingested.size(), kWriters * kPerWriter);

    // One more ingest with every query installed, so the update check
    // below never runs empty.
    catalog.SetStandingQueries(kQueries);
    auto last =
        catalog.Ingest(0, "last", MakeRecording(kFrames, kChannels, 99));
    ASSERT_TRUE(last.ok()) << last.status().ToString();
    ingested.emplace_back(*last, 99.0);
    ASSERT_GE(updates.size(), kQueries.size());

    core::AimsSystem lone;
    for (const auto& [id, base] : ingested) {
      const streams::Recording rec = MakeRecording(kFrames, kChannels, base);
      auto ref = lone.IngestRecording("ref", rec);
      ASSERT_TRUE(ref.ok());
      for (size_t c = 0; c < kChannels; ++c) {
        auto got = catalog.ReadChannel(id, c);
        auto want = lone.ReadChannel(*ref, c);
        ASSERT_TRUE(got.ok() && want.ok());
        ASSERT_EQ(got->size(), want->size());
        EXPECT_EQ(std::memcmp(got->data(), want->data(),
                              got->size() * sizeof(double)),
                  0)
            << "session " << id << " channel " << c;
      }
    }
    for (const auto& [id, update] : updates) {
      ASSERT_GE(update.handle, 1u);
      ASSERT_LE(update.handle, kQueries.size());
      const core::StandingRangeQuery& q = kQueries[update.handle - 1];
      auto exact = catalog.QueryRange(id, q.channel, q.first_frame,
                                      q.last_frame);
      ASSERT_TRUE(exact.ok());
      EXPECT_EQ(update.count, exact->count);
      EXPECT_EQ(update.sum, exact->sum) << "handle " << update.handle;
      EXPECT_EQ(update.mean, exact->mean) << "handle " << update.handle;
    }
    if (durable) std::filesystem::remove_all(config.durability.path);
  }
}

/// Parks the first \p limit ingests that reach the commit hook of a
/// catalog built with Hook() until Release(); later ingests pass straight
/// through. The hook runs on the ingest's own thread, after its route is
/// registered.
class CommitHookGate {
 public:
  explicit CommitHookGate(size_t limit) : limit_(limit) {}

  ShardedCatalog::IngestCommitHook Hook() {
    return [this](GlobalSessionId, ClientId,
                  const std::vector<core::StandingRangeUpdate>&) {
      std::unique_lock<std::mutex> lock(mutex_);
      if (held_ == limit_) return;
      ++held_;
      cv_.notify_all();
      cv_.wait(lock, [&] { return released_; });
    };
  }

  /// The hook fires only for an ingest that maintains a standing query.
  static void Arm(ShardedCatalog* catalog) {
    catalog->SetStandingQueries({{1, 0, 0, 15}});
  }

  CommitHookGate(const CommitHookGate&) = delete;
  CommitHookGate& operator=(const CommitHookGate&) = delete;

  /// Blocks until \p limit ingests are parked in the hook.
  void WaitUntilFull() {
    std::unique_lock<std::mutex> lock(mutex_);
    cv_.wait(lock, [&] { return held_ == limit_; });
  }

  void Release() {
    std::lock_guard<std::mutex> lock(mutex_);
    released_ = true;
    cv_.notify_all();
  }

 private:
  const size_t limit_;
  std::mutex mutex_;
  std::condition_variable cv_;
  size_t held_ = 0;
  bool released_ = false;
};

TEST(IngestServiceTest, BackpressureIsBoundedAndAccounted) {
  constexpr size_t kCapacity = 4;
  constexpr size_t kSubmissions = 50;

  obs::MetricsRegistry metrics;
  // Stall the catalog: the first kCapacity ingests stay unfinished while
  // the client floods the gate.
  CommitHookGate gate(kCapacity);
  ShardedCatalog catalog(1, {}, &metrics, gate.Hook());
  CommitHookGate::Arm(&catalog);

  IngestAdmissionPolicy policy;
  policy.queue_capacity = kCapacity;
  IngestService service(&catalog, policy, &metrics);

  const streams::Recording rec = MakeRecording(32, 2, 1.0);
  std::atomic<size_t> accepted{0};
  std::atomic<size_t> rejected{0};
  auto submit = [&] {
    Result<GlobalSessionId> result = service.Ingest(0, "flood", rec);
    if (result.ok()) {
      ++accepted;
    } else {
      EXPECT_EQ(result.status().code(), StatusCode::kResourceExhausted);
      ++rejected;
    }
  };
  std::vector<std::thread> held;
  for (size_t i = 0; i < kCapacity; ++i) held.emplace_back(submit);
  gate.WaitUntilFull();
  // Every further submission is turned away at once, not buffered.
  for (size_t i = kCapacity; i < kSubmissions; ++i) submit();
  EXPECT_EQ(rejected.load(), kSubmissions - kCapacity);
  EXPECT_EQ(metrics.GetCounter("ingest.rejected_queue")->value(),
            rejected.load());
  EXPECT_EQ(metrics.GetCounter("ingest.admitted")->value(), kCapacity);
  EXPECT_LE(metrics.GetGauge("ingest.queue_depth")->max(),
            static_cast<int64_t>(kCapacity));

  gate.Release();
  for (std::thread& t : held) t.join();
  // The stalled client had exactly its cap admitted; all of it landed.
  EXPECT_EQ(accepted.load(), kCapacity);
  EXPECT_EQ(metrics.GetCounter("ingest.admitted")->value(), accepted.load());
  EXPECT_EQ(metrics.GetCounter("ingest.completed")->value(), accepted.load());
  EXPECT_EQ(metrics.GetCounter("ingest.failed")->value(), 0u);
  EXPECT_EQ(catalog.total_sessions(), accepted.load());
  EXPECT_EQ(metrics.GetGauge("ingest.queue_depth")->value(), 0);
}

TEST(IngestServiceTest, GlobalCapacityCapRejects) {
  obs::MetricsRegistry metrics;
  CommitHookGate gate(2);
  ShardedCatalog catalog(1, {}, nullptr, gate.Hook());
  CommitHookGate::Arm(&catalog);

  IngestAdmissionPolicy policy;
  policy.queue_capacity = 8;
  policy.max_pending_total = 2;
  IngestService service(&catalog, policy, &metrics);

  const streams::Recording rec = MakeRecording(32, 2, 1.0);
  std::vector<std::thread> held;
  for (ClientId client : {ClientId{0}, ClientId{1}}) {
    held.emplace_back([&, client] {
      EXPECT_TRUE(service.Ingest(client, "held", rec).ok());
    });
  }
  gate.WaitUntilFull();
  Result<GlobalSessionId> third = service.Ingest(2, "c", rec);
  EXPECT_EQ(third.status().code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(metrics.GetCounter("ingest.rejected_capacity")->value(), 1u);

  gate.Release();
  for (std::thread& t : held) t.join();
  EXPECT_EQ(catalog.total_sessions(), 2u);
}

TEST(IngestServiceTest, PersistentFaultExhaustsAttemptsAndFails) {
  obs::MetricsRegistry metrics;
  ShardedCatalog catalog(1, {}, &metrics);
  IngestService service(&catalog, {}, &metrics);

  AdminFaultRequest fault;
  fault.shard = catalog.router().ShardForClient(0);
  fault.fail_next_writes = 1000;
  ASSERT_TRUE(catalog.ApplyFault(fault).ok());
  Result<GlobalSessionId> outcome =
      service.Ingest(0, "doomed", MakeRecording(32, 2, 1.0));
  EXPECT_FALSE(outcome.ok());
  EXPECT_EQ(outcome.status().code(), StatusCode::kIoError);
  EXPECT_EQ(metrics.GetCounter("ingest.failed")->value(), 1u);
  EXPECT_EQ(catalog.total_sessions(), 0u);
  AdminFaultRequest disarm;
  disarm.shard = fault.shard;
  disarm.clear_faults = true;
  ASSERT_TRUE(catalog.ApplyFault(disarm).ok());
}

TEST(IngestServiceTest, ShutdownWaitsForAnInFlightIngest) {
  obs::MetricsRegistry metrics;
  CommitHookGate gate(1);
  ShardedCatalog catalog(1, {}, &metrics, gate.Hook());
  CommitHookGate::Arm(&catalog);
  IngestAdmissionPolicy policy;
  // The held ingest fills client 0's cap, so a probe that beats Shutdown
  // is rejected, never parked.
  policy.queue_capacity = 1;
  IngestService service(&catalog, policy, &metrics);

  const streams::Recording rec = MakeRecording(32, 2, 1.0);
  Result<GlobalSessionId> held_result = Status::Internal("never ran");
  std::thread held([&] { held_result = service.Ingest(0, "held", rec); });
  gate.WaitUntilFull();

  std::atomic<bool> shut_down{false};
  std::thread stopper([&] {
    service.Shutdown();
    shut_down = true;
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  EXPECT_FALSE(shut_down.load()) << "Shutdown returned with an ingest held";
  // Shutdown has begun by now on any but a starved host; poll so that a
  // late stopper thread cannot fail the test.
  Status late;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  do {
    late = service.Ingest(0, "late", rec).status();
  } while (late.code() == StatusCode::kResourceExhausted &&
           std::chrono::steady_clock::now() < deadline);
  EXPECT_EQ(late.code(), StatusCode::kFailedPrecondition);

  gate.Release();
  stopper.join();
  held.join();
  EXPECT_TRUE(shut_down.load());
  EXPECT_TRUE(held_result.ok()) << held_result.status().ToString();
  EXPECT_EQ(metrics.GetCounter("ingest.completed")->value(), 1u);
  EXPECT_EQ(catalog.total_sessions(), 1u);
}

/// A 40-frame, \p channels-wide motion template; distinct per \p variant.
linalg::Matrix MotionTemplate(size_t channels, int variant) {
  linalg::Matrix segment(40, channels);
  for (size_t r = 0; r < 40; ++r) {
    for (size_t c = 0; c < channels; ++c) {
      segment(r, c) = 10.0 * std::sin(0.3 * static_cast<double>(r) *
                                      static_cast<double>(c + variant + 1));
    }
  }
  return segment;
}

/// Live frames: active motion for the first \p active frames, then rest.
std::vector<streams::Frame> MotionFrames(size_t frames, size_t active,
                                         size_t channels, double phase) {
  std::vector<streams::Frame> out(frames);
  for (size_t f = 0; f < frames; ++f) {
    out[f].timestamp = static_cast<double>(f) / 100.0;
    out[f].values.resize(channels);
    const double amplitude = f < active ? 12.0 : 0.0;
    for (size_t c = 0; c < channels; ++c) {
      out[f].values[c] =
          amplitude * std::sin(0.3 * static_cast<double>(f * (c + 1)) + phase);
    }
  }
  return out;
}

TEST(RecognitionServiceTest, ConcurrentClientStreams) {
  constexpr size_t kClients = 4;
  constexpr size_t kChannels = 6;
  constexpr size_t kFramesPerClient = 150;

  obs::MetricsRegistry metrics;
  RecognitionService service({}, &metrics);
  ASSERT_TRUE(service.AddVocabularyEntry("wave", MotionTemplate(kChannels, 0))
                  .ok());
  ASSERT_TRUE(service.AddVocabularyEntry("twist", MotionTemplate(kChannels, 1))
                  .ok());
  for (size_t client = 0; client < kClients; ++client) {
    ASSERT_TRUE(service.OpenStream(client).ok());
  }
  EXPECT_EQ(service.open_streams(), kClients);
  // Double-open is refused.
  EXPECT_EQ(service.OpenStream(0).code(), StatusCode::kAlreadyExists);

  std::atomic<size_t> push_failures{0};
  std::vector<std::thread> pushers;
  for (size_t client = 0; client < kClients; ++client) {
    pushers.emplace_back([&, client] {
      for (const streams::Frame& frame :
           MotionFrames(kFramesPerClient, 100, kChannels,
                        static_cast<double>(client))) {
        if (!service.PushFrames(client, {frame}).ok()) {
          push_failures.fetch_add(1);
        }
      }
    });
  }
  for (auto& t : pushers) t.join();
  EXPECT_EQ(push_failures.load(), 0u);
  EXPECT_EQ(metrics.GetCounter("recognition.frames")->value(),
            kClients * kFramesPerClient);

  for (size_t client = 0; client < kClients; ++client) {
    EXPECT_TRUE(service.CloseStream(client).ok());
  }
  EXPECT_EQ(service.open_streams(), 0u);
  EXPECT_EQ(service.PushFrames(0, {streams::Frame{}}).status().code(),
            StatusCode::kNotFound);
}

TEST(RecognitionServiceTest, EvaluationsCounterMatchesAStandaloneRecognizer) {
  // Every evaluation is one eigen solve; /metrics counts them over pushes
  // and the close, batch by batch, as a standalone recognizer does.
  constexpr size_t kChannels = 6;
  const std::vector<streams::Frame> frames =
      MotionFrames(400, 150, kChannels, 0.5);
  obs::MetricsRegistry metrics;
  RecognitionService service({}, &metrics);
  recognition::Vocabulary vocabulary;
  for (int variant = 0; variant < 2; ++variant) {
    const std::string label = variant == 0 ? "wave" : "twist";
    ASSERT_TRUE(
        service.AddVocabularyEntry(label, MotionTemplate(kChannels, variant))
            .ok());
    vocabulary.Add(label, MotionTemplate(kChannels, variant));
  }
  ASSERT_TRUE(service.OpenStream(3).ok());
  for (size_t at = 0; at < frames.size(); at += 64) {
    const std::vector<streams::Frame> batch(
        frames.begin() + static_cast<ptrdiff_t>(at),
        frames.begin() + static_cast<ptrdiff_t>(std::min(at + 64, frames.size())));
    ASSERT_TRUE(service.PushFrames(3, batch).ok());
  }
  ASSERT_TRUE(service.CloseStream(3).ok());

  recognition::WeightedSvdSimilarity measure(/*rank=*/0);
  recognition::StreamRecognizer standalone(&vocabulary, &measure, {});
  for (const streams::Frame& frame : frames) {
    ASSERT_TRUE(standalone.Push(frame).ok());
  }
  ASSERT_TRUE(standalone.Finish().ok());
  ASSERT_GT(standalone.evaluations(), 0u);
  EXPECT_EQ(metrics.GetCounter("recognition.evaluations")->value(),
            standalone.evaluations());
}

TEST(AimsServerTest, MalformedTemplatesRejected) {
  ServerConfig config;
  config.num_shards = 1;
  config.num_threads = 1;
  AimsServer server(config);
  EXPECT_EQ(server.AddVocabularyEntry("empty", linalg::Matrix(0, 0)).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(server.AddVocabularyEntry("one-frame", linalg::Matrix(1, 6)).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(server.AddVocabularyEntry("no-channels", linalg::Matrix(8, 0))
                .code(),
            StatusCode::kInvalidArgument);
  // Nothing was registered: recognition still needs a vocabulary.
  EXPECT_EQ(server.OpenSession({1, /*enable_recognition=*/true}).status().code(),
            StatusCode::kFailedPrecondition);
  for (double bad : {std::numeric_limits<double>::quiet_NaN(),
                     std::numeric_limits<double>::infinity(),
                     -std::numeric_limits<double>::infinity()}) {
    linalg::Matrix segment = MotionTemplate(6, 0);
    segment.At(5, 2) = bad;
    EXPECT_EQ(server.AddVocabularyEntry("non-finite", segment).code(),
              StatusCode::kInvalidArgument);
  }
  ASSERT_TRUE(server.AddVocabularyEntry("wave", MotionTemplate(6, 0)).ok());
  EXPECT_EQ(server.AddVocabularyEntry("narrow", MotionTemplate(5, 1)).code(),
            StatusCode::kInvalidArgument);
  ASSERT_TRUE(server.OpenSession({1, true}).ok());
  auto streamed = server.StreamSamples({1, MotionFrames(120, 80, 6, 0.0)});
  ASSERT_TRUE(streamed.ok()) << streamed.status().ToString();
  EXPECT_EQ(streamed->frames_pushed, 120u);
  ASSERT_TRUE(server.CloseSession({1}).ok());
}

TEST(AimsServerTest, MalformedFramesRejectedAndStreamKeepsRecognizing) {
  ServerConfig config;
  config.num_shards = 1;
  config.num_threads = 1;
  AimsServer server(config);
  recognition::Vocabulary vocabulary;
  for (int v = 0; v < 2; ++v) {
    linalg::Matrix segment = MotionTemplate(28, v);
    vocabulary.Add(v == 0 ? "wave" : "twist", segment);
    ASSERT_TRUE(server.AddVocabularyEntry(v == 0 ? "wave" : "twist", segment)
                    .ok());
  }
  ASSERT_TRUE(server.OpenSession({1, /*enable_recognition=*/true}).ok());
  std::vector<streams::Frame> frames;
  for (int motion = 0; motion < 3; ++motion) {
    for (streams::Frame& f : MotionFrames(160, 90, 28, 0.7 * motion)) {
      frames.push_back(std::move(f));
    }
  }
  // 40 good frames, one of another width, 19 more: rejected whole.
  for (size_t width : {size_t{0}, size_t{20}}) {
    std::vector<streams::Frame> batch(frames.begin(), frames.begin() + 60);
    batch[40].values.assign(width, 1.0);
    EXPECT_EQ(server.StreamSamples({1, batch}).status().code(),
              StatusCode::kInvalidArgument);
  }
  // So is a batch whose frame 40 holds one NaN or infinite value.
  for (double bad : {std::numeric_limits<double>::quiet_NaN(),
                     std::numeric_limits<double>::infinity(),
                     -std::numeric_limits<double>::infinity()}) {
    std::vector<streams::Frame> batch(frames.begin(), frames.begin() + 60);
    batch[40].values[3] = bad;
    EXPECT_EQ(server.StreamSamples({1, batch}).status().code(),
              StatusCode::kInvalidArgument);
  }
  // No frame of those batches reached the recognizer: the stream yields
  // exactly the events of a recognizer fed only the good frames.
  std::vector<recognition::RecognitionEvent> served;
  for (size_t first = 0; first < frames.size(); first += 64) {
    const size_t last = std::min(first + 64, frames.size());
    auto streamed = server.StreamSamples(
        {1, std::vector<streams::Frame>(frames.begin() + first,
                                        frames.begin() + last)});
    ASSERT_TRUE(streamed.ok()) << streamed.status().ToString();
    served.insert(served.end(), streamed->events.begin(),
                  streamed->events.end());
  }
  auto closed = server.CloseSession({1});
  ASSERT_TRUE(closed.ok());
  if (closed->final_event.has_value()) served.push_back(*closed->final_event);

  recognition::WeightedSvdSimilarity measure;
  recognition::StreamRecognizer reference(&vocabulary, &measure,
                                          config.recognizer);
  std::vector<recognition::RecognitionEvent> expected;
  for (const streams::Frame& frame : frames) {
    auto event = reference.Push(frame);
    ASSERT_TRUE(event.ok());
    if (event->has_value()) expected.push_back(**event);
  }
  auto last = reference.Finish();
  ASSERT_TRUE(last.ok());
  if (last->has_value()) expected.push_back(**last);
  ASSERT_GE(expected.size(), 2u);
  ASSERT_EQ(served.size(), expected.size());
  for (size_t e = 0; e < served.size(); ++e) {
    EXPECT_EQ(served[e].label, expected[e].label);
    EXPECT_EQ(served[e].start_frame, expected[e].start_frame);
    EXPECT_EQ(served[e].end_frame, expected[e].end_frame);
  }
}

TEST(AimsServerTest, RaggedRecordingIsRejectedAndServerKeepsServing) {
  // A client can fill Recording::frames directly, so frames of mixed
  // widths reach the server without passing Recording::Append's check.
  ServerConfig config;
  config.num_shards = 1;
  config.num_threads = 1;
  AimsServer server(config);
  ASSERT_TRUE(server.OpenSession({1}).ok());
  for (size_t width : {size_t{0}, size_t{1}, size_t{4}}) {
    streams::Recording ragged = MakeRecording(64, 3, 1.0);
    ragged.frames[10].values.assign(width, 1.0);
    auto rejected = server.IngestRecording({1, "ragged", std::move(ragged)});
    EXPECT_EQ(rejected.status().code(), StatusCode::kInvalidArgument)
        << "width " << width;
  }
  EXPECT_EQ(server.catalog().total_sessions(), 0u);
  const streams::Recording good = MakeRecording(64, 3, 2.0);
  auto stored = server.IngestRecording({1, "good", good});
  ASSERT_TRUE(stored.ok()) << stored.status().ToString();
  auto stats = server.catalog().QueryRange(stored->session, 2, 0, 63);
  ASSERT_TRUE(stats.ok());
  EXPECT_NEAR(stats->sum, ChannelSum(good, 2), 1e-9);
  server.Shutdown();
}

TEST(AimsServerTest, VocabularyUpdatesRaceStreamLifecycles) {
  // AddVocabularyEntry against streams opening, evaluating (which fills the
  // lazy template-spectra cache), flushing and closing. Under TSan this is
  // the race check; everywhere, every call returns one of its documented
  // outcomes and the streams keep working.
  ServerConfig config;
  config.num_shards = 1;
  config.num_threads = 1;
  AimsServer server(config);
  ASSERT_TRUE(server.AddVocabularyEntry("wave", MotionTemplate(6, 0)).ok());
  constexpr size_t kClients = 2;
  constexpr size_t kRounds = 20;
  std::atomic<size_t> client_failures{0};
  std::atomic<size_t> rounds_left{kClients * kRounds};
  std::vector<std::thread> threads;
  for (size_t client = 0; client < kClients; ++client) {
    threads.emplace_back([&, client] {
      const std::vector<streams::Frame> frames =
          MotionFrames(60, 45, 6, static_cast<double>(client));
      for (size_t round = 0; round < kRounds; ++round) {
        bool ok = server.OpenSession({client, true}).ok();
        ok = ok && server.StreamSamples({client, frames}).ok();
        ok = ok && server.CloseSession({client}).ok();
        if (!ok) client_failures.fetch_add(1);
        rounds_left.fetch_sub(1);
      }
    });
  }
  // Cap the growth: every stream diagonalizes every template once.
  size_t added = 0, unexpected = 0;
  while (rounds_left.load() > 0) {
    if (added < 64) {
      Status status = server.AddVocabularyEntry(
          "t" + std::to_string(added), MotionTemplate(6, static_cast<int>(added)));
      if (status.ok()) {
        ++added;
      } else if (status.code() != StatusCode::kFailedPrecondition) {
        ++unexpected;
      }
    }
    std::this_thread::yield();
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(client_failures.load(), 0u);
  EXPECT_EQ(unexpected, 0u);
  EXPECT_TRUE(server.AddVocabularyEntry("after", MotionTemplate(6, 9)).ok());
}

TEST(AimsServerTest, EndToEndMultiTenant) {
  ServerConfig config;
  config.num_shards = 2;
  config.num_threads = 2;
  config.admission.queue_capacity = 16;
  AimsServer server(config);

  constexpr size_t kClients = 2;
  constexpr size_t kPerClient = 3;
  std::mutex ids_mutex;
  std::vector<GlobalSessionId> ids;

  std::vector<std::thread> clients;
  for (size_t client = 0; client < kClients; ++client) {
    clients.emplace_back([&, client] {
      ASSERT_TRUE(server.OpenSession({client}).ok());
      for (size_t i = 0; i < kPerClient; ++i) {
        streams::Recording rec =
            MakeRecording(64, 3, static_cast<double>(client * 100 + i));
        auto stored =
            server.IngestRecording({client, "session", std::move(rec)});
        ASSERT_TRUE(stored.ok()) << stored.status().ToString();
        std::lock_guard<std::mutex> lock(ids_mutex);
        ids.push_back(stored->session);
      }
      // Interleave queries with the other tenant's ingests.
      std::vector<GlobalSessionId> snapshot;
      {
        std::lock_guard<std::mutex> lock(ids_mutex);
        snapshot = ids;
      }
      for (GlobalSessionId id : snapshot) {
        auto stats = server.catalog().QueryRange(id, 0, 0, 63);
        EXPECT_TRUE(stats.ok()) << stats.status().ToString();
      }
    });
  }
  for (auto& t : clients) t.join();

  EXPECT_EQ(server.catalog().total_sessions(), kClients * kPerClient);
  {
    std::lock_guard<std::mutex> lock(ids_mutex);
    EXPECT_EQ(ids.size(), kClients * kPerClient);
    for (GlobalSessionId id : ids) {
      EXPECT_TRUE(server.catalog().GetSession(id).ok());
    }
  }
  std::string dump = server.metrics().DumpText();
  EXPECT_NE(dump.find("counter ingest.completed 6"), std::string::npos);
  // Each ingest's root span is one observation of its stage histogram.
  EXPECT_NE(dump.find("histogram span.ingest_ms count 6 "), std::string::npos);

  server.Shutdown();
  server.Shutdown();  // Idempotent.
  // Post-shutdown submissions are refused, not lost silently.
  EXPECT_EQ(server.IngestRecording({0, "late", MakeRecording(32, 2, 0.0)})
                .status()
                .code(),
            StatusCode::kFailedPrecondition);
}

TEST(AimsServerTest, ShutdownDrainsAdmittedWork) {
  ServerConfig config;
  config.num_shards = 2;
  config.num_threads = 2;
  AimsServer server(config);
  constexpr size_t kClients = 8;
  for (ClientId client = 0; client < kClients; ++client) {
    ASSERT_TRUE(server.OpenSession({client}).ok());
  }
  std::vector<Status> outcomes(kClients);
  std::vector<std::thread> clients;
  for (ClientId client = 0; client < kClients; ++client) {
    clients.emplace_back([&, client] {
      outcomes[client] =
          server
              .IngestRecording({client, "pending",
                                MakeRecording(64, 2, static_cast<double>(client))})
              .status();
    });
  }
  // Shut down with ingests in flight.
  obs::Counter* admitted = server.metrics().GetCounter("ingest.admitted");
  while (admitted->value() == 0) std::this_thread::yield();
  server.Shutdown();  // Must not drop an admitted recording.
  const uint64_t completed =
      server.metrics().GetCounter("ingest.completed")->value();
  EXPECT_GE(admitted->value(), 1u);
  EXPECT_EQ(completed, admitted->value());
  EXPECT_EQ(server.catalog().total_sessions(), completed);
  for (std::thread& t : clients) t.join();
  for (const Status& outcome : outcomes) {
    EXPECT_TRUE(outcome.ok() ||
                outcome.code() == StatusCode::kFailedPrecondition)
        << outcome.ToString();
  }
}

TEST(AimsServerTest, IngestRunsWithTheOnlyPoolWorkerBusy) {
  ServerConfig config;
  config.num_shards = 1;
  config.num_threads = 1;
  AimsServer server(config);
  ASSERT_TRUE(server.OpenSession({1}).ok());

  std::promise<void> release;
  std::shared_future<void> released(release.get_future());
  std::promise<void> parked;
  ASSERT_TRUE(server.pool().Submit([&parked, released] {
    parked.set_value();
    released.wait();
  }));
  parked.get_future().wait();

  auto ingest = std::async(std::launch::async, [&server] {
    return server.IngestRecording({1, "rec", MakeRecording(64, 2, 1.0)});
  });
  // The ingest needs no pool worker, so it lands while the only one is
  // parked. The worker is released either way, so a failure cannot hang.
  const bool landed =
      ingest.wait_for(std::chrono::seconds(5)) == std::future_status::ready;
  release.set_value();
  EXPECT_TRUE(landed) << "IngestRecording waited for a pool worker";
  auto stored = ingest.get();
  EXPECT_TRUE(stored.ok()) << stored.status().ToString();
  EXPECT_EQ(server.catalog().total_sessions(), 1u);
}

TEST(ThreadPoolTest, DrainsQueueOnShutdown) {
  std::atomic<int> ran{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 32; ++i) {
      ASSERT_TRUE(pool.Submit([&ran] { ran.fetch_add(1); }));
    }
    pool.Shutdown();
    EXPECT_EQ(ran.load(), 32);
    EXPECT_FALSE(pool.Submit([] {}));  // Closed for business.
  }
}

}  // namespace
}  // namespace aims::server
