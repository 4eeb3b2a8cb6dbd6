#include <unistd.h>

#include <atomic>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <future>
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
    ShardedCatalog catalog(1, config);
    ASSERT_TRUE(catalog.init_status().ok());

    std::mutex mutex;
    std::vector<std::pair<GlobalSessionId, double>> ingested;  // id, base
    std::vector<std::pair<GlobalSessionId, core::StandingRangeUpdate>> updates;
    catalog.SetIngestCommitHook(
        [&](GlobalSessionId id, ClientId,
            const std::vector<core::StandingRangeUpdate>& batch) {
          std::lock_guard<std::mutex> lock(mutex);
          for (const auto& update : batch) updates.emplace_back(id, update);
        });
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

TEST(IngestServiceTest, BackpressureIsBoundedAndAccounted) {
  constexpr size_t kCapacity = 4;
  constexpr size_t kSubmissions = 50;

  obs::MetricsRegistry metrics;
  ShardedCatalog catalog(1, {}, &metrics);
  ThreadPool pool(1);

  // Jam the single worker so nothing drains while we flood the queue.
  std::promise<void> release;
  std::shared_future<void> release_future(release.get_future());
  std::promise<void> worker_blocked;
  ASSERT_TRUE(pool.Submit([&worker_blocked, release_future]() mutable {
    worker_blocked.set_value();
    release_future.wait();
  }));
  worker_blocked.get_future().wait();

  IngestAdmissionPolicy policy;
  policy.queue_capacity = kCapacity;
  IngestService service(&catalog, &pool, policy, &metrics);

  streams::Recording rec = MakeRecording(32, 2, 1.0);
  size_t accepted = 0;
  size_t rejected = 0;
  for (size_t i = 0; i < kSubmissions; ++i) {
    Status status = service.Submit(0, "flood", rec);
    if (status.ok()) {
      ++accepted;
    } else {
      EXPECT_EQ(status.code(), StatusCode::kResourceExhausted);
      ++rejected;
    }
  }
  // The producer outran a fully-stalled consumer: exactly the queue
  // capacity was admitted, everything else was rejected, not buffered.
  EXPECT_EQ(accepted, kCapacity);
  EXPECT_EQ(rejected, kSubmissions - kCapacity);
  EXPECT_EQ(metrics.GetCounter("ingest.rejected_queue")->value(), rejected);
  EXPECT_EQ(metrics.GetCounter("ingest.admitted")->value(), accepted);
  EXPECT_LE(metrics.GetGauge("ingest.queue_depth")->max(),
            static_cast<int64_t>(kCapacity));

  release.set_value();
  service.Drain();
  EXPECT_EQ(metrics.GetCounter("ingest.completed")->value(), accepted);
  EXPECT_EQ(metrics.GetCounter("ingest.failed")->value(), 0u);
  EXPECT_EQ(catalog.total_sessions(), accepted);
  EXPECT_EQ(metrics.GetGauge("ingest.queue_depth")->value(), 0);
}

TEST(IngestServiceTest, GlobalCapacityCapRejects) {
  obs::MetricsRegistry metrics;
  ShardedCatalog catalog(1);
  ThreadPool pool(1);

  std::promise<void> release;
  std::shared_future<void> release_future(release.get_future());
  ASSERT_TRUE(pool.Submit([release_future] { release_future.wait(); }));

  IngestAdmissionPolicy policy;
  policy.queue_capacity = 8;
  policy.max_pending_total = 2;
  IngestService service(&catalog, &pool, policy, &metrics);

  streams::Recording rec = MakeRecording(32, 2, 1.0);
  EXPECT_TRUE(service.Submit(0, "a", rec).ok());
  EXPECT_TRUE(service.Submit(1, "b", rec).ok());
  Status third = service.Submit(2, "c", rec);
  EXPECT_EQ(third.code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(metrics.GetCounter("ingest.rejected_capacity")->value(), 1u);

  release.set_value();
  service.Drain();
  EXPECT_EQ(catalog.total_sessions(), 2u);
}

TEST(IngestServiceTest, RetriesTransientWriteFaults) {
  obs::MetricsRegistry metrics;
  ShardedCatalog catalog(1, {}, &metrics);
  ThreadPool pool(1);
  IngestAdmissionPolicy policy;
  policy.max_attempts = 3;
  IngestService service(&catalog, &pool, policy, &metrics);

  AdminFaultRequest fault;
  fault.shard = catalog.router().ShardForClient(0);
  fault.fail_next_writes = 1;
  ASSERT_TRUE(catalog.ApplyFault(fault).ok());
  Result<GlobalSessionId> outcome = Status::Internal("callback never ran");
  std::promise<void> done;
  ASSERT_TRUE(service
                  .Submit(0, "flaky", MakeRecording(32, 2, 1.0),
                          [&](const Result<GlobalSessionId>& result) {
                            outcome = result;
                            done.set_value();
                          })
                  .ok());
  done.get_future().wait();
  service.Drain();
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
  EXPECT_EQ(metrics.GetCounter("ingest.retries")->value(), 1u);
  EXPECT_EQ(metrics.GetCounter("ingest.completed")->value(), 1u);
  EXPECT_EQ(metrics.GetCounter("ingest.failed")->value(), 0u);
  EXPECT_TRUE(catalog.GetSession(*outcome).ok());
}

TEST(IngestServiceTest, PersistentFaultExhaustsAttemptsAndFails) {
  obs::MetricsRegistry metrics;
  ShardedCatalog catalog(1, {}, &metrics);
  ThreadPool pool(1);
  IngestAdmissionPolicy policy;
  policy.max_attempts = 2;
  IngestService service(&catalog, &pool, policy, &metrics);

  AdminFaultRequest fault;
  fault.shard = catalog.router().ShardForClient(0);
  fault.fail_next_writes = 1000;
  ASSERT_TRUE(catalog.ApplyFault(fault).ok());
  Result<GlobalSessionId> outcome = Status::Internal("callback never ran");
  std::promise<void> done;
  ASSERT_TRUE(service
                  .Submit(0, "doomed", MakeRecording(32, 2, 1.0),
                          [&](const Result<GlobalSessionId>& result) {
                            outcome = result;
                            done.set_value();
                          })
                  .ok());
  done.get_future().wait();
  service.Drain();
  EXPECT_FALSE(outcome.ok());
  EXPECT_EQ(outcome.status().code(), StatusCode::kIoError);
  EXPECT_EQ(metrics.GetCounter("ingest.retries")->value(), 1u);
  EXPECT_EQ(metrics.GetCounter("ingest.failed")->value(), 1u);
  EXPECT_EQ(catalog.total_sessions(), 0u);
  AdminFaultRequest disarm;
  disarm.shard = fault.shard;
  disarm.clear_faults = true;
  ASSERT_TRUE(catalog.ApplyFault(disarm).ok());
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
      for (size_t i = 0; i < kPerClient; ++i) {
        streams::Recording rec =
            MakeRecording(64, 3, static_cast<double>(client * 100 + i));
        Status status = server.ingest().Submit(
            client, "session", std::move(rec),
            [&](const Result<GlobalSessionId>& result) {
              if (result.ok()) {
                std::lock_guard<std::mutex> lock(ids_mutex);
                ids.push_back(*result);
              }
            });
        ASSERT_TRUE(status.ok()) << status.ToString();
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
  server.ingest().Drain();

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
  EXPECT_NE(dump.find("histogram catalog.ingest.latency_ms"),
            std::string::npos);

  server.Shutdown();
  server.Shutdown();  // Idempotent.
  // Post-shutdown submissions are refused, not lost silently.
  EXPECT_EQ(server.ingest()
                .Submit(0, "late", MakeRecording(32, 2, 0.0))
                .code(),
            StatusCode::kFailedPrecondition);
}

TEST(AimsServerTest, ShutdownDrainsAdmittedWork) {
  ServerConfig config;
  config.num_shards = 2;
  config.num_threads = 2;
  AimsServer server(config);
  for (size_t i = 0; i < 8; ++i) {
    ASSERT_TRUE(server.ingest()
                    .Submit(i, "pending",
                            MakeRecording(64, 2, static_cast<double>(i)))
                    .ok());
  }
  server.Shutdown();  // Must not drop the 8 admitted recordings.
  EXPECT_EQ(server.catalog().total_sessions(), 8u);
  EXPECT_EQ(server.metrics().GetCounter("ingest.completed")->value(), 8u);
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
