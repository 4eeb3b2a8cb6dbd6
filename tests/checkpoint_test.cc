// Incremental checkpoints: the WAL's two files and their rotation, the
// catalog delta log, what a checkpoint writes (only the catalog changes
// committed since the last one; the base only at open and in compaction),
// that a failed checkpoint never fails the committed ingest that began it,
// and that a checkpoint's I/O runs beside queries and later ingests on its
// shard.

#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/crc32.h"
#include "core/aims.h"
#include "server/sharded_catalog.h"
#include "storage/tslife.h"
#include "storage/wal.h"
#include "streams/sample.h"

namespace aims {
namespace {

using storage::durable::CatalogLog;
using storage::durable::WriteAheadLog;
using storage::durable::testing::CheckpointStep;

std::string TestDir(const std::string& name) {
  std::string dir = ::testing::TempDir() + "aims_checkpoint_" + name + "_" +
                    std::to_string(::getpid());
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

streams::Recording MakeRecording(size_t frames, size_t channels,
                                 uint32_t seed) {
  streams::Recording rec;
  rec.sample_rate_hz = 100.0;
  for (size_t f = 0; f < frames; ++f) {
    streams::Frame frame;
    frame.timestamp = static_cast<double>(f) / 100.0;
    frame.values.resize(channels);
    for (size_t c = 0; c < channels; ++c) {
      frame.values[c] =
          std::sin(0.03 * static_cast<double>(f + 1) *
                   static_cast<double>(c + 2) + static_cast<double>(seed)) +
          0.5 * std::cos(0.17 * static_cast<double>(f) -
                         static_cast<double>(seed));
    }
    rec.Append(std::move(frame));
  }
  return rec;
}

std::vector<uint8_t> FileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::vector<uint8_t>((std::istreambuf_iterator<char>(in)),
                              std::istreambuf_iterator<char>());
}

bool BitIdentical(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

/// Every channel of \p id in \p system equals the lone in-memory ingest of
/// \p recording, bit for bit.
void ExpectStoredExactly(const core::AimsSystem& system, core::SessionId id,
                         const streams::Recording& recording) {
  core::AimsSystem reference;
  const core::SessionId ref = reference.IngestRecording("ref", recording)
                                  .ValueOrDie();
  for (size_t c = 0; c < recording.num_channels(); ++c) {
    auto got = system.ReadChannel(id, c);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    EXPECT_TRUE(BitIdentical(*got, reference.ReadChannel(ref, c).ValueOrDie()))
        << "session " << id << " channel " << c;
  }
}

core::AimsConfig DurableAt(const std::string& dir, size_t checkpoint_bytes) {
  core::AimsConfig config;
  config.durability.path = dir;
  config.durability.checkpoint_wal_bytes = checkpoint_bytes;
  return config;
}

// ---- WAL rotation -----------------------------------------------------------

uint64_t CommitOne(WriteAheadLog* wal, uint8_t tag) {
  const uint64_t txn = wal->BeginTxn().ValueOrDie();
  EXPECT_TRUE(wal->AppendCatalog(txn, {tag}).ok());
  EXPECT_TRUE(wal->Commit(txn).ok());
  return txn;
}

std::vector<uint64_t> CommittedTxns(const WriteAheadLog::Opened& opened) {
  std::vector<uint64_t> txns;
  for (const auto& txn : opened.committed) txns.push_back(txn.txn_id);
  return txns;
}

TEST(WalRotation, RetiredFileReplaysFirstUntilItIsDropped) {
  const std::string dir = TestDir("wal_rotate");
  const std::string a = dir + "/wal.aims", b = dir + "/wal.1.aims";
  uint64_t t1 = 0, t2 = 0, t3 = 0;
  {
    auto opened = WriteAheadLog::Open(a, {}, b);
    ASSERT_TRUE(opened.ok()) << opened.status().ToString();
    WriteAheadLog& wal = *opened.ValueOrDie().wal;
    t1 = CommitOne(&wal, 1);
    const uint64_t lag_before = wal.lag_bytes();
    ASSERT_TRUE(wal.Rotate().ok());
    // The retired file still counts: its groups are not checkpointed yet.
    EXPECT_EQ(wal.lag_bytes(), lag_before);
    t2 = CommitOne(&wal, 2);
    EXPECT_EQ(wal.Rotate().code(), StatusCode::kFailedPrecondition);
  }
  {
    // Both files hold groups: the retired one's replay first.
    auto opened = WriteAheadLog::Open(a, {}, b);
    ASSERT_TRUE(opened.ok());
    EXPECT_EQ(CommittedTxns(opened.ValueOrDie()),
              (std::vector<uint64_t>{t1, t2}));
    WriteAheadLog& wal = *opened.ValueOrDie().wal;
    EXPECT_EQ(wal.Rotate().code(), StatusCode::kFailedPrecondition);
    const uint64_t checkpoints = wal.Stats().checkpoints;
    ASSERT_TRUE(wal.DropRetired().ok());
    EXPECT_EQ(wal.Stats().checkpoints, checkpoints + 1);
    EXPECT_GT(wal.lag_bytes(), 0u);  // t2 is still in the active file
    t3 = CommitOne(&wal, 3);
    // The dropped file is the next rotation's target.
    ASSERT_TRUE(wal.Rotate().ok());
    ASSERT_TRUE(wal.DropRetired().ok());
    EXPECT_EQ(wal.lag_bytes(), 0u);
  }
  auto reopened = WriteAheadLog::Open(a, {}, b);
  ASSERT_TRUE(reopened.ok());
  EXPECT_TRUE(reopened.ValueOrDie().committed.empty());
  // Ids keep advancing past every group the dropped files held.
  EXPECT_GT(reopened.ValueOrDie().wal->BeginTxn().ValueOrDie(), t3);
  // A one-file log cannot rotate.
  auto single = WriteAheadLog::Open(dir + "/single.aims");
  ASSERT_TRUE(single.ok());
  EXPECT_EQ(single.ValueOrDie().wal->Rotate().code(),
            StatusCode::kFailedPrecondition);
}

TEST(WalRotation, RotateSyncsCommitsNobodyWaitedFor) {
  const std::string dir = TestDir("wal_rotate_sync");
  auto opened =
      WriteAheadLog::Open(dir + "/wal.aims", {}, dir + "/wal.1.aims");
  ASSERT_TRUE(opened.ok());
  WriteAheadLog& wal = *opened.ValueOrDie().wal;
  const uint64_t txn = wal.BeginTxn().ValueOrDie();
  const uint64_t ticket = wal.AppendCommit(txn).ValueOrDie();
  const uint64_t syncs = wal.Stats().syncs;
  ASSERT_TRUE(wal.Rotate().ok());
  // The old file was synced by the rotation, so the wait has nothing left
  // to do, and a later sync of the new file does not have to cover it.
  EXPECT_EQ(wal.Stats().syncs, syncs + 1);
  ASSERT_TRUE(wal.WaitDurable(ticket).ok());
  EXPECT_EQ(wal.Stats().syncs, syncs + 1);
}

// ---- The catalog delta log ---------------------------------------------------

std::vector<uint8_t> Framed(const std::string& payload) {
  std::vector<uint8_t> framed(CatalogLog::kFrameBytes + payload.size());
  std::memcpy(framed.data() + CatalogLog::kFrameBytes, payload.data(),
              payload.size());
  return framed;
}

/// Opens the log at \p path; the visited payloads land in \p seen.
Result<std::unique_ptr<CatalogLog>> OpenLog(const std::string& path,
                                            std::vector<std::string>* seen) {
  seen->clear();
  return CatalogLog::Open(path, [seen](std::span<const uint8_t> payload) {
    seen->emplace_back(payload.begin(), payload.end());
    return Status::OK();
  });
}

TEST(CatalogLogTest, TornLastRecordIsDiscardedAndEarlierDamageIsAnError) {
  const std::string path = TestDir("catalog_log") + "/catalog.log";
  std::vector<std::string> seen;
  uint64_t full_size = 0;
  {
    auto log = OpenLog(path, &seen);
    ASSERT_TRUE(log.ok()) << log.status().ToString();
    for (const char* payload : {"first", "second", "third"}) {
      std::vector<uint8_t> framed = Framed(payload);
      ASSERT_TRUE((*log)->Append(&framed).ok());
    }
    full_size = (*log)->size_bytes();
  }
  ASSERT_TRUE(OpenLog(path, &seen).ok());
  EXPECT_EQ(seen, (std::vector<std::string>{"first", "second", "third"}));

  const std::vector<uint8_t> intact = FileBytes(path);
  ASSERT_EQ(intact.size(), full_size);
  auto write = [&](const std::vector<uint8_t>& bytes) {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(reinterpret_cast<const char*>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
  };
  // Every cut inside the last record is a torn append: dropped, and the
  // file shrinks back to the records before it.
  const size_t third_start = full_size - (CatalogLog::kFrameBytes + 5);
  for (size_t cut = third_start + 1; cut < full_size; ++cut) {
    write(std::vector<uint8_t>(intact.begin(), intact.begin() + cut));
    auto log = OpenLog(path, &seen);
    ASSERT_TRUE(log.ok()) << "cut at " << cut;
    EXPECT_EQ(seen, (std::vector<std::string>{"first", "second"}));
    EXPECT_EQ((*log)->size_bytes(), third_start);
    EXPECT_EQ(std::filesystem::file_size(path), third_start);
  }
  // A damaged last record is torn too; a damaged earlier one is not.
  std::vector<uint8_t> damaged = intact;
  damaged[full_size - 1] ^= 0x40;
  write(damaged);
  ASSERT_TRUE(OpenLog(path, &seen).ok());
  EXPECT_EQ(seen.size(), 2u);
  damaged = intact;
  damaged[third_start - 1] ^= 0x40;  // inside "second"
  write(damaged);
  auto refused = OpenLog(path, &seen);
  EXPECT_EQ(refused.status().code(), StatusCode::kIoError);
  write({'n', 'o', 't', ' ', 'a', ' ', 'l', 'o', 'g'});
  EXPECT_EQ(OpenLog(path, &seen).status().code(), StatusCode::kIoError);
}

// ---- What a checkpoint writes ------------------------------------------------

/// The catalog entries and segment ops of every committed group in the
/// one-file WAL at \p path, one list per group.
std::vector<std::vector<std::vector<uint8_t>>> GroupItems(
    const std::string& path) {
  std::vector<std::vector<std::vector<uint8_t>>> groups;
  auto opened = WriteAheadLog::Open(path);
  EXPECT_TRUE(opened.ok()) << opened.status().ToString();
  if (!opened.ok()) return groups;
  for (const auto& txn : opened.ValueOrDie().committed) {
    std::vector<std::vector<uint8_t>> items = txn.catalog_blobs;
    items.insert(items.end(), txn.segment_blobs.begin(),
                 txn.segment_blobs.end());
    groups.push_back(std::move(items));
  }
  return groups;
}

TEST(DurableCheckpoint, EachCheckpointAppendsOnlyItsOwnCatalogChanges) {
  // Checkpointing after every ingest: the base is written at open and
  // never again, and each checkpoint appends one record holding exactly
  // its ingest's catalog entry and segment ops — the bytes its WAL group
  // carried, as a twin without checkpoints logs them.
  const std::string dir = TestDir("append_only");
  constexpr size_t kIngests = 4;
  std::vector<streams::Recording> recordings;
  for (size_t i = 0; i < kIngests; ++i) {
    recordings.push_back(MakeRecording(150 + 40 * i, 2, 30 + i));
  }
  {
    core::AimsSystem twin(DurableAt(dir + "/twin", 0));
    for (size_t i = 0; i < kIngests; ++i) {
      ASSERT_TRUE(twin.IngestRecording("s" + std::to_string(i), recordings[i])
                      .ok());
    }
  }
  const auto groups = GroupItems(dir + "/twin/wal.aims");
  ASSERT_EQ(groups.size(), kIngests);

  const std::string store = dir + "/store";
  const std::string log_path = store + "/catalog.log";
  {
    core::AimsSystem system(DurableAt(store, 1));
    ASSERT_TRUE(system.init_status().ok()) << system.init_status().ToString();
    const std::vector<uint8_t> base = FileBytes(store + "/catalog.snap");
    const auto base_written =
        std::filesystem::last_write_time(store + "/catalog.snap");
    uint64_t log_size = std::filesystem::file_size(log_path);
    for (size_t i = 0; i < kIngests; ++i) {
      ASSERT_TRUE(system.IngestRecording("s" + std::to_string(i),
                                         recordings[i])
                      .ok());
      EXPECT_EQ(system.WalStats().lag_bytes, 0u);
      // frame, covered txn, then kind u8 + size u32 + bytes per item.
      std::vector<uint8_t> want(CatalogLog::kFrameBytes);
      const uint64_t txn = i + 1;
      want.insert(want.end(), reinterpret_cast<const uint8_t*>(&txn),
                  reinterpret_cast<const uint8_t*>(&txn) + sizeof(txn));
      for (size_t k = 0; k < groups[i].size(); ++k) {
        want.push_back(k == 0 ? 1 : 2);
        const uint32_t size = static_cast<uint32_t>(groups[i][k].size());
        want.insert(want.end(), reinterpret_cast<const uint8_t*>(&size),
                    reinterpret_cast<const uint8_t*>(&size) + sizeof(size));
        want.insert(want.end(), groups[i][k].begin(), groups[i][k].end());
      }
      const uint64_t new_size = std::filesystem::file_size(log_path);
      ASSERT_EQ(new_size - log_size, want.size()) << "ingest " << i;
      const std::vector<uint8_t> log = FileBytes(log_path);
      EXPECT_TRUE(std::equal(want.begin() + CatalogLog::kFrameBytes,
                             want.end(),
                             log.begin() + log_size + CatalogLog::kFrameBytes))
          << "ingest " << i;
      log_size = new_size;
    }
    EXPECT_EQ(FileBytes(store + "/catalog.snap"), base);
    EXPECT_EQ(std::filesystem::last_write_time(store + "/catalog.snap"),
              base_written);
  }
  core::AimsSystem reopened(DurableAt(store, 1));
  ASSERT_TRUE(reopened.init_status().ok());
  // The deltas carried everything: no WAL group is left to replay.
  EXPECT_EQ(reopened.WalStats().recovered_txns, 0u);
  ASSERT_EQ(reopened.ListSessions().size(), kIngests);
  for (size_t i = 0; i < kIngests; ++i) {
    EXPECT_EQ(reopened.ListSessions()[i].name, "s" + std::to_string(i));
    ExpectStoredExactly(reopened, static_cast<core::SessionId>(i),
                        recordings[i]);
  }
}

/// Drops every raw segment older than the data, so its bytes are dead.
storage::tslife::RetentionPolicy DropEverything() {
  storage::tslife::RetentionPolicy policy;
  policy.drop_age_seconds = 1e-6;
  return policy;
}

TEST(DurableCheckpoint, CompactionRewritesTheBaseOnceDeadBytesOutweighLive) {
  const std::string dir = TestDir("compaction");
  const std::vector<streams::Recording> recordings = {
      MakeRecording(300, 2, 41), MakeRecording(200, 2, 42),
      MakeRecording(100, 1, 43)};
  {
    core::AimsSystem system(DurableAt(dir, 1));
    ASSERT_TRUE(system.init_status().ok());
    ASSERT_TRUE(system.IngestRecording("a", recordings[0]).ok());
    const std::vector<uint8_t> base = FileBytes(dir + "/catalog.snap");
    ASSERT_TRUE(system.SweepRetention(DropEverything(), 1'000'000'000).ok());
    // The sweep's group is in the WAL; the next checkpoint compacts: the
    // dropped segments and the drops are more bytes than the live entry.
    ASSERT_TRUE(system.IngestRecording("b", recordings[1]).ok());
    EXPECT_NE(FileBytes(dir + "/catalog.snap"), base);
    EXPECT_EQ(std::filesystem::file_size(dir + "/catalog.log"), 8u);
    EXPECT_EQ(system.WalStats().lag_bytes, 0u);
    // An ingest after it appends a delta again.
    const std::vector<uint8_t> compacted = FileBytes(dir + "/catalog.snap");
    ASSERT_TRUE(system.IngestRecording("c", recordings[2]).ok());
    EXPECT_EQ(FileBytes(dir + "/catalog.snap"), compacted);
    EXPECT_GT(std::filesystem::file_size(dir + "/catalog.log"), 8u);
  }
  core::AimsSystem reopened(DurableAt(dir, 1));
  ASSERT_TRUE(reopened.init_status().ok());
  ASSERT_EQ(reopened.ListSessions().size(), 3u);
  EXPECT_TRUE(reopened.ListSegments(0).ValueOrDie().empty());
  EXPECT_FALSE(reopened.ListSegments(1).ValueOrDie().empty());
  for (size_t i = 0; i < recordings.size(); ++i) {
    ExpectStoredExactly(reopened, static_cast<core::SessionId>(i),
                        recordings[i]);
  }
}

TEST(DurableCheckpoint, StoreWithOneWalFileAndNoCatalogLogOpens) {
  // The layout stores had before the delta log: catalog.snap plus one
  // wal.aims holding the groups since it was written.
  const std::string dir = TestDir("one_wal_file");
  const streams::Recording a = MakeRecording(200, 2, 51);
  const streams::Recording b = MakeRecording(120, 3, 52);
  {
    core::AimsSystem system(DurableAt(dir, 0));
    ASSERT_TRUE(system.IngestRecording("a", a).ok());
  }
  {
    // This open's base holds "a"; "b" stays in wal.aims.
    core::AimsSystem system(DurableAt(dir, 0));
    ASSERT_TRUE(system.IngestRecording("b", b).ok());
  }
  ASSERT_EQ(std::filesystem::file_size(dir + "/catalog.log"), 8u);
  ASSERT_EQ(std::filesystem::file_size(dir + "/wal.1.aims"), 16u);
  std::filesystem::remove(dir + "/catalog.log");
  std::filesystem::remove(dir + "/wal.1.aims");
  core::AimsSystem reopened(DurableAt(dir, 0));
  ASSERT_TRUE(reopened.init_status().ok())
      << reopened.init_status().ToString();
  EXPECT_EQ(reopened.WalStats().recovered_txns, 1u);
  ASSERT_EQ(reopened.ListSessions().size(), 2u);
  ExpectStoredExactly(reopened, 0, a);
  ExpectStoredExactly(reopened, 1, b);
}

TEST(DurableCheckpoint, VersionOneBaseStillOpens) {
  // A v1 base is a v2 one without the segment section: rewrite this
  // store's base (no raw-sample lifecycle, so the section is one zero
  // count) as v1 and drop the files newer stores have.
  const std::string dir = TestDir("v1_base");
  core::AimsConfig config = DurableAt(dir, 0);
  config.tslife.enabled = false;
  const streams::Recording a = MakeRecording(200, 2, 56);
  {
    core::AimsSystem system(config);
    ASSERT_TRUE(system.IngestRecording("a", a).ok());
  }
  { core::AimsSystem compacted(config); }  // the base now holds "a"
  std::vector<uint8_t> base = FileBytes(dir + "/catalog.snap");
  ASSERT_GT(base.size(), 12u);
  base.resize(base.size() - sizeof(uint32_t) - sizeof(uint64_t));
  const uint32_t v1 = 1;
  std::memcpy(base.data() + 4, &v1, sizeof(v1));
  const uint32_t crc = Crc32(base.data(), base.size());
  base.insert(base.end(), reinterpret_cast<const uint8_t*>(&crc),
              reinterpret_cast<const uint8_t*>(&crc) + sizeof(crc));
  {
    std::ofstream out(dir + "/catalog.snap", std::ios::binary | std::ios::trunc);
    out.write(reinterpret_cast<const char*>(base.data()),
              static_cast<std::streamsize>(base.size()));
  }
  std::filesystem::remove(dir + "/catalog.log");
  std::filesystem::remove(dir + "/wal.1.aims");
  core::AimsSystem reopened(config);
  ASSERT_TRUE(reopened.init_status().ok())
      << reopened.init_status().ToString();
  ASSERT_EQ(reopened.ListSessions().size(), 1u);
  ExpectStoredExactly(reopened, 0, a);
}

// ---- A failed checkpoint ------------------------------------------------------

TEST(DurableCheckpoint, FailedCheckpointDoesNotFailTheIngest) {
  // A directory where the compaction writes its new base makes the
  // checkpoint fail. The ingest that began it is committed, so it
  // succeeds; the checkpoint keeps its retired WAL file and is retried.
  const std::string dir = TestDir("failed_checkpoint");
  const std::vector<streams::Recording> recordings = {
      MakeRecording(300, 2, 61), MakeRecording(200, 2, 62),
      MakeRecording(150, 1, 63), MakeRecording(100, 2, 64)};
  {
    core::AimsSystem system(DurableAt(dir, 1));
    ASSERT_TRUE(system.IngestRecording("a", recordings[0]).ok());
    ASSERT_TRUE(system.SweepRetention(DropEverything(), 1'000'000'000).ok());
    std::filesystem::create_directories(dir + "/catalog.snap.tmp");
    auto b = system.IngestRecording("b", recordings[1]);
    ASSERT_TRUE(b.ok()) << b.status().ToString();
    EXPECT_GT(system.WalStats().lag_bytes, 0u);
    EXPECT_EQ(system.ListSessions().size(), 2u);
    EXPECT_TRUE(system.QueryRange(*b, 0, 10, 150).ok());
    // Still failing: the next ingest past the threshold retries, and is
    // not failed either.
    ASSERT_TRUE(system.IngestRecording("c", recordings[2]).ok());
    EXPECT_EQ(system.Checkpoint().code(), StatusCode::kIoError);
    std::filesystem::remove(dir + "/catalog.snap.tmp");
    ASSERT_TRUE(system.IngestRecording("d", recordings[3]).ok());
    ASSERT_TRUE(system.Checkpoint().ok());
    EXPECT_EQ(system.WalStats().lag_bytes, 0u);
  }
  core::AimsSystem reopened(DurableAt(dir, 1));
  ASSERT_TRUE(reopened.init_status().ok())
      << reopened.init_status().ToString();
  auto sessions = reopened.ListSessions();
  ASSERT_EQ(sessions.size(), 4u);
  for (size_t i = 0; i < sessions.size(); ++i) {
    EXPECT_EQ(sessions[i].name, std::string(1, static_cast<char>('a' + i)));
    ExpectStoredExactly(reopened, sessions[i].id, recordings[i]);
  }
}

TEST(DurableCheckpoint, FailedCheckpointDoesNotFailACatalogIngest) {
  const std::string dir = TestDir("failed_checkpoint_catalog");
  constexpr server::ClientId kClient = 5;
  server::GlobalSessionId a = 0, b = 0;
  {
    server::ShardedCatalog catalog(1, DurableAt(dir, 1));
    ASSERT_TRUE(catalog.init_status().ok());
    a = catalog.Ingest(kClient, "a", MakeRecording(300, 2, 71)).ValueOrDie();
    server::ShardedCatalog::TenantRetentionPolicies policies;
    policies.default_policy = DropEverything();
    ASSERT_TRUE(catalog.SweepRetention(policies, 1'000'000'000).ok());
    std::filesystem::create_directories(dir + "/shard_0/catalog.snap.tmp");
    auto ingested = catalog.Ingest(kClient, "b", MakeRecording(200, 2, 72));
    ASSERT_TRUE(ingested.ok()) << ingested.status().ToString();
    b = *ingested;
    // Routed at once, under its client.
    EXPECT_TRUE(catalog.GetSession(b).ok());
    EXPECT_TRUE(catalog.QueryRange(b, 1, 0, 199).ok());
    std::filesystem::remove(dir + "/shard_0/catalog.snap.tmp");
  }
  server::ShardedCatalog reopened(1, DurableAt(dir, 1));
  ASSERT_TRUE(reopened.init_status().ok());
  auto sessions = reopened.ListSessions();
  ASSERT_EQ(sessions.size(), 2u);
  EXPECT_EQ(sessions[0].id, a);
  EXPECT_EQ(sessions[1].id, b);
  for (const auto& entry : sessions) EXPECT_EQ(entry.client, kClient);
}

// ---- Checkpoint I/O off the shard lock -----------------------------------------

TEST(DurableCheckpoint, QueriesAndIngestsRunWhileACheckpointIsPaused) {
  // The checkpoint an ingest begins is held between its page sync and its
  // delta append. Queries and another ingest on the same shard complete
  // meanwhile: the shard lock is not held across the checkpoint's I/O.
  const std::string dir = TestDir("paused");
  const streams::Recording ra = MakeRecording(256, 2, 81);
  const streams::Recording rb = MakeRecording(200, 2, 82);
  const streams::Recording rc = MakeRecording(180, 2, 83);
  server::GlobalSessionId a = 0, b = 0, c = 0;
  {
    server::ShardedCatalog catalog(1, DurableAt(dir, 1));
    ASSERT_TRUE(catalog.init_status().ok());
    a = catalog.Ingest(1, "a", ra).ValueOrDie();

    std::mutex mutex;
    std::condition_variable cv;
    bool paused = false, released = false;
    storage::durable::testing::SetCheckpointStepHook([&](CheckpointStep step) {
      if (step != CheckpointStep::kPagesSynced) return;
      std::unique_lock<std::mutex> lock(mutex);
      if (paused) return;  // hold only the first checkpoint
      paused = true;
      cv.notify_all();
      cv.wait(lock, [&] { return released; });
    });
    std::thread ingest_b([&] { b = catalog.Ingest(1, "b", rb).ValueOrDie(); });
    {
      std::unique_lock<std::mutex> lock(mutex);
      ASSERT_TRUE(cv.wait_for(lock, std::chrono::seconds(30),
                              [&] { return paused; }));
    }
    EXPECT_TRUE(catalog.QueryRange(a, 0, 10, 200).ok());
    auto ingested = catalog.Ingest(1, "c", rc);
    ASSERT_TRUE(ingested.ok()) << ingested.status().ToString();
    c = *ingested;
    EXPECT_TRUE(catalog.QueryRange(c, 1, 0, 179).ok());
    {
      std::lock_guard<std::mutex> lock(mutex);
      released = true;
    }
    cv.notify_all();
    ingest_b.join();
    storage::durable::testing::SetCheckpointStepHook({});
    EXPECT_TRUE(catalog.QueryRange(b, 0, 0, 199).ok());
  }
  server::ShardedCatalog reopened(1, DurableAt(dir, 1));
  ASSERT_TRUE(reopened.init_status().ok());
  auto sessions = reopened.ListSessions();
  ASSERT_EQ(sessions.size(), 3u);
  const std::pair<server::GlobalSessionId, const streams::Recording*> want[] =
      {{a, &ra}, {b, &rb}, {c, &rc}};
  core::AimsSystem reference;
  for (const auto& [id, recording] : want) {
    const core::SessionId ref =
        reference.IngestRecording("ref", *recording).ValueOrDie();
    for (size_t ch = 0; ch < 2; ++ch) {
      EXPECT_TRUE(BitIdentical(reopened.ReadChannel(id, ch).ValueOrDie(),
                               reference.ReadChannel(ref, ch).ValueOrDie()));
    }
  }
}

TEST(DurableCheckpoint, ConcurrentIngestsAndQueriesAcrossManyCheckpoints) {
  // Ingest threads and query threads on one shard, each ingest trying to
  // checkpoint; every checkpoint's page sync, delta append and WAL drop
  // race the others' exclusive sections and shared reads.
  const std::string dir = TestDir("concurrent");
  constexpr size_t kWriters = 3;
  constexpr size_t kPerWriter = 8;
  core::AimsConfig config = DurableAt(dir, 1);
  config.durability.sync_mode = storage::durable::WalSyncMode::kNone;
  std::vector<std::pair<server::GlobalSessionId, uint32_t>> acked;
  {
    server::ShardedCatalog catalog(1, config);
    ASSERT_TRUE(catalog.init_status().ok());
    const server::GlobalSessionId first =
        catalog.Ingest(9, "seed", MakeRecording(128, 2, 999)).ValueOrDie();
    std::mutex mutex;
    std::atomic<bool> done{false};
    std::atomic<size_t> failures{0};
    std::vector<std::thread> threads;
    for (size_t w = 0; w < kWriters; ++w) {
      threads.emplace_back([&, w] {
        for (size_t i = 0; i < kPerWriter; ++i) {
          const uint32_t seed = static_cast<uint32_t>(100 * w + i);
          auto id = catalog.Ingest(9, "w" + std::to_string(seed),
                                   MakeRecording(96 + 8 * i, 2, seed));
          if (!id.ok()) {
            failures.fetch_add(1);
            continue;
          }
          std::lock_guard<std::mutex> lock(mutex);
          acked.emplace_back(*id, seed);
        }
      });
    }
    std::vector<std::thread> readers;
    for (size_t r = 0; r < 2; ++r) {
      readers.emplace_back([&, r] {
        while (!done.load()) {
          if (!catalog.QueryRange(first, r % 2, 3, 120).ok()) {
            failures.fetch_add(1);
          }
          std::this_thread::yield();
        }
      });
    }
    for (std::thread& t : threads) t.join();
    done.store(true);
    for (std::thread& t : readers) t.join();
    EXPECT_EQ(failures.load(), 0u);
    // An ingest between its phases makes the others skip their
    // checkpoint, so how many run depends on the interleaving; the last
    // write-back always begins one or finds one in flight (the first
    // count is the open's).
    EXPECT_GE(catalog.TotalWalStats().checkpoints, 2u);
  }
  server::ShardedCatalog reopened(1, config);
  ASSERT_TRUE(reopened.init_status().ok());
  ASSERT_EQ(acked.size(), kWriters * kPerWriter);
  EXPECT_EQ(reopened.total_sessions(), kWriters * kPerWriter + 1);
  core::AimsSystem reference;
  for (const auto& [id, seed] : acked) {
    const size_t i = seed % 100;
    const streams::Recording recording = MakeRecording(96 + 8 * i, 2, seed);
    const core::SessionId ref =
        reference.IngestRecording("ref", recording).ValueOrDie();
    for (size_t ch = 0; ch < 2; ++ch) {
      auto got = reopened.ReadChannel(id, ch);
      ASSERT_TRUE(got.ok()) << got.status().ToString();
      EXPECT_TRUE(
          BitIdentical(*got, reference.ReadChannel(ref, ch).ValueOrDie()))
          << "seed " << seed;
    }
  }
}

}  // namespace
}  // namespace aims
