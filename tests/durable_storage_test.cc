// The durable storage stack: FileBlockDevice page-format integrity, WAL
// record groups + group commit + recovery scan, the write-back buffer
// pool, and AimsSystem reopen/recovery — including that the file backend
// runs the existing cache/EXPLAIN stack unchanged (ANALYZE reconciliation
// holds on a recovered store).

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <optional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/aims.h"
#include "obs/exporters.h"
#include "obs/stats_reporter.h"
#include "obs/tracer.h"
#include "obs/wal_stats.h"
#include "server/server.h"
#include "server/sharded_catalog.h"
#include "storage/block_cache.h"
#include "storage/block_device.h"
#include "storage/file_block_device.h"
#include "storage/wal.h"
#include "streams/sample.h"

namespace aims {
namespace {

using storage::durable::FileBlockDevice;
using storage::durable::WriteAheadLog;

/// Fresh empty directory under the test temp root.
std::string TestDir(const std::string& name) {
  std::string dir = ::testing::TempDir() + "aims_durable_" + name + "_" +
                    std::to_string(::getpid());
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

/// Deterministic multi-channel recording (pure function of seed/f/c, so a
/// reopened process can regenerate the identical input).
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
          std::sin(0.05 * static_cast<double>(f + 1) *
                   static_cast<double>(c + 1) + static_cast<double>(seed)) +
          0.25 * std::cos(0.11 * static_cast<double>(f) +
                          static_cast<double>(c));
    }
    rec.Append(std::move(frame));
  }
  return rec;
}

bool BitIdentical(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

std::vector<std::string> SpanNames(const obs::Trace& trace) {
  std::vector<std::string> names;
  for (const obs::TraceSpan& span : trace.spans()) {
    names.emplace_back(span.name);
  }
  return names;
}

bool HasSpan(const obs::Trace& trace, const std::string& name) {
  std::vector<std::string> names = SpanNames(trace);
  return std::find(names.begin(), names.end(), name) != names.end();
}

// ---- FileBlockDevice ----------------------------------------------------

TEST(FileBlockDevice, RoundTripSurvivesReopen) {
  std::string dir = TestDir("fbd_roundtrip");
  std::string path = dir + "/pages.aims";
  std::vector<uint8_t> a{1, 2, 3, 4};
  std::vector<uint8_t> b(64, 0xAB);
  {
    auto opened = FileBlockDevice::Open(path, 64);
    ASSERT_TRUE(opened.ok()) << opened.status().ToString();
    FileBlockDevice& dev = *opened.ValueOrDie();
    EXPECT_STREQ(dev.backend_name(), "file");
    EXPECT_EQ(dev.num_blocks(), 0u);
    storage::BlockId id0 = dev.Allocate();
    storage::BlockId id1 = dev.Allocate();
    storage::BlockId id2 = dev.Allocate();  // Allocated, never written.
    ASSERT_TRUE(dev.Write(id0, a).ok());
    ASSERT_TRUE(dev.Write(id1, b).ok());
    EXPECT_EQ(dev.Read(id0).ValueOrDie(), a);
    EXPECT_EQ(dev.Read(id1).ValueOrDie(), b);
    // Unwritten slot reads back empty, matching MemBlockDevice semantics.
    EXPECT_TRUE(dev.Read(id2).ValueOrDie().empty());
    ASSERT_TRUE(dev.SyncPages().ok());
  }
  // Reopen: block count comes back from the file length, payloads from
  // their checksummed slots.
  auto reopened = FileBlockDevice::Open(path, 64);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  FileBlockDevice& dev = *reopened.ValueOrDie();
  EXPECT_EQ(dev.num_blocks(), 3u);
  EXPECT_EQ(dev.Read(0).ValueOrDie(), a);
  EXPECT_EQ(dev.Read(1).ValueOrDie(), b);
  EXPECT_TRUE(dev.Read(2).ValueOrDie().empty());
}

TEST(FileBlockDevice, RejectsBlockSizeMismatch) {
  std::string path = TestDir("fbd_blocksize") + "/pages.aims";
  {
    auto opened = FileBlockDevice::Open(path, 64);
    ASSERT_TRUE(opened.ok());
  }
  auto mismatched = FileBlockDevice::Open(path, 128);
  ASSERT_FALSE(mismatched.ok());
  EXPECT_EQ(mismatched.status().code(), StatusCode::kInvalidArgument);
}

TEST(FileBlockDevice, DetectsPayloadCorruptionOnDisk) {
  std::string path = TestDir("fbd_bitrot") + "/pages.aims";
  auto opened = FileBlockDevice::Open(path, 64);
  ASSERT_TRUE(opened.ok());
  FileBlockDevice& dev = *opened.ValueOrDie();
  storage::BlockId id = dev.Allocate();
  ASSERT_TRUE(dev.Write(id, std::vector<uint8_t>(32, 0x5A)).ok());
  ASSERT_TRUE(dev.Read(id).ok());

  // Flip one payload byte on disk, behind the device's back: slot 0 lives
  // at superblock(64) + page header(24).
  {
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(f.good());
    f.seekp(64 + 24 + 5);
    char flipped = 0x5A ^ 0x10;
    f.write(&flipped, 1);
    ASSERT_TRUE(f.good());
  }
  auto read = dev.Read(id);
  ASSERT_FALSE(read.ok());
  EXPECT_EQ(read.status().code(), StatusCode::kIoError);
}

TEST(FileBlockDevice, DetectsTornPageHeader) {
  std::string path = TestDir("fbd_torn") + "/pages.aims";
  auto opened = FileBlockDevice::Open(path, 64);
  ASSERT_TRUE(opened.ok());
  FileBlockDevice& dev = *opened.ValueOrDie();
  storage::BlockId id = dev.Allocate();
  ASSERT_TRUE(dev.Write(id, {7, 7, 7}).ok());

  // Scribble garbage over the page header (nonzero wrong magic): a torn
  // write mid-header must be *detected*, not decoded.
  {
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(f.good());
    f.seekp(64);
    const char garbage[8] = {0x13, 0x57, char(0x9B), char(0xDF),
                             0x24, 0x68, char(0xAC), char(0xE0)};
    f.write(garbage, sizeof(garbage));
    ASSERT_TRUE(f.good());
  }
  auto read = dev.Read(id);
  ASSERT_FALSE(read.ok());
  EXPECT_EQ(read.status().code(), StatusCode::kIoError);
}

// ---- WriteAheadLog ------------------------------------------------------

TEST(WriteAheadLog, ReplaysCommittedGroupsInOrder) {
  std::string path = TestDir("wal_replay") + "/wal.aims";
  {
    auto opened = WriteAheadLog::Open(path);
    ASSERT_TRUE(opened.ok()) << opened.status().ToString();
    WriteAheadLog& wal = *opened.ValueOrDie().wal;
    EXPECT_TRUE(opened.ValueOrDie().committed.empty());

    uint64_t t1 = wal.BeginTxn().ValueOrDie();
    ASSERT_TRUE(wal.AppendBlockPut(t1, 0, {1, 2}).ok());
    ASSERT_TRUE(wal.AppendBlockPut(t1, 1, {3}).ok());
    ASSERT_TRUE(wal.AppendCatalog(t1, {9, 9, 9}).ok());
    ASSERT_TRUE(wal.Commit(t1).ok());

    uint64_t t2 = wal.BeginTxn().ValueOrDie();
    ASSERT_TRUE(wal.AppendBlockPut(t2, 0, {4, 5, 6}).ok());
    ASSERT_TRUE(wal.Commit(t2).ok());
  }
  auto reopened = WriteAheadLog::Open(path);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  const auto& committed = reopened.ValueOrDie().committed;
  ASSERT_EQ(committed.size(), 2u);
  EXPECT_EQ(committed[0].txn_id, 1u);
  ASSERT_EQ(committed[0].block_puts.size(), 2u);
  EXPECT_EQ(committed[0].block_puts[0].first, 0u);
  EXPECT_EQ(committed[0].block_puts[0].second, (std::vector<uint8_t>{1, 2}));
  EXPECT_EQ(committed[0].block_puts[1].second, (std::vector<uint8_t>{3}));
  ASSERT_EQ(committed[0].catalog_blobs.size(), 1u);
  EXPECT_EQ(committed[0].catalog_blobs[0], (std::vector<uint8_t>{9, 9, 9}));
  EXPECT_EQ(committed[1].txn_id, 2u);
  ASSERT_EQ(committed[1].block_puts.size(), 1u);
  EXPECT_EQ(committed[1].block_puts[0].second,
            (std::vector<uint8_t>{4, 5, 6}));
  // New transactions continue past the recovered ids.
  EXPECT_EQ(reopened.ValueOrDie().wal->BeginTxn().ValueOrDie(), 3u);
}

TEST(WriteAheadLog, DropsGroupWithoutCommitRecord) {
  std::string path = TestDir("wal_uncommitted") + "/wal.aims";
  {
    auto opened = WriteAheadLog::Open(path);
    ASSERT_TRUE(opened.ok());
    WriteAheadLog& wal = *opened.ValueOrDie().wal;
    uint64_t t1 = wal.BeginTxn().ValueOrDie();
    ASSERT_TRUE(wal.AppendBlockPut(t1, 0, {1}).ok());
    ASSERT_TRUE(wal.Commit(t1).ok());
    // Second group never reaches its commit record (caller died).
    uint64_t t2 = wal.BeginTxn().ValueOrDie();
    ASSERT_TRUE(wal.AppendBlockPut(t2, 1, {2, 2}).ok());
  }
  auto reopened = WriteAheadLog::Open(path);
  ASSERT_TRUE(reopened.ok());
  const auto& committed = reopened.ValueOrDie().committed;
  ASSERT_EQ(committed.size(), 1u);
  EXPECT_EQ(committed[0].txn_id, 1u);
  EXPECT_GT(reopened.ValueOrDie().wal->Stats().discarded_bytes, 0u);
}

TEST(WriteAheadLog, TruncatesTornTail) {
  std::string path = TestDir("wal_torn") + "/wal.aims";
  {
    auto opened = WriteAheadLog::Open(path);
    ASSERT_TRUE(opened.ok());
    WriteAheadLog& wal = *opened.ValueOrDie().wal;
    uint64_t t1 = wal.BeginTxn().ValueOrDie();
    ASSERT_TRUE(wal.AppendBlockPut(t1, 0, {1, 2, 3}).ok());
    ASSERT_TRUE(wal.Commit(t1).ok());
  }
  const auto intact_size = std::filesystem::file_size(path);
  // A torn append: garbage bytes that are not a complete valid record.
  {
    std::ofstream f(path, std::ios::binary | std::ios::app);
    const char garbage[] = "torn-write-garbage";
    f.write(garbage, sizeof(garbage));
  }
  auto reopened = WriteAheadLog::Open(path);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  // The committed group survives; the tail is physically truncated off.
  EXPECT_EQ(reopened.ValueOrDie().committed.size(), 1u);
  EXPECT_GT(reopened.ValueOrDie().wal->Stats().discarded_bytes, 0u);
  EXPECT_EQ(std::filesystem::file_size(path), intact_size);
}

TEST(WriteAheadLog, GroupCommitBatchesConcurrentCommits) {
  std::string path = TestDir("wal_group") + "/wal.aims";
  storage::durable::WalConfig config;
  config.group_commit_ms = 5.0;
  auto opened = WriteAheadLog::Open(path, config);
  ASSERT_TRUE(opened.ok());
  WriteAheadLog& wal = *opened.ValueOrDie().wal;
  // Append three commit records before anyone waits — the deterministic
  // equivalent of three racing committers. One sync must cover all three.
  uint64_t last_ticket = 0;
  for (int i = 0; i < 3; ++i) {
    uint64_t txn = wal.BeginTxn().ValueOrDie();
    ASSERT_TRUE(wal.AppendBlockPut(txn, 0, {uint8_t(i)}).ok());
    last_ticket = wal.AppendCommit(txn).ValueOrDie();
  }
  ASSERT_TRUE(wal.WaitDurable(last_ticket).ok());
  obs::WalStats stats = wal.Stats();
  EXPECT_EQ(stats.commits, 3u);
  EXPECT_EQ(stats.syncs, 1u);
  EXPECT_EQ(stats.max_commits_per_sync, 3u);
  // Riding an already-synced ticket needs no further sync.
  ASSERT_TRUE(wal.WaitDurable(1).ok());
  EXPECT_EQ(wal.Stats().syncs, 1u);
}

TEST(WriteAheadLog, TruncateResetsLag) {
  std::string path = TestDir("wal_truncate") + "/wal.aims";
  auto opened = WriteAheadLog::Open(path);
  ASSERT_TRUE(opened.ok());
  WriteAheadLog& wal = *opened.ValueOrDie().wal;
  uint64_t txn = wal.BeginTxn().ValueOrDie();
  ASSERT_TRUE(wal.AppendBlockPut(txn, 0, {1, 2, 3, 4}).ok());
  ASSERT_TRUE(wal.Commit(txn).ok());
  EXPECT_GT(wal.lag_bytes(), 0u);
  ASSERT_TRUE(wal.Truncate().ok());
  EXPECT_EQ(wal.lag_bytes(), 0u);
  EXPECT_EQ(wal.Stats().checkpoints, 1u);
  // The log is usable after truncation.
  uint64_t txn2 = wal.BeginTxn().ValueOrDie();
  ASSERT_TRUE(wal.Commit(txn2).ok());
}

TEST(WriteAheadLog, TxnIdsDoNotRestartAfterTruncate) {
  // Regression: Open of a truncated (empty) log used to restart txn ids
  // at 1. A reused id falls under the catalog snapshot's applied-txn
  // mark, so the NEXT recovery skipped a committed group — an
  // acknowledged ingest silently lost. The header's high-water mark,
  // written at truncation, keeps ids advancing across reopens.
  std::string path = TestDir("wal_txn_highwater") + "/wal.aims";
  uint64_t first_txn = 0;
  {
    auto opened = WriteAheadLog::Open(path);
    ASSERT_TRUE(opened.ok());
    WriteAheadLog& wal = *opened.ValueOrDie().wal;
    first_txn = wal.BeginTxn().ValueOrDie();
    ASSERT_TRUE(wal.Commit(first_txn).ok());
    ASSERT_TRUE(wal.Truncate().ok());
  }
  auto reopened = WriteAheadLog::Open(path);
  ASSERT_TRUE(reopened.ok());
  EXPECT_TRUE(reopened.ValueOrDie().committed.empty());
  uint64_t next_txn = reopened.ValueOrDie().wal->BeginTxn().ValueOrDie();
  EXPECT_GT(next_txn, first_txn);
}

// ---- Write-back buffer pool ---------------------------------------------

TEST(BlockCacheWriteBack, StagesDirtyAndFlushesOnDemand) {
  storage::MemBlockDevice device(64);
  storage::BlockCacheConfig config;
  config.capacity_bytes = 1024;
  config.write_back = true;
  storage::BlockCache cache(&device, config);

  storage::BlockId id = device.Allocate();
  ASSERT_TRUE(cache.Write(id, {1, 2, 3}).ok());
  // No-steal: the write staged in the pool, nothing reached the device.
  EXPECT_EQ(device.writes(), 0u);
  EXPECT_EQ(cache.DirtyBlocks(), 1u);
  // The dirty entry serves reads (it is the only copy).
  EXPECT_EQ(cache.Read(id).ValueOrDie(), (std::vector<uint8_t>{1, 2, 3}));
  EXPECT_EQ(device.reads(), 0u);

  // Clear drops clean entries only; the staged page must survive.
  cache.Clear();
  EXPECT_EQ(cache.DirtyBlocks(), 1u);
  EXPECT_EQ(cache.Read(id).ValueOrDie(), (std::vector<uint8_t>{1, 2, 3}));

  // Flush writes it back and makes it clean (still resident).
  ASSERT_TRUE(cache.FlushBlocks({id}).ok());
  EXPECT_EQ(cache.DirtyBlocks(), 0u);
  EXPECT_EQ(device.writes(), 1u);
  EXPECT_EQ(device.Read(id).ValueOrDie(), (std::vector<uint8_t>{1, 2, 3}));
  // Re-flushing a clean block is a no-op.
  ASSERT_TRUE(cache.FlushBlocks({id}).ok());
  EXPECT_EQ(device.writes(), 1u);
}

TEST(BlockCacheWriteBack, DropDirtyRollsBackStagedWrites) {
  storage::MemBlockDevice device(64);
  storage::BlockCacheConfig config;
  config.capacity_bytes = 1024;
  config.write_back = true;
  storage::BlockCache cache(&device, config);
  storage::BlockId id = device.Allocate();
  ASSERT_TRUE(cache.Write(id, {9, 9}).ok());
  EXPECT_EQ(cache.DirtyBlocks(), 1u);
  cache.DropDirty({id});
  EXPECT_EQ(cache.DirtyBlocks(), 0u);
  EXPECT_EQ(device.writes(), 0u);
  // The device still holds the pre-staging (empty) payload.
  EXPECT_TRUE(device.Read(id).ValueOrDie().empty());
}

TEST(BlockCacheWriteBack, DirtyEntriesPinnedAgainstEviction) {
  storage::MemBlockDevice device(64);
  storage::BlockCacheConfig config;
  // Budget fits barely one payload per shard; dirty admissions overrun it.
  config.capacity_bytes = 32;
  config.num_shards = 1;
  config.write_back = true;
  storage::BlockCache cache(&device, config);
  std::vector<storage::BlockId> ids;
  for (int i = 0; i < 4; ++i) {
    storage::BlockId id = device.Allocate();
    ids.push_back(id);
    ASSERT_TRUE(cache.Write(id, std::vector<uint8_t>(24, uint8_t(i))).ok());
  }
  // All four staged pages are resident despite 4 * 24 > 32 bytes of budget
  // — evicting a dirty page would lose the only copy.
  EXPECT_EQ(cache.DirtyBlocks(), 4u);
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(cache.Read(ids[i]).ValueOrDie(),
              std::vector<uint8_t>(24, uint8_t(i)));
  }
  ASSERT_TRUE(cache.FlushBlocks(ids).ok());
  EXPECT_EQ(cache.DirtyBlocks(), 0u);
}

// ---- AimsSystem on the durable backend ----------------------------------

TEST(DurableSystem, IngestSurvivesReopen) {
  std::string dir = TestDir("sys_reopen");
  core::AimsConfig config;
  config.durability.path = dir;
  streams::Recording rec_a = MakeRecording(300, 2, 1);
  streams::Recording rec_b = MakeRecording(150, 3, 2);

  std::vector<double> channel_a0, channel_b2;
  {
    core::AimsSystem system(config);
    ASSERT_TRUE(system.init_status().ok()) << system.init_status().ToString();
    ASSERT_TRUE(system.durable());
    auto a = system.IngestRecording("alpha", rec_a);
    ASSERT_TRUE(a.ok()) << a.status().ToString();
    auto b = system.IngestRecording("beta", rec_b);
    ASSERT_TRUE(b.ok());
    channel_a0 = system.ReadChannel(a.ValueOrDie(), 0).ValueOrDie();
    channel_b2 = system.ReadChannel(b.ValueOrDie(), 2).ValueOrDie();
    EXPECT_EQ(system.WalStats().commits, 2u);
  }
  core::AimsSystem reopened(config);
  ASSERT_TRUE(reopened.init_status().ok())
      << reopened.init_status().ToString();
  // Both committed ingests were replayed from the WAL.
  EXPECT_EQ(reopened.WalStats().recovered_txns, 2u);
  auto sessions = reopened.ListSessions();
  ASSERT_EQ(sessions.size(), 2u);
  EXPECT_EQ(sessions[0].name, "alpha");
  EXPECT_EQ(sessions[1].name, "beta");
  EXPECT_EQ(sessions[0].num_frames, 300u);
  EXPECT_EQ(sessions[1].num_channels, 3u);
  // Recovered block payloads are byte-identical, so reconstruction is
  // bit-exact against the pre-crash values.
  EXPECT_EQ(reopened.ReadChannel(sessions[0].id, 0).ValueOrDie(), channel_a0);
  EXPECT_EQ(reopened.ReadChannel(sessions[1].id, 2).ValueOrDie(), channel_b2);
  // Range queries work on the recovered store.
  auto stats = reopened.QueryRange(sessions[0].id, 1, 10, 200);
  EXPECT_TRUE(stats.ok()) << stats.status().ToString();
}

TEST(DurableSystem, StoresOfOnePaddedLengthShareOneLayout) {
  // Every stored channel of one padded length shares one BlockLayout,
  // whether it was ingested, replayed from the WAL, or loaded from the
  // snapshot.
  std::string dir = TestDir("sys_layout");
  core::AimsConfig config;
  config.durability.path = dir;
  config.durability.checkpoint_wal_bytes = 0;  // No auto-checkpoints.
  auto layout_of = [](const core::AimsSystem& system, core::SessionId id,
                      size_t channel) {
    auto store = system.ChannelStore(id, channel);
    EXPECT_TRUE(store.ok()) << store.status().ToString();
    return store.ok() ? (*store)->layout().get() : nullptr;
  };
  auto expect_shared = [&](const core::AimsSystem& system) {
    // Sessions 0 and 1 pad to 512 frames, session 2 to 128.
    const storage::BlockLayout* layout512 = layout_of(system, 0, 0);
    ASSERT_NE(layout512, nullptr);
    EXPECT_EQ(layout512->n(), 512u);
    EXPECT_EQ(layout_of(system, 0, 1), layout512);
    for (size_t c = 0; c < 3; ++c) EXPECT_EQ(layout_of(system, 1, c), layout512);
    const storage::BlockLayout* layout128 = layout_of(system, 2, 0);
    ASSERT_NE(layout128, nullptr);
    EXPECT_EQ(layout128->n(), 128u);
    EXPECT_NE(layout128, layout512);
  };
  std::vector<double> channel_b2;
  {
    core::AimsSystem system(config);
    ASSERT_TRUE(system.init_status().ok()) << system.init_status().ToString();
    ASSERT_TRUE(system.IngestRecording("a", MakeRecording(300, 2, 1)).ok());
    ASSERT_TRUE(system.IngestRecording("b", MakeRecording(400, 3, 2)).ok());
    ASSERT_TRUE(system.IngestRecording("c", MakeRecording(100, 1, 3)).ok());
    expect_shared(system);
    channel_b2 = system.ReadChannel(1, 2).ValueOrDie();
    EXPECT_FALSE(system.ChannelStore(1, 3).ok());
    EXPECT_FALSE(system.ChannelStore(3, 0).ok());
  }
  {
    core::AimsSystem replayed(config);  // WAL replay
    ASSERT_TRUE(replayed.init_status().ok());
    ASSERT_EQ(replayed.WalStats().recovered_txns, 3u);
    expect_shared(replayed);
    EXPECT_EQ(replayed.ReadChannel(1, 2).ValueOrDie(), channel_b2);
    // A fresh ingest after recovery joins the recovered stores' layout.
    auto d = replayed.IngestRecording("d", MakeRecording(500, 1, 4));
    ASSERT_TRUE(d.ok());
    EXPECT_EQ(layout_of(replayed, *d, 0), layout_of(replayed, 0, 0));
    // So does a migration copy: another system's export, staged here.
    core::AimsSystem source;
    auto e = source.IngestRecording("e", MakeRecording(400, 2, 5));
    ASSERT_TRUE(e.ok());
    EXPECT_EQ(source.ExportStored(*e + 1).status().code(),
              StatusCode::kNotFound);
    auto exported = source.ExportStored(*e);
    ASSERT_TRUE(exported.ok()) << exported.status().ToString();
    auto staged = replayed.StageIngest(exported.MoveValueUnsafe());
    ASSERT_TRUE(staged.ok()) << staged.status().ToString();
    ASSERT_TRUE(replayed.WaitDurable(*staged).ok());
    ASSERT_TRUE(replayed.ApplyStaged(*staged).ok());
    EXPECT_EQ(layout_of(replayed, staged->id, 1), layout_of(replayed, 0, 0));
    EXPECT_EQ(replayed.ReadChannel(staged->id, 1).ValueOrDie(),
              source.ReadChannel(*e, 1).ValueOrDie());
    ASSERT_TRUE(replayed.Checkpoint().ok());
  }
  core::AimsSystem from_snapshot(config);
  ASSERT_TRUE(from_snapshot.init_status().ok());
  EXPECT_EQ(from_snapshot.WalStats().recovered_txns, 0u);
  expect_shared(from_snapshot);
  EXPECT_EQ(layout_of(from_snapshot, 3, 0), layout_of(from_snapshot, 0, 0));
  EXPECT_EQ(from_snapshot.ReadChannel(1, 2).ValueOrDie(), channel_b2);
}

TEST(DurableSystem, IngestAfterCheckpointedReopenSurvivesNextReopen) {
  // Regression for txn-id reuse (the three-open sequence the crash-smoke
  // loop runs): open 1 ingests; open 2 only recovers — its checkpoint
  // truncates the WAL to empty; open 3 ingests into the empty log. With
  // restarting txn ids, open 3's commit reused the snapshot's applied-txn
  // mark and open 4's recovery skipped it — "beta" vanished.
  std::string dir = TestDir("sys_txn_reuse");
  core::AimsConfig config;
  config.durability.path = dir;
  {
    core::AimsSystem system(config);
    ASSERT_TRUE(system.init_status().ok());
    ASSERT_TRUE(system.IngestRecording("alpha", MakeRecording(64, 1, 1)).ok());
  }
  {
    core::AimsSystem recover_only(config);
    ASSERT_TRUE(recover_only.init_status().ok());
  }
  {
    core::AimsSystem system(config);
    ASSERT_TRUE(system.init_status().ok());
    ASSERT_TRUE(system.IngestRecording("beta", MakeRecording(64, 1, 2)).ok());
  }
  core::AimsSystem reopened(config);
  ASSERT_TRUE(reopened.init_status().ok());
  auto sessions = reopened.ListSessions();
  ASSERT_EQ(sessions.size(), 2u);
  EXPECT_EQ(sessions[0].name, "alpha");
  EXPECT_EQ(sessions[1].name, "beta");
}

TEST(DurableSystem, CheckpointTruncatesAndSnapshotRestores) {
  std::string dir = TestDir("sys_checkpoint");
  core::AimsConfig config;
  config.durability.path = dir;
  config.durability.checkpoint_wal_bytes = 0;  // No auto-checkpoints.
  std::vector<double> channel;
  {
    core::AimsSystem system(config);
    ASSERT_TRUE(system.init_status().ok());
    auto id = system.IngestRecording("snap", MakeRecording(200, 1, 3));
    ASSERT_TRUE(id.ok());
    channel = system.ReadChannel(id.ValueOrDie(), 0).ValueOrDie();
    EXPECT_GT(system.WalStats().lag_bytes, 0u);
    ASSERT_TRUE(system.Checkpoint().ok());
    EXPECT_EQ(system.WalStats().lag_bytes, 0u);
  }
  core::AimsSystem reopened(config);
  ASSERT_TRUE(reopened.init_status().ok());
  // Nothing to replay — the checkpoint snapshot carries the catalog and
  // the page file carries the blocks.
  EXPECT_EQ(reopened.WalStats().recovered_txns, 0u);
  auto sessions = reopened.ListSessions();
  ASSERT_EQ(sessions.size(), 1u);
  EXPECT_EQ(sessions[0].name, "snap");
  EXPECT_EQ(reopened.ReadChannel(sessions[0].id, 0).ValueOrDie(), channel);
}

TEST(DurableSystem, AutoCheckpointByWalLag) {
  std::string dir = TestDir("sys_autockpt");
  core::AimsConfig config;
  config.durability.path = dir;
  config.durability.checkpoint_wal_bytes = 1;  // Checkpoint every ingest.
  core::AimsSystem system(config);
  ASSERT_TRUE(system.init_status().ok());
  uint64_t checkpoints_before = system.WalStats().checkpoints;
  obs::Trace trace;
  ASSERT_TRUE(
      system.IngestRecording("ck", MakeRecording(100, 1, 4), &trace).ok());
  EXPECT_GT(system.WalStats().checkpoints, checkpoints_before);
  EXPECT_EQ(system.WalStats().lag_bytes, 0u);
  // The checkpoint runs inside the ingest's apply step, after the append.
  std::vector<std::string> names = SpanNames(trace);
  auto append = std::find(names.begin(), names.end(), "wal_append");
  auto checkpoint = std::find(names.begin(), names.end(), "checkpoint");
  ASSERT_NE(append, names.end());
  ASSERT_NE(checkpoint, names.end());
  EXPECT_LT(append, checkpoint);
}

TEST(DurableSystem, FailedWriteBackIsNotCheckpointedAway) {
  // A write-back fault leaves the ingest's pages dirty in the pool, with
  // their only durable copy in the WAL. A later ingest's auto-checkpoint
  // must not truncate that copy away: reopen replays it.
  std::string dir = TestDir("sys_failed_writeback");
  core::AimsConfig config;
  config.durability.path = dir;
  config.durability.checkpoint_wal_bytes = 1;  // Checkpoint every ingest.
  std::vector<std::vector<double>> alpha, beta;
  {
    core::AimsSystem system(config);
    ASSERT_TRUE(system.init_status().ok());
    system.mutable_device()->FailNextWrites(1);
    auto a = system.IngestRecording("alpha", MakeRecording(300, 2, 11));
    ASSERT_FALSE(a.ok());
    EXPECT_EQ(a.status().code(), StatusCode::kIoError);
    EXPECT_GT(system.block_cache()->DirtyBlocks(), 0u);
    auto b = system.IngestRecording("beta", MakeRecording(200, 1, 12));
    ASSERT_TRUE(b.ok()) << b.status().ToString();
    // The auto-checkpoint was skipped, and an explicit one is refused.
    EXPECT_GT(system.WalStats().lag_bytes, 0u);
    EXPECT_EQ(system.Checkpoint().code(), StatusCode::kFailedPrecondition);
    // Alpha's commit published it; the pool serves its dirty pages.
    auto sessions = system.ListSessions();
    ASSERT_EQ(sessions.size(), 2u);
    for (size_t c = 0; c < 2; ++c) {
      alpha.push_back(system.ReadChannel(sessions[0].id, c).ValueOrDie());
    }
    beta.push_back(system.ReadChannel(sessions[1].id, 0).ValueOrDie());
  }
  core::AimsSystem reopened(config);
  ASSERT_TRUE(reopened.init_status().ok())
      << reopened.init_status().ToString();
  EXPECT_EQ(reopened.WalStats().recovered_txns, 2u);
  auto sessions = reopened.ListSessions();
  ASSERT_EQ(sessions.size(), 2u);
  EXPECT_EQ(sessions[0].name, "alpha");
  EXPECT_EQ(sessions[1].name, "beta");
  for (size_t c = 0; c < 2; ++c) {
    auto channel = reopened.ReadChannel(sessions[0].id, c);
    ASSERT_TRUE(channel.ok()) << channel.status().ToString();
    EXPECT_EQ(*channel, alpha[c]);
  }
  EXPECT_EQ(reopened.ReadChannel(sessions[1].id, 0).ValueOrDie(), beta[0]);
}

TEST(DurableSystem, AnalyzeReconciliationHoldsOnFileBackend) {
  std::string dir = TestDir("sys_analyze");
  core::AimsConfig config;
  config.durability.path = dir;
  core::SessionId id = 0;
  {
    core::AimsSystem system(config);
    ASSERT_TRUE(system.init_status().ok());
    auto ingested = system.IngestRecording("q", MakeRecording(500, 1, 5));
    ASSERT_TRUE(ingested.ok());
    id = ingested.ValueOrDie();
  }
  // Reopen: the buffer pool is cold, so EXPLAIN must predict every
  // scheduled block as a cold device read — and ANALYZE must match it.
  core::AimsSystem system(config);
  ASSERT_TRUE(system.init_status().ok());
  auto plan = system.PlanRangeQuery(id, 0, 5, 400);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  EXPECT_GT(plan.ValueOrDie().predicted_blocks, 0u);
  EXPECT_EQ(plan.ValueOrDie().predicted_cold_blocks,
            plan.ValueOrDie().predicted_blocks);

  const size_t reads_before = system.device().reads();
  auto result = system.QueryRangeProgressive(id, 0, 5, 400);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(system.device().reads() - reads_before,
            plan.ValueOrDie().predicted_cold_blocks);

  // Second run: everything the query touched is now pool-resident, so the
  // replan predicts zero cold reads and the device sees none.
  auto replan = system.PlanRangeQuery(id, 0, 5, 400);
  ASSERT_TRUE(replan.ok());
  EXPECT_EQ(replan.ValueOrDie().predicted_cold_blocks, 0u);
  const size_t reads_mid = system.device().reads();
  ASSERT_TRUE(system.QueryRangeProgressive(id, 0, 5, 400).ok());
  EXPECT_EQ(system.device().reads(), reads_mid);
}

TEST(DurableSystem, FailedOpenParksStatusAndRefusesIngest) {
  // A regular file where the store directory should be: open must fail.
  std::string base = TestDir("sys_badpath");
  std::string file_in_the_way = base + "/not_a_directory";
  { std::ofstream(file_in_the_way) << "occupied"; }
  core::AimsConfig config;
  config.durability.path = file_in_the_way;
  core::AimsSystem system(config);
  EXPECT_FALSE(system.init_status().ok());
  auto id = system.IngestRecording("refused", MakeRecording(100, 1, 6));
  ASSERT_FALSE(id.ok());
  // Read-side accessors stay valid on the fallback skeleton.
  EXPECT_TRUE(system.ListSessions().empty());
  EXPECT_EQ(system.WalStats().commits, 0u);
}

/// One catalog entry in AimsSystem's serialized layout: a single channel
/// that claims \p padded_len coefficients stored in blocks \p ids.
std::vector<uint8_t> CraftedCatalogEntry(uint64_t padded_len,
                                         const std::vector<uint32_t>& ids) {
  std::vector<uint8_t> out;
  auto put = [&out](const void* data, size_t n) {
    const uint8_t* bytes = static_cast<const uint8_t*>(data);
    out.insert(out.end(), bytes, bytes + n);
  };
  auto u64 = [&put](uint64_t v) { put(&v, sizeof(v)); };
  auto f64 = [&put](double v) { put(&v, sizeof(v)); };
  const std::string name = "crafted";
  u64(name.size());
  put(name.data(), name.size());
  u64(padded_len);  // num_frames
  f64(100.0);       // sample_rate_hz
  u64(1);           // num_channels
  u64(0);           // best-basis nodes
  f64(0.0);         // mean
  u64(padded_len);
  f64(0.0);  // energy
  u64(ids.size());
  for (uint32_t id : ids) put(&id, sizeof(id));
  return out;
}

/// Stores one real recording in a durable system at \p dir, commits
/// \p entry as a WAL catalog record behind it, and returns the status of
/// reopening the system (recovery replays the record).
Status ReopenWithCommittedCatalogEntry(const std::string& dir,
                                       const std::vector<uint8_t>& entry) {
  core::AimsConfig config;
  config.durability.path = dir;
  {
    core::AimsSystem system(config);
    EXPECT_TRUE(system.init_status().ok());
    EXPECT_TRUE(system.IngestRecording("real", MakeRecording(256, 1, 9)).ok());
    EXPECT_GE(system.device().num_blocks(), 4u);
  }
  {
    auto opened = WriteAheadLog::Open(dir + "/wal.aims");
    EXPECT_TRUE(opened.ok());
    WriteAheadLog& wal = *opened.ValueOrDie().wal;
    const uint64_t txn = wal.BeginTxn().ValueOrDie();
    EXPECT_TRUE(wal.AppendCatalog(txn, entry).ok());
    EXPECT_TRUE(wal.Commit(txn).ok());
  }
  core::AimsSystem reopened(config);
  return reopened.init_status();
}

TEST(DurableSystem, CatalogEntryRepeatingABlockIsRefused) {
  // 16 blocks of 64 coefficients cover the claimed 1024, and block 0
  // exists — but a valid entry never names a block twice. Refused before a
  // layout of the claimed length is built, so a crafted entry cannot make
  // recovery allocate by the length it claims.
  const Status status = ReopenWithCommittedCatalogEntry(
      TestDir("sys_repeated_block"),
      CraftedCatalogEntry(1024, std::vector<uint32_t>(16, 0)));
  EXPECT_EQ(status.code(), StatusCode::kIoError);
  EXPECT_NE(status.message().find("repeats device block 0"),
            std::string::npos)
      << status.ToString();
}

TEST(DurableSystem, CatalogEntryLongerThanItsBlocksIsRefused) {
  // Two 64-coefficient blocks cannot hold 1024 coefficients.
  const Status status = ReopenWithCommittedCatalogEntry(
      TestDir("sys_uncovered_length"), CraftedCatalogEntry(1024, {0, 1}));
  EXPECT_EQ(status.code(), StatusCode::kIoError);
  EXPECT_NE(status.message().find("malformed channel entry"),
            std::string::npos)
      << status.ToString();
}

TEST(DurableSystem, CatalogEntryWithPartialOwnerIsRefused) {
  // An entry may end after its channels (no owner) or carry the full
  // 16-byte owner; anything in between is a torn field.
  std::vector<uint8_t> entry = CraftedCatalogEntry(64, {0});
  entry.resize(entry.size() + 8, 0x11);
  const Status status =
      ReopenWithCommittedCatalogEntry(TestDir("sys_partial_owner"), entry);
  EXPECT_EQ(status.code(), StatusCode::kIoError);
  EXPECT_NE(status.message().find("malformed owner field"), std::string::npos)
      << status.ToString();
}

TEST(DurableSystem, WalPutFarPastThePageFileIsRefused) {
  // A committed group may only name blocks the page file has or that the
  // log's own puts account for. One put at block 2^22 used to make reopen
  // grow pages.aims one block at a time (11 s, 2 GB) and then succeed.
  const std::string dir = TestDir("sys_far_put");
  core::AimsConfig config;
  config.durability.path = dir;
  {
    core::AimsSystem system(config);
    ASSERT_TRUE(system.IngestRecording("real", MakeRecording(256, 1, 9)).ok());
  }
  {
    auto opened = WriteAheadLog::Open(dir + "/wal.aims");
    ASSERT_TRUE(opened.ok());
    WriteAheadLog& wal = *opened.ValueOrDie().wal;
    const uint64_t txn = wal.BeginTxn().ValueOrDie();
    ASSERT_TRUE(
        wal.AppendBlockPut(txn, 1u << 22, std::vector<uint8_t>(64, 0x5a)).ok());
    ASSERT_TRUE(wal.Commit(txn).ok());
  }
  const auto pages_before = std::filesystem::file_size(dir + "/pages.aims");
  const auto start = std::chrono::steady_clock::now();
  core::AimsSystem reopened(config);
  const double elapsed_s = std::chrono::duration<double>(
                               std::chrono::steady_clock::now() - start)
                               .count();
  const Status status = reopened.init_status();
  EXPECT_EQ(status.code(), StatusCode::kIoError);
  EXPECT_NE(status.message().find("past the page file"), std::string::npos)
      << status.ToString();
  EXPECT_EQ(std::filesystem::file_size(dir + "/pages.aims"), pages_before);
  EXPECT_LT(elapsed_s, 5.0);
}

TEST(DurableSystem, OwnerSurvivesWalReplayAndSnapshot) {
  std::string dir = TestDir("sys_owner");
  core::AimsConfig config;
  config.durability.path = dir;
  const core::SessionOwner owner{(1ull << 48) | 42, 9};
  {
    core::AimsSystem system(config);
    ASSERT_TRUE(system.IngestRecording("plain", MakeRecording(64, 1, 1)).ok());
    auto prepared = system.PrepareIngest("owned", MakeRecording(64, 1, 2));
    ASSERT_TRUE(prepared.ok());
    auto staged =
        system.StageIngest(std::move(*prepared), nullptr, nullptr, owner);
    ASSERT_TRUE(staged.ok());
    ASSERT_TRUE(system.WaitDurable(*staged).ok());
    ASSERT_TRUE(system.ApplyStaged(*staged).ok());
    ASSERT_TRUE(system.GetSession(1)->owner.has_value());
  }
  // The first reopen replays the WAL group; the second loads the snapshot
  // that recovery wrote.
  for (int reopen = 0; reopen < 2; ++reopen) {
    core::AimsSystem system(config);
    ASSERT_TRUE(system.init_status().ok()) << system.init_status().ToString();
    EXPECT_FALSE(system.GetSession(0)->owner.has_value());
    std::optional<core::SessionOwner> got = system.GetSession(1)->owner;
    ASSERT_TRUE(got.has_value()) << "reopen " << reopen;
    EXPECT_EQ(got->global_id, owner.global_id);
    EXPECT_EQ(got->client, owner.client);
  }
}

// ---- ShardedCatalog / server / obs wiring -------------------------------

TEST(DurableCatalog, PerShardStoresSurviveReopen) {
  std::string dir = TestDir("catalog_shards");
  core::AimsConfig config;
  config.durability.path = dir;
  {
    server::ShardedCatalog catalog(2, config);
    ASSERT_TRUE(catalog.init_status().ok());
    ASSERT_TRUE(catalog.durable());
    // Pick one tenant per shard (placement is the router's, not modulo).
    server::ClientId on_shard0 = 0, on_shard1 = 0;
    for (server::ClientId c = 0; c < 64; ++c) {
      (catalog.router().ShardForClient(c) == 0 ? on_shard0 : on_shard1) = c;
    }
    ASSERT_NE(catalog.router().ShardForClient(on_shard0),
              catalog.router().ShardForClient(on_shard1));
    auto a = catalog.Ingest(on_shard0, "c0", MakeRecording(200, 1, 7));
    ASSERT_TRUE(a.ok()) << a.status().ToString();
    auto b = catalog.Ingest(on_shard1, "c1", MakeRecording(200, 1, 8));
    ASSERT_TRUE(b.ok());
    EXPECT_TRUE(std::filesystem::exists(dir + "/shard_0/pages.aims"));
    EXPECT_TRUE(std::filesystem::exists(dir + "/shard_1/pages.aims"));
    // Shard WALs only — the routing journal keeps its own books.
    obs::WalStats total = catalog.TotalWalStats();
    EXPECT_EQ(total.commits, 2u);
  }
  // Reopen replays both shard stores AND the routing journal: the same
  // opaque ids resolve to the same sessions.
  server::ShardedCatalog reopened(2, config);
  ASSERT_TRUE(reopened.init_status().ok());
  EXPECT_EQ(reopened.total_sessions(), 2u);
  auto sessions = reopened.ListSessions();
  ASSERT_EQ(sessions.size(), 2u);
}

TEST(DurableCatalog, IngestIoStatsCountStagedBlocks) {
  std::string dir = TestDir("catalog_iostats");
  core::AimsConfig config;
  config.durability.path = dir;
  server::ShardedCatalog catalog(1, config);
  ASSERT_TRUE(catalog.init_status().ok());
  server::ShardedCatalog::IngestIoStats io;
  auto id = catalog.Ingest(0, "billed", MakeRecording(300, 2, 9), nullptr, &io);
  ASSERT_TRUE(id.ok());
  EXPECT_GT(io.blocks_written, 0u);
  EXPECT_EQ(io.bytes_written, io.blocks_written * config.block_size_bytes);
  // The staged protocol writes back exactly the staged blocks.
  EXPECT_EQ(io.blocks_written, catalog.total_blocks_written());
}

TEST(BackendParity, CatalogIngestMatchesAcrossBackends) {
  // Both backends run one staged ingest protocol, so the same recordings
  // cost the same device writes, build the same catalog entries, and read
  // back bit-identically; only the durable trace carries the WAL phases.
  core::AimsConfig durable_config;
  durable_config.durability.path = TestDir("backend_parity");
  server::ShardedCatalog mem(2, core::AimsConfig{});
  server::ShardedCatalog durable(2, durable_config);
  ASSERT_TRUE(durable.init_status().ok());
  const std::vector<streams::Recording> recordings = {
      MakeRecording(300, 2, 21), MakeRecording(129, 3, 22),
      MakeRecording(64, 1, 23)};
  for (size_t i = 0; i < recordings.size(); ++i) {
    SCOPED_TRACE("recording " + std::to_string(i));
    const streams::Recording& rec = recordings[i];
    const server::ClientId client = i + 1;
    const std::string name = "rec" + std::to_string(i);
    obs::Trace mem_trace, durable_trace;
    server::ShardedCatalog::IngestIoStats mem_io, durable_io;
    auto m = mem.Ingest(client, name, rec, &mem_trace, &mem_io);
    auto d = durable.Ingest(client, name, rec, &durable_trace, &durable_io);
    ASSERT_TRUE(m.ok()) << m.status().ToString();
    ASSERT_TRUE(d.ok()) << d.status().ToString();

    EXPECT_GT(mem_io.blocks_written, 0u);
    EXPECT_EQ(mem_io.blocks_written, durable_io.blocks_written);
    EXPECT_EQ(mem_io.bytes_written, durable_io.bytes_written);

    core::SessionInfo mi = mem.GetSession(*m).ValueOrDie();
    core::SessionInfo di = durable.GetSession(*d).ValueOrDie();
    EXPECT_EQ(mi.id, di.id);
    EXPECT_EQ(mi.name, di.name);
    EXPECT_EQ(mi.num_channels, di.num_channels);
    EXPECT_EQ(mi.num_frames, di.num_frames);
    EXPECT_EQ(mi.sample_rate_hz, di.sample_rate_hz);
    EXPECT_EQ(mem.BestBasisReport(*m).ValueOrDie(),
              durable.BestBasisReport(*d).ValueOrDie());

    for (size_t c = 0; c < rec.num_channels(); ++c) {
      EXPECT_TRUE(BitIdentical(mem.ReadChannel(*m, c).ValueOrDie(),
                               durable.ReadChannel(*d, c).ValueOrDie()))
          << "channel " << c;
      const size_t last = rec.num_frames() - 3;
      auto mq = mem.QueryRangeProgressive(*m, c, 2, last).ValueOrDie();
      auto dq = durable.QueryRangeProgressive(*d, c, 2, last).ValueOrDie();
      EXPECT_EQ(mq.total_blocks_needed, dq.total_blocks_needed);
      EXPECT_EQ(mq.complete, dq.complete);
      ASSERT_EQ(mq.steps.size(), dq.steps.size());
      // cache_hits differs by design: the durable pool keeps written-back
      // pages resident, the in-memory backend here runs without a cache.
      for (size_t s = 0; s < mq.steps.size(); ++s) {
        EXPECT_EQ(mq.steps[s].blocks_read, dq.steps[s].blocks_read);
        EXPECT_TRUE(BitIdentical(
            {mq.steps[s].sum_estimate, mq.steps[s].mean_estimate,
             mq.steps[s].sum_error_bound},
            {dq.steps[s].sum_estimate, dq.steps[s].mean_estimate,
             dq.steps[s].sum_error_bound}))
            << "step " << s;
      }
    }

    EXPECT_TRUE(HasSpan(mem_trace, "shard_lock"));
    for (const char* span : {"wal_append", "wal_sync", "shard_apply_lock"}) {
      EXPECT_FALSE(HasSpan(mem_trace, span)) << span;
    }
    for (const char* span :
         {"shard_lock", "wal_append", "wal_sync", "shard_apply_lock"}) {
      EXPECT_TRUE(HasSpan(durable_trace, span)) << span;
    }
    // These recordings stay far below the WAL's checkpoint threshold.
    EXPECT_FALSE(HasSpan(durable_trace, "checkpoint"));
    // Identical apart from the durable-only phases.
    std::vector<std::string> durable_names = SpanNames(durable_trace);
    std::erase_if(durable_names, [](const std::string& n) {
      return n == "wal_append" || n == "wal_sync" || n == "shard_apply_lock";
    });
    EXPECT_EQ(SpanNames(mem_trace), durable_names);
  }
}

TEST(BackendParity, IngestCpuRunsBeforeTheShardLock) {
  // Sealing and transforming need no lock: on both backends every "seal"
  // and "transform" span of an ingest ends before its exclusive lock is
  // requested, and every block write starts once the lock is held.
  core::AimsConfig durable_config;
  durable_config.durability.path = TestDir("prepare_unlocked");
  server::ShardedCatalog mem(1, core::AimsConfig{});
  server::ShardedCatalog durable(1, durable_config);
  ASSERT_TRUE(durable.init_status().ok());
  constexpr size_t kChannels = 3;
  for (server::ShardedCatalog* catalog : {&mem, &durable}) {
    SCOPED_TRACE(catalog->durable() ? "durable" : "in-memory");
    obs::Trace trace;
    auto id = catalog->Ingest(1, "split", MakeRecording(300, kChannels, 5),
                              &trace);
    ASSERT_TRUE(id.ok()) << id.status().ToString();
    const obs::TraceSpan* lock = nullptr;
    for (const obs::TraceSpan& span : trace.spans()) {
      if (span.name == "shard_lock") {
        lock = &span;
        break;
      }
    }
    ASSERT_NE(lock, nullptr);
    size_t seals = 0, transforms = 0, writes = 0;
    for (const obs::TraceSpan& span : trace.spans()) {
      if (span.name == "seal" || span.name == "transform") {
        if (span.name == "seal") ++seals;
        if (span.name == "transform") ++transforms;
        EXPECT_LE(span.end_ms, lock->start_ms) << span.name;
      } else if (span.name == "block_write") {
        ++writes;
        EXPECT_GE(span.start_ms, lock->end_ms);
      }
    }
    EXPECT_EQ(seals, kChannels);
    EXPECT_EQ(transforms, kChannels);
    EXPECT_EQ(writes, kChannels);
  }
}

TEST(DurableServer, GetHealthCarriesWalStats) {
  std::string dir = TestDir("server_health");
  server::ServerConfig config;
  config.num_shards = 2;
  config.system.durability.path = dir;
  server::AimsServer server(config);
  auto health = server.GetHealth(server::GetHealthRequest{});
  ASSERT_TRUE(health.ok());
  // Every shard checkpoints once at open, so the summed counters are live.
  EXPECT_GE(health.ValueOrDie().wal.checkpoints, 2u);
  server.Shutdown();
}

TEST(WalExporter, PrometheusEmitsWalFamily) {
  obs::MetricsRegistry registry;
  obs::WalStats wal;
  wal.records = 12;
  wal.commits = 3;
  wal.syncs = 2;
  wal.max_commits_per_sync = 2;
  wal.lag_bytes = 456;
  wal.recovered_txns = 1;
  std::string text =
      obs::PrometheusExport(registry, nullptr, nullptr, nullptr, &wal);
  EXPECT_NE(text.find("# TYPE aims_wal_records_total counter"),
            std::string::npos);
  EXPECT_NE(text.find("aims_wal_records_total 12"), std::string::npos);
  EXPECT_NE(text.find("aims_wal_commits_total 3"), std::string::npos);
  EXPECT_NE(text.find("aims_wal_syncs_total 2"), std::string::npos);
  EXPECT_NE(text.find("aims_wal_max_commits_per_sync 2"), std::string::npos);
  EXPECT_NE(text.find("aims_wal_lag_bytes 456"), std::string::npos);
  EXPECT_NE(text.find("aims_wal_recovered_txns 1"), std::string::npos);
  // Omitted when no WAL snapshot is passed (in-memory deployments).
  std::string without = obs::PrometheusExport(registry, nullptr);
  EXPECT_EQ(without.find("aims_wal_"), std::string::npos);
}

TEST(WalHealth, ReporterJudgesWalLagAgainstBudget) {
  obs::MetricsRegistry registry;
  obs::Gauge* lag = registry.GetGauge("storage.wal_lag_bytes");
  obs::StatsReporterConfig config;
  config.wal_lag_budget_bytes = 1000.0;
  obs::StatsReporter reporter(&registry, config);

  lag->Set(100);
  obs::HealthSnapshot snap = reporter.SnapshotNow();
  EXPECT_EQ(snap.level, obs::HealthLevel::kOk);
  EXPECT_DOUBLE_EQ(snap.wal_lag_saturation, 0.1);

  lag->Set(800);
  snap = reporter.SnapshotNow();
  EXPECT_EQ(snap.level, obs::HealthLevel::kDegraded);
  ASSERT_EQ(snap.reasons.size(), 1u);
  EXPECT_NE(snap.reasons[0].find("checkpoint budget"), std::string::npos);

  lag->Set(2000);
  snap = reporter.SnapshotNow();
  EXPECT_EQ(snap.level, obs::HealthLevel::kSaturated);
}

}  // namespace
}  // namespace aims
