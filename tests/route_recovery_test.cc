// One durable commit per ingest. A ShardedCatalog ingest stores its global
// id and client in the session's catalog entry, so the shard's WAL commit
// group is the only durable write and routes.wal holds migration records
// only. These tests pin that contract, the persisted byte formats, and
// the opening of stores whose catalog entries carry no owner (their routes
// come from RouteAdd records in routes.wal).

#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <optional>
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "common/crc32.h"
#include "common/macros.h"
#include "core/aims.h"
#include "server/data_migrator.h"
#include "server/sharded_catalog.h"
#include "storage/tslife.h"
#include "storage/wal.h"

namespace aims {
namespace {

using server::ClientId;
using server::GlobalSessionId;
using server::ShardedCatalog;
using storage::durable::WriteAheadLog;

std::string TestDir(const std::string& name) {
  std::string dir = ::testing::TempDir() + "aims_routes_" + name + "_" +
                    std::to_string(::getpid());
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

core::AimsConfig DurableAt(const std::string& path) {
  core::AimsConfig config;
  config.durability.path = path;
  return config;
}

streams::Recording MakeRecording(size_t frames, double base) {
  streams::Recording rec;
  rec.sample_rate_hz = 100.0;
  for (size_t f = 0; f < frames; ++f) {
    streams::Frame frame;
    frame.timestamp = static_cast<double>(f) / 100.0;
    frame.values = {base + std::sin(0.1 * static_cast<double>(f)),
                    base - std::cos(0.05 * static_cast<double>(f))};
    rec.Append(std::move(frame));
  }
  return rec;
}

/// Two channels, five frames: the recording the byte pins below encode.
streams::Recording PinnedRecording() {
  const double c0[] = {0.5, 1.0, -0.25, 2.0, 0.75};
  const double c1[] = {-1.0, 0.0, 1.0, 0.0, -1.0};
  streams::Recording rec;
  rec.sample_rate_hz = 50.0;
  for (int f = 0; f < 5; ++f) {
    streams::Frame frame;
    frame.timestamp = f / 50.0;
    frame.values = {c0[f], c1[f]};
    rec.Append(std::move(frame));
  }
  return rec;
}

std::string Hex(const std::vector<uint8_t>& bytes) {
  static const char* kDigits = "0123456789abcdef";
  std::string out;
  for (uint8_t b : bytes) {
    out += kDigits[b >> 4];
    out += kDigits[b & 15];
  }
  return out;
}

/// Every catalog blob the WAL at \p path holds in committed groups.
std::vector<std::vector<uint8_t>> CommittedCatalogBlobs(
    const std::string& path) {
  auto opened = WriteAheadLog::Open(path);
  EXPECT_TRUE(opened.ok()) << opened.status().ToString();
  std::vector<std::vector<uint8_t>> blobs;
  if (!opened.ok()) return blobs;
  for (const auto& txn : opened.ValueOrDie().committed) {
    blobs.insert(blobs.end(), txn.catalog_blobs.begin(),
                 txn.catalog_blobs.end());
  }
  return blobs;
}

// Routing-journal records, built field by field in the layout stores
// written before catalog entries carried owners hold: type u8, then
// fixed-width fields in host byte order.
template <typename T>
void Put(std::vector<uint8_t>* out, T v) {
  const size_t at = out->size();
  out->resize(at + sizeof(T));
  std::memcpy(out->data() + at, &v, sizeof(T));
}

std::vector<uint8_t> RouteAdd(GlobalSessionId id, ClientId client,
                              uint32_t shard, uint32_t local) {
  std::vector<uint8_t> out = {1};
  Put(&out, id);
  Put(&out, client);
  Put(&out, shard);
  Put(&out, local);
  return out;
}

std::vector<uint8_t> MigrationBegin(ClientId client, uint32_t target) {
  std::vector<uint8_t> out = {2};
  Put(&out, client);
  Put(&out, target);
  return out;
}

std::vector<uint8_t> RouteMove(GlobalSessionId id, uint32_t shard,
                               uint32_t local) {
  std::vector<uint8_t> out = {3};
  Put(&out, id);
  Put(&out, shard);
  Put(&out, local);
  return out;
}

std::vector<uint8_t> MigrationCommit(ClientId client, uint32_t target) {
  std::vector<uint8_t> out = {4};
  Put(&out, client);
  Put(&out, target);
  return out;
}

/// Runs the staged protocol on \p system with \p owner in the entry.
Result<core::SessionId> IngestOwned(core::AimsSystem* system,
                                    const std::string& name,
                                    const streams::Recording& recording,
                                    core::SessionOwner owner) {
  AIMS_ASSIGN_OR_RETURN(core::AimsSystem::PreparedIngest prepared,
                        system->PrepareIngest(name, recording));
  AIMS_ASSIGN_OR_RETURN(
      core::AimsSystem::StagedIngest staged,
      system->StageIngest(std::move(prepared), nullptr, nullptr, owner));
  AIMS_RETURN_NOT_OK(system->WaitDurable(staged));
  AIMS_RETURN_NOT_OK(system->ApplyStaged(staged));
  return staged.id;
}

// ---- Byte pins -----------------------------------------------------------
// Hex recorded from the encoders before they moved onto the shared byte
// codec. A change here is a format change. The catalog entry's per-channel
// best-basis fields have been written 0 since the report became on demand;
// readers ignore them.

constexpr GlobalSessionId kPinnedGid = (1ull << 48) | 1;
/// The entry as stores wrote it while ingest computed the best-basis
/// report: each channel's first field held the DWPT node count (8 here).
constexpr const char* kIngestTimeBasisEntryHex =
    "060000000000000070696e6e656405000000000000000000000000004940020000000000"
    "000008000000000000009a9999999999e93f080000000000000064666666666605400100"
    "0000000000000000000008000000000000009a9999999999c9bf08000000000000006266"
    "666666660640010000000000000001000000";
/// The entry as written since the report became on demand: the same
/// bytes, with 0 in both channels' basis fields.
constexpr const char* kPinnedEntryHex =
    "060000000000000070696e6e656405000000000000000000000000004940020000000000"
    "000000000000000000009a9999999999e93f080000000000000064666666666605400100"
    "0000000000000000000000000000000000009a9999999999c9bf08000000000000006266"
    "666666660640010000000000000001000000";

TEST(PersistedFormat, CatalogEntryKeepsItsBytesAndAppendsTheOwner) {
  const std::string dir = TestDir("entry_pin");
  {
    core::AimsSystem plain(DurableAt(dir + "/plain"));
    ASSERT_TRUE(plain.IngestRecording("pinned", PinnedRecording()).ok());
    core::AimsSystem owned(DurableAt(dir + "/owned"));
    ASSERT_TRUE(IngestOwned(&owned, "pinned", PinnedRecording(),
                            core::SessionOwner{kPinnedGid, 7})
                    .ok());
  }
  std::vector<std::vector<uint8_t>> plain =
      CommittedCatalogBlobs(dir + "/plain/wal.aims");
  ASSERT_EQ(plain.size(), 1u);
  EXPECT_EQ(Hex(plain[0]), kPinnedEntryHex);
  // The owner trails the entry: global id, then client.
  std::vector<uint8_t> owned_suffix;
  Put(&owned_suffix, kPinnedGid);
  Put(&owned_suffix, uint64_t{7});
  std::vector<std::vector<uint8_t>> owned =
      CommittedCatalogBlobs(dir + "/owned/wal.aims");
  ASSERT_EQ(owned.size(), 1u);
  EXPECT_EQ(Hex(owned[0]), std::string(kPinnedEntryHex) + Hex(owned_suffix));
  std::filesystem::remove_all(dir);
}

/// The rest of the committed group of one plain durable ingest of
/// PinnedRecording, recorded before the block records were built from the
/// prepared payloads: the block puts, then (after the catalog entry) the
/// two channels' sealed segments.
struct PinnedPut {
  storage::BlockId block;
  const char* payload_hex;
};
constexpr PinnedPut kPinnedPuts[] = {
    {0,
     "000000000080b2bc6649fdda6343d53fc7b85b8845a2a2bff24f544aa197e0bfc27d071c"
     "266cf7bf72f3a060ba63c6bf850ab835c9807a3fad2464c2373ed6bf"},
    {1,
     "0000000000009abc4feb96d8f24ae33f9723d23bddaed6bf20667d9dc239c4bf11bf4847"
     "dde8ee3f5e125bf393d1ebbf7f0ab835c980ba3f0e11a4cc7a81e8bf"},
};
constexpr const char* kPinnedSegmentHex[] = {
    "010000000000000000000000000000000000000000000000000000000001000000050000"
    "000000000000000000000000008038010000000000000000000000494000000000000000"
    "00240000000000000000000000000000003fe0000000000000f0000000000004e20d6058"
    "0a802c05ffeb097ffa",
    "010000000000000000010000000000000000000000000000000000000001000000050000"
    "000000000000000000000000008038010000000000000000000000494000000000000000"
    "0022000000000000000000000000000000bff0000000000000f0000000000004e20c05df"
    "fa3ff47feaffc0",
};

std::vector<uint8_t> Unhex(const std::string& hex) {
  std::vector<uint8_t> out;
  for (size_t i = 0; i + 1 < hex.size(); i += 2) {
    out.push_back(
        static_cast<uint8_t>(std::stoi(hex.substr(i, 2), nullptr, 16)));
  }
  return out;
}

/// One line per record of \p txn: its puts, catalog entries and segment
/// ops, each kind in append order.
std::vector<std::string> GroupLines(
    const storage::durable::RecoveredTxn& txn) {
  std::vector<std::string> lines;
  for (const auto& [block, payload] : txn.block_puts) {
    lines.push_back("put " + std::to_string(block) + " " + Hex(payload));
  }
  for (const auto& blob : txn.catalog_blobs) {
    lines.push_back("catalog " + Hex(blob));
  }
  for (const auto& blob : txn.segment_blobs) {
    lines.push_back("segment " + Hex(blob));
  }
  return lines;
}

/// The pinned group with \p entry_hex as its catalog entry.
std::vector<std::string> PinnedGroupLines(const std::string& entry_hex) {
  std::vector<std::string> lines;
  for (const PinnedPut& put : kPinnedPuts) {
    lines.push_back("put " + std::to_string(put.block) + " " + put.payload_hex);
  }
  lines.push_back("catalog " + entry_hex);
  for (const char* seg : kPinnedSegmentHex) {
    lines.push_back("segment " + std::string(seg));
  }
  return lines;
}

TEST(PersistedFormat, IngestGroupKeepsItsBytes) {
  const std::string dir = TestDir("group_pin");
  {
    core::AimsSystem system(DurableAt(dir));
    ASSERT_TRUE(system.IngestRecording("pinned", PinnedRecording()).ok());
  }
  auto opened = WriteAheadLog::Open(dir + "/wal.aims");
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  const auto& committed = opened.ValueOrDie().committed;
  ASSERT_EQ(committed.size(), 1u);
  EXPECT_EQ(GroupLines(committed[0]), PinnedGroupLines(kPinnedEntryHex));
  std::filesystem::remove_all(dir);
}

TEST(PersistedFormat, GroupWithIngestTimeBasisCountsStillLoads) {
  // The group exactly as stores wrote it before the report became on
  // demand. The basis fields are read and ignored; the on-demand report
  // recomputes the same counts from the stored coefficients.
  const std::string dir = TestDir("group_old_basis");
  {
    auto opened = WriteAheadLog::Open(dir + "/wal.aims");
    ASSERT_TRUE(opened.ok()) << opened.status().ToString();
    WriteAheadLog& wal = *opened.ValueOrDie().wal;
    const uint64_t txn = wal.BeginTxn().ValueOrDie();
    for (const PinnedPut& put : kPinnedPuts) {
      ASSERT_TRUE(
          wal.AppendBlockPut(txn, put.block, Unhex(put.payload_hex)).ok());
    }
    ASSERT_TRUE(wal.AppendCatalog(txn, Unhex(kIngestTimeBasisEntryHex)).ok());
    for (const char* seg : kPinnedSegmentHex) {
      ASSERT_TRUE(wal.AppendSegment(txn, Unhex(seg)).ok());
    }
    ASSERT_TRUE(wal.Commit(txn).ok());
  }
  const streams::Recording recording = PinnedRecording();
  // The first open replays the group; the second loads the snapshot that
  // recovery wrote, whose entry carries 0 in the basis fields.
  for (int reopen = 0; reopen < 2; ++reopen) {
    SCOPED_TRACE("reopen " + std::to_string(reopen));
    core::AimsSystem system(DurableAt(dir));
    ASSERT_TRUE(system.init_status().ok()) << system.init_status().ToString();
    auto info = system.GetSession(0);
    ASSERT_TRUE(info.ok());
    EXPECT_EQ(info->name, "pinned");
    EXPECT_EQ(info->num_frames, 5u);
    EXPECT_EQ(info->num_channels, 2u);
    for (size_t c = 0; c < 2; ++c) {
      const std::vector<double> want = recording.Channel(c);
      auto read = system.ReadChannel(0, c);
      ASSERT_TRUE(read.ok());
      ASSERT_EQ(read->size(), want.size());
      for (size_t f = 0; f < want.size(); ++f) {
        EXPECT_NEAR((*read)[f], want[f], 1e-12);
      }
      auto raw = system.ReadRawSamples(0, c);
      ASSERT_TRUE(raw.ok());
      ASSERT_EQ(raw->size(), want.size());
      for (size_t f = 0; f < want.size(); ++f) {
        EXPECT_EQ((*raw)[f].value, want[f]);
      }
    }
    EXPECT_EQ(system.BestBasisReport(0).ValueOrDie(),
              (std::vector<size_t>{8, 8}));
  }
  std::filesystem::remove_all(dir);
}

TEST(PersistedFormat, MultiBlockIngestGroupKeepsItsBytes) {
  // Five blocks per channel, so the order of the block records within a
  // channel is pinned too. Recorded before the block records were built
  // from the prepared payloads: each put's and segment op's size and
  // CRC-32, and the catalog entry with its basis fields zeroed (they then
  // held the ingest-time node count, 2 for both channels).
  const std::vector<std::string> want = {
      "put 0 512 72106fda", "put 1 504 476bf77e", "put 2 504 b836ad24",
      "put 3 504 3c7cc602", "put 4 24 0eb40c00",  "put 5 512 c346a69e",
      "put 6 504 09997520", "put 7 504 cd14588a", "put 8 504 bdc052b1",
      "put 9 24 33950fde",
      "catalog "
      "05000000000000006d756c7469c80000000000000000000000000059400200000000"
      "00000000000000000000009a584d73c66ff03f00010000000000009c9f3803fa6458"
      "40050000000000000000000000010000000200000003000000040000000000000000"
      "000000590ef9d8f3cbf03f0001000000000000cc9b474ba20d5a4005000000000000"
      "000500000006000000070000000800000009000000",
      "segment 1541 39eae1a2", "segment 1523 da2da623"};
  const std::string dir = TestDir("multi_block_pin");
  {
    core::AimsSystem system(DurableAt(dir));
    auto id = system.IngestRecording("multi", MakeRecording(200, 1.0));
    ASSERT_TRUE(id.ok()) << id.status().ToString();
    // The on-demand report matches the counts ingest used to store.
    EXPECT_EQ(system.BestBasisReport(*id).ValueOrDie(),
              (std::vector<size_t>{2, 2}));
  }
  auto opened = WriteAheadLog::Open(dir + "/wal.aims");
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  const auto& committed = opened.ValueOrDie().committed;
  ASSERT_EQ(committed.size(), 1u);
  const storage::durable::RecoveredTxn& txn = committed[0];
  auto sized_crc = [](const std::vector<uint8_t>& bytes) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%zu %08x", bytes.size(),
                  Crc32(bytes.data(), bytes.size()));
    return std::string(buf);
  };
  std::vector<std::string> got;
  for (const auto& [block, payload] : txn.block_puts) {
    got.push_back("put " + std::to_string(block) + " " + sized_crc(payload));
  }
  for (const auto& blob : txn.catalog_blobs) {
    got.push_back("catalog " + Hex(blob));
  }
  for (const auto& blob : txn.segment_blobs) {
    got.push_back("segment " + sized_crc(blob));
  }
  EXPECT_EQ(got, want);
  std::filesystem::remove_all(dir);
}

TEST(PersistedFormat, SegmentOpsKeepTheirBytes) {
  storage::tslife::Segment seg;
  seg.meta.channel = 1;
  seg.meta.seq = 2;
  seg.meta.tier = 1;
  seg.meta.decimation = 4;
  seg.meta.count = 5;
  seg.meta.t0_us = -20000;
  seg.meta.t1_us = 60000;
  seg.meta.rate_hz = 12.5;
  seg.meta.nmse = 0.125;
  seg.bytes = {0xde, 0xad, 0xbe, 0xef};
  const std::string meta_hex =
      "03000000000000000100000000000000020000000000000001000000040000000500"
      "000000000000e0b1ffffffffffff60ea0000000000000000000000002940000000000"
      "000c03f";
  using Kind = storage::tslife::SegmentOp::Kind;
  EXPECT_EQ(Hex(storage::tslife::EncodeSegmentOp(Kind::kPut, 3, seg)),
            "01" + meta_hex + "0400000000000000deadbeef");
  EXPECT_EQ(Hex(storage::tslife::EncodeSegmentOp(Kind::kDrop, 3, seg)),
            "02" + meta_hex);
}

TEST(PersistedFormat, RoutingJournalRecordsKeepTheirBytes) {
  // The hand-built records above match the pinned encoding of every type.
  EXPECT_EQ(Hex(RouteAdd(kPinnedGid, 7, 1, 0)),
            "01010000000000010007000000000000000100000000000000");
  EXPECT_EQ(Hex(MigrationBegin(7, 0)), "02070000000000000000000000");
  EXPECT_EQ(Hex(RouteMove(kPinnedGid, 0, 0)),
            "0301000000000001000000000000000000");
  EXPECT_EQ(Hex(MigrationCommit(7, 0)), "04070000000000000000000000");

  // An ingest plus a migration writes exactly the two migration records.
  const std::string dir = TestDir("journal_pin");
  {
    ShardedCatalog catalog(2, DurableAt(dir));
    ASSERT_TRUE(catalog.init_status().ok());
    ASSERT_EQ(catalog.router().ShardForClient(7), 1u);
    auto id = catalog.Ingest(7, "pinned", PinnedRecording());
    ASSERT_TRUE(id.ok()) << id.status().ToString();
    EXPECT_EQ(*id, kPinnedGid);
    server::DataMigrator migrator(&catalog);
    ASSERT_TRUE(migrator.MigrateTenant(7, 0).ok());
  }
  const std::vector<std::vector<uint8_t>> want = {RouteMove(kPinnedGid, 0, 0),
                                                  MigrationCommit(7, 0)};
  EXPECT_EQ(CommittedCatalogBlobs(dir + "/routes.wal"), want);
  // Compaction keeps exactly these: the session has left its owner-tagged
  // entry on shard 1. Every reopen resolves it on shard 0.
  for (int reopen = 0; reopen < 2; ++reopen) {
    {
      ShardedCatalog catalog(2, DurableAt(dir));
      ASSERT_TRUE(catalog.init_status().ok());
      EXPECT_EQ(catalog.ShardStats()[0].sessions, 1u) << "reopen " << reopen;
      EXPECT_EQ(catalog.router().PinOf(7), std::optional<size_t>(0));
      EXPECT_TRUE(catalog.ReadChannel(kPinnedGid, 1).ok());
    }
    EXPECT_EQ(CommittedCatalogBlobs(dir + "/routes.wal"), want);
  }
  std::filesystem::remove_all(dir);
}

// ---- One durable write per ingest ----------------------------------------

TEST(RouteRecovery, DurableIngestsLeaveTheRoutingJournalUntouched) {
  const std::string dir = TestDir("one_write");
  std::vector<std::pair<GlobalSessionId, ClientId>> ingested;
  {
    ShardedCatalog catalog(2, DurableAt(dir));
    ASSERT_TRUE(catalog.init_status().ok());
    const auto journal_bytes = std::filesystem::file_size(dir + "/routes.wal");
    for (size_t i = 0; i < 20; ++i) {
      const ClientId client = 1 + i % 4;
      auto id = catalog.Ingest(client, std::to_string(i),
                               MakeRecording(48, static_cast<double>(i)));
      ASSERT_TRUE(id.ok()) << id.status().ToString();
      ingested.emplace_back(*id, client);
    }
    EXPECT_EQ(std::filesystem::file_size(dir + "/routes.wal"), journal_bytes);
  }
  // The shard catalogs alone route every session again.
  ShardedCatalog reopened(2, DurableAt(dir));
  ASSERT_TRUE(reopened.init_status().ok());
  std::vector<std::pair<GlobalSessionId, ClientId>> recovered;
  for (const auto& entry : reopened.ListSessions()) {
    recovered.emplace_back(entry.id, entry.client);
  }
  EXPECT_EQ(recovered, ingested);
  std::filesystem::remove_all(dir);
}

TEST(RouteRecovery, IngestFailedInWriteBackRecoversUnderItsClient) {
  // The commit is durable before write-back, so an ingest that fails there
  // was never acknowledged yet recovers under its own client and id. A
  // retry is a second session.
  const std::string dir = TestDir("writeback_fault");
  const ClientId client = 11;
  GlobalSessionId retried = 0;
  {
    ShardedCatalog catalog(1, DurableAt(dir));
    ASSERT_TRUE(catalog.init_status().ok());
    server::AdminFaultRequest fault;
    fault.fail_next_writes = 1;
    ASSERT_TRUE(catalog.ApplyFault(fault).ok());
    auto failed = catalog.Ingest(client, "attempt", MakeRecording(64, 1.0));
    ASSERT_FALSE(failed.ok());
    EXPECT_EQ(failed.status().code(), StatusCode::kIoError);
    auto retry = catalog.Ingest(client, "attempt", MakeRecording(64, 1.0));
    ASSERT_TRUE(retry.ok()) << retry.status().ToString();
    retried = *retry;
    EXPECT_EQ(catalog.total_sessions(), 1u);
  }
  ShardedCatalog reopened(1, DurableAt(dir));
  ASSERT_TRUE(reopened.init_status().ok());
  auto sessions = reopened.ListSessions();
  ASSERT_EQ(sessions.size(), 2u);
  for (const auto& entry : sessions) {
    EXPECT_EQ(entry.client, client);
    EXPECT_EQ(entry.info.name, "attempt");
    EXPECT_TRUE(reopened.ReadChannel(entry.id, 0).ok());
  }
  EXPECT_LT(sessions[0].id, retried);
  EXPECT_EQ(sessions[1].id, retried);
  std::filesystem::remove_all(dir);
}

TEST(RouteRecovery, TwoEntriesClaimingOneSessionIdAreRefused) {
  const std::string dir = TestDir("duplicate_owner");
  for (int shard = 0; shard < 2; ++shard) {
    core::AimsSystem system(
        DurableAt(dir + "/shard_" + std::to_string(shard)));
    ASSERT_TRUE(IngestOwned(&system, "twin", MakeRecording(32, shard),
                            core::SessionOwner{kPinnedGid, 3})
                    .ok());
  }
  ShardedCatalog catalog(2, DurableAt(dir));
  const Status status = catalog.init_status();
  EXPECT_EQ(status.code(), StatusCode::kIoError);
  EXPECT_NE(status.message().find("two shard entries claim"),
            std::string::npos)
      << status.ToString();
  EXPECT_FALSE(catalog.Ingest(3, "refused", MakeRecording(32, 0.0)).ok());
  std::filesystem::remove_all(dir);
}

// ---- Stores whose entries carry no owner ---------------------------------

/// Every route of a catalog as (id, client, name), plus two tenants' pins
/// and the routed sessions per shard.
struct RouteView {
  std::vector<std::tuple<GlobalSessionId, ClientId, std::string>> sessions;
  std::optional<size_t> pin_a;
  std::optional<size_t> pin_b;
  std::vector<size_t> shard_sessions;

  bool operator==(const RouteView&) const = default;
};

RouteView ViewOf(const ShardedCatalog& catalog, ClientId a, ClientId b) {
  RouteView view;
  for (const auto& entry : catalog.ListSessions()) {
    view.sessions.emplace_back(entry.id, entry.client, entry.info.name);
  }
  view.pin_a = catalog.router().PinOf(a);
  view.pin_b = catalog.router().PinOf(b);
  for (const auto& shard : catalog.ShardStats()) {
    view.shard_sessions.push_back(shard.sessions);
  }
  return view;
}

TEST(RouteRecovery, StoreWithoutOwnersOpensFromItsJournal) {
  // A store as written before entries carried owners. Tenant 9 ingested
  // b0 on shard 1; tenant 5 ingested a0 and a1 on shard 0, then migrated
  // both to shard 1 and committed. Tenant 9 then began a migration to
  // shard 0 and crashed after copying b0: that copy is named by no record.
  const std::string dir = TestDir("ownerless");
  const ClientId a = 5, b = 9;
  const GlobalSessionId b0 = (1ull << 48) | 1, a0 = (1ull << 48) | 2,
                        a1 = (1ull << 48) | 3;
  {
    core::AimsSystem shard0(DurableAt(dir + "/shard_0"));
    core::AimsSystem shard1(DurableAt(dir + "/shard_1"));
    ASSERT_TRUE(shard1.IngestRecording("b0", MakeRecording(40, 9.0)).ok());
    ASSERT_TRUE(shard0.IngestRecording("a0", MakeRecording(40, 5.0)).ok());
    ASSERT_TRUE(shard0.IngestRecording("a1", MakeRecording(40, 5.5)).ok());
    ASSERT_TRUE(shard1.IngestRecording("a0", MakeRecording(40, 5.0)).ok());
    ASSERT_TRUE(shard1.IngestRecording("a1", MakeRecording(40, 5.5)).ok());
    ASSERT_TRUE(shard0.IngestRecording("b0", MakeRecording(40, 9.0)).ok());
    auto journal = WriteAheadLog::Open(dir + "/routes.wal");
    ASSERT_TRUE(journal.ok());
    WriteAheadLog& wal = *journal.ValueOrDie().wal;
    for (const std::vector<uint8_t>& record :
         {RouteAdd(b0, b, 1, 0), RouteAdd(a0, a, 0, 0), RouteAdd(a1, a, 0, 1),
          MigrationBegin(a, 1), RouteMove(a0, 1, 1), RouteMove(a1, 1, 2),
          MigrationCommit(a, 1), MigrationBegin(b, 0)}) {
      const uint64_t txn = wal.BeginTxn().ValueOrDie();
      ASSERT_TRUE(wal.AppendCatalog(txn, record).ok());
      ASSERT_TRUE(wal.Commit(txn).ok());
    }
  }

  RouteView first;
  {
    ShardedCatalog catalog(2, DurableAt(dir));
    ASSERT_TRUE(catalog.init_status().ok())
        << catalog.init_status().ToString();
    first = ViewOf(catalog, a, b);
    const RouteView want{{{b0, b, "b0"}, {a0, a, "a0"}, {a1, a, "a1"}},
                         1,
                         std::nullopt,
                         {0, 3}};
    EXPECT_EQ(first, want);
    // a1 answers from its moved copy.
    double a1_sum = 0.0;
    for (const auto& frame : MakeRecording(40, 5.5).frames) {
      a1_sum += frame.values[0];
    }
    auto a1_stats = catalog.QueryRange(a1, 0, 0, 39);
    ASSERT_TRUE(a1_stats.ok());
    EXPECT_NEAR(a1_stats->sum, a1_sum, 1e-9);
  }
  // Compaction kept what the shard entries cannot supply: the routes of
  // owner-less entries, where they now live, and the committed pin.
  const std::vector<std::vector<uint8_t>> compacted = {
      RouteAdd(b0, b, 1, 0), RouteAdd(a0, a, 1, 1), RouteAdd(a1, a, 1, 2),
      MigrationCommit(a, 1)};
  EXPECT_EQ(CommittedCatalogBlobs(dir + "/routes.wal"), compacted);

  GlobalSessionId fresh = 0;
  {
    ShardedCatalog catalog(2, DurableAt(dir));
    ASSERT_TRUE(catalog.init_status().ok());
    EXPECT_EQ(ViewOf(catalog, a, b), first);
    // A new ingest mints past every recovered id and is routed by its
    // entry, not by the journal.
    auto id = catalog.Ingest(a, "a2", MakeRecording(40, 6.0));
    ASSERT_TRUE(id.ok());
    fresh = *id;
    EXPECT_GT(fresh & 0xffffffffffffull, 3u);
  }
  EXPECT_EQ(CommittedCatalogBlobs(dir + "/routes.wal"), compacted);
  ShardedCatalog catalog(2, DurableAt(dir));
  ASSERT_TRUE(catalog.init_status().ok());
  RouteView third = ViewOf(catalog, a, b);
  ASSERT_EQ(third.sessions.size(), 4u);
  EXPECT_EQ(third.sessions.back(),
            std::make_tuple(fresh, a, std::string("a2")));
  third.sessions.pop_back();
  EXPECT_EQ(third.sessions, first.sessions);
  EXPECT_EQ(third.shard_sessions, (std::vector<size_t>{0, 4}));
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace aims
