// Seeded mutation test of the routing journal. A two-shard durable catalog
// holds owner-tagged ingests of four tenants; one tenant was moved to the
// other shard (RouteMove and MigrationCommit records) and one was pinned
// where it is (a MigrationCommit alone). It is reopened with routes.wal
// mutated by the shared harness: raw (so the record CRCs mostly catch it),
// with every record's CRC recomputed after the mutation (so the garbage
// reaches replay), and with one record's payload mutated and validly
// re-framed. The format-specific inflations set a record's id to one with
// every counter bit set or to another session's id, push a shard or local
// index past the topology, or rewrite a client id. Every open must return
// a Status or a catalog in which each acknowledged session is listed
// exactly once, under its own client, and reads back bit for bit; a new
// ingest must then survive the next open or be refused with
// ResourceExhausted. Nothing may crash, trip ASan/UBSan, or make an
// allocation larger than the intact open needed or twice the bytes of the
// store's files.

#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <limits>
#include <map>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "allocation_tracker.h"
#include "common/crc32.h"
#include "mutation_harness.h"
#include "server/data_migrator.h"
#include "server/sharded_catalog.h"
#include "streams/sample.h"

namespace aims {
namespace {

using server::ClientId;
using server::GlobalSessionId;
using server::ShardedCatalog;

constexpr int kMutationsPerMode = 300;
constexpr size_t kShards = 2;
constexpr uint64_t kCounterMask = 0xffffffffffffull;

// The WAL framing routes.wal shares with the shard logs (storage/wal.cc): a
// 16-byte file header, then records of crc u32 | type u8 | pad u8[3] |
// txn_id u64 | payload_size u32 | payload, the CRC covering everything
// after itself. A journal entry is one catalog record (type 3) whose
// payload is type u8, then an id or client u64 at 1, then u32 fields: a
// RouteMove's shard at 9 and local at 13, a MigrationCommit's target at 9,
// a RouteAdd's client u64 at 9, shard at 17 and local at 21.
constexpr size_t kFileHeaderSize = 16;
constexpr size_t kRecordHeaderSize = 20;
constexpr size_t kTypeOffset = 4;
constexpr size_t kTxnOffset = 8;
constexpr size_t kSizeOffset = 16;
constexpr uint8_t kCatalogRecord = 3;

/// The store's files, relative to its directory.
const std::vector<std::string> kFiles = [] {
  std::vector<std::string> files = {"routes.wal"};
  for (size_t s = 0; s < kShards; ++s) {
    for (const char* file : {"pages.aims", "wal.aims", "wal.1.aims",
                             "catalog.snap", "catalog.log"}) {
      files.push_back("shard_" + std::to_string(s) + "/" + file);
    }
  }
  return files;
}();
constexpr size_t kJournal = 0;

std::string TestDir(const std::string& name) {
  std::string dir = ::testing::TempDir() + "aims_route_mutation_" + name +
                    "_" + std::to_string(::getpid());
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

/// A durable store whose commits skip the fsync: every reopen here is in
/// the same process, which an unsynced commit survives.
core::AimsConfig DurableAt(const std::string& dir) {
  core::AimsConfig config;
  config.durability.path = dir;
  config.durability.sync_mode = storage::durable::WalSyncMode::kNone;
  return config;
}

streams::Recording MakeRecording(size_t frames, uint32_t seed) {
  streams::Recording rec;
  rec.sample_rate_hz = 100.0;
  for (size_t f = 0; f < frames; ++f) {
    streams::Frame frame;
    frame.timestamp = static_cast<double>(f) / 100.0;
    frame.values = {std::sin(0.05 * static_cast<double>(f) + seed),
                    std::cos(0.07 * static_cast<double>(f) - seed)};
    rec.Append(std::move(frame));
  }
  return rec;
}

struct Record {
  size_t pos;
  uint32_t size;
  uint8_t type;
};

/// The records of a log file in scan order, up to the first one whose
/// claimed size runs past the end of the file.
std::vector<Record> Records(const std::vector<uint8_t>& log) {
  std::vector<Record> records;
  size_t pos = kFileHeaderSize;
  while (pos + kRecordHeaderSize <= log.size()) {
    uint32_t size = 0;
    std::memcpy(&size, log.data() + pos + kSizeOffset, sizeof(size));
    if (size > log.size() - pos - kRecordHeaderSize) break;
    records.push_back({pos, size, log[pos + kTypeOffset]});
    pos += kRecordHeaderSize + size;
  }
  return records;
}

/// Recomputes the CRC of the record at \p pos, when the file holds it all.
void Seal(std::vector<uint8_t>* log, size_t pos) {
  if (pos + kRecordHeaderSize > log->size()) return;
  uint32_t size = 0;
  std::memcpy(&size, log->data() + pos + kSizeOffset, sizeof(size));
  if (size > log->size() - pos - kRecordHeaderSize) return;
  const uint32_t crc = Crc32(log->data() + pos + kTypeOffset,
                             kRecordHeaderSize - kTypeOffset + size);
  std::memcpy(log->data() + pos, &crc, sizeof(crc));
}

std::vector<uint8_t> ResealAll(std::vector<uint8_t> log) {
  for (const Record& record : Records(log)) Seal(&log, record.pos);
  return log;
}

/// \p log with \p record's payload replaced by \p payload under a valid
/// size and CRC.
std::vector<uint8_t> Reframe(const std::vector<uint8_t>& log,
                             const Record& record,
                             const std::vector<uint8_t>& payload) {
  std::vector<uint8_t> out(log.begin(),
                           log.begin() + record.pos + kRecordHeaderSize);
  out.insert(out.end(), payload.begin(), payload.end());
  out.insert(out.end(),
             log.begin() + record.pos + kRecordHeaderSize + record.size,
             log.end());
  mutation::PatchU32(&out, record.pos + kSizeOffset,
                     static_cast<uint32_t>(payload.size()));
  Seal(&out, record.pos);
  return out;
}

struct Session {
  GlobalSessionId id;
  ClientId client;
  std::vector<std::vector<double>> channels;
};

class RouteJournalMutationTest : public ::testing::Test {
 protected:
  void SetUp() override {
    source_ = TestDir("source");
    work_ = TestDir("work");
    {
      ShardedCatalog catalog(kShards, DurableAt(source_));
      ASSERT_TRUE(catalog.init_status().ok());
      // Four tenants, eight sessions, each named and shaped apart.
      for (uint32_t i = 0; i < 8; ++i) {
        const ClientId client = 1 + i % 4;
        auto id = catalog.Ingest(client, "s" + std::to_string(i),
                                 MakeRecording(60 + 10 * i, i));
        ASSERT_TRUE(id.ok()) << id.status().ToString();
        sessions_.push_back(Session{*id, client, {}});
      }
      // Tenant 1 moves to the other shard; tenant 2 is pinned in place.
      server::DataMigrator migrator(&catalog);
      moved_client_ = 1;
      const size_t from = catalog.router().ShardForClient(moved_client_);
      ASSERT_TRUE(migrator.MigrateTenant(moved_client_, 1 - from).ok());
      ASSERT_TRUE(
          migrator.MigrateTenant(2, catalog.router().ShardForClient(2)).ok());
      for (Session& session : sessions_) {
        for (size_t c = 0; c < 2; ++c) {
          session.channels.push_back(
              catalog.ReadChannel(session.id, c).ValueOrDie());
        }
      }
    }
    for (const std::string& file : kFiles) {
      files_.push_back(mutation::ReadFile(source_ + "/" + file));
      present_bytes_ += files_.back().size();
    }
    records_ = Records(files_[kJournal]);
    size_t entries = 0;
    for (const Record& record : records_) {
      if (record.type == kCatalogRecord) {
        entries_.push_back(record);
        ++entries;
      }
    }
    // Two RouteMoves and two MigrationCommits.
    ASSERT_EQ(entries, 4u);
    probe_ = MakeRecording(90, 99);
  }

  void TearDown() override {
    std::filesystem::remove_all(source_);
    std::filesystem::remove_all(work_);
  }

  /// Reopens a copy of the store with routes.wal replaced by \p journal.
  std::unique_ptr<ShardedCatalog> OpenWith(
      const std::vector<uint8_t>& journal) {
    std::filesystem::remove_all(work_);
    for (size_t s = 0; s < kShards; ++s) {
      std::filesystem::create_directories(work_ + "/shard_" +
                                          std::to_string(s));
    }
    for (size_t f = 0; f < kFiles.size(); ++f) {
      mutation::WriteFile(work_ + "/" + kFiles[f],
                          f == kJournal ? journal : files_[f]);
    }
    mutation::ResetLargestAllocation();
    auto catalog = std::make_unique<ShardedCatalog>(kShards, DurableAt(work_));
    largest_allocation_ = mutation::LargestAllocation();
    return catalog;
  }

  /// Every acknowledged session is listed exactly once, under its own
  /// client, and reads back bit for bit.
  void ExpectAcknowledged(const ShardedCatalog& catalog,
                          const std::string& what) {
    std::map<GlobalSessionId, std::vector<ClientId>> listed;
    for (const auto& entry : catalog.ListSessions()) {
      listed[entry.id].push_back(entry.client);
      // Whatever else is listed answers or returns a Status.
      (void)catalog.ReadChannel(entry.id, 0);
    }
    for (const Session& session : sessions_) {
      EXPECT_EQ(listed[session.id], std::vector<ClientId>{session.client})
          << what << ": session " << session.id;
      for (size_t c = 0; c < 2; ++c) {
        Result<std::vector<double>> channel =
            catalog.ReadChannel(session.id, c);
        ASSERT_TRUE(channel.ok())
            << what << ": session " << session.id << " "
            << channel.status().ToString();
        EXPECT_EQ(*channel, session.channels[c])
            << what << ": session " << session.id << " channel " << c;
      }
    }
  }

  /// Checks an opened catalog, then ingests a probe and checks that it and
  /// every acknowledged session survive the next open.
  void CheckServes(std::unique_ptr<ShardedCatalog> catalog,
                   const std::string& what) {
    ExpectAcknowledged(*catalog, what);
    constexpr ClientId kProbeClient = 3;
    const Result<GlobalSessionId> probe =
        catalog->Ingest(kProbeClient, "probe", probe_);
    if (!probe.ok()) {
      EXPECT_EQ(probe.status().code(), StatusCode::kResourceExhausted)
          << what << ": " << probe.status().ToString();
      ++exhausted_;
      return;
    }
    const std::vector<double> probe_channel =
        catalog->ReadChannel(*probe, 1).ValueOrDie();
    catalog.reset();
    ShardedCatalog reopened(kShards, DurableAt(work_));
    ASSERT_TRUE(reopened.init_status().ok())
        << what << ": " << reopened.init_status().ToString();
    ExpectAcknowledged(reopened, what + " (reopened)");
    size_t found = 0;
    for (const auto& entry : reopened.ListSessions()) {
      if (entry.id != *probe) continue;
      ++found;
      EXPECT_EQ(entry.client, kProbeClient) << what;
      Result<std::vector<double>> channel = reopened.ReadChannel(*probe, 1);
      EXPECT_TRUE(channel.ok() && *channel == probe_channel)
          << what << ": the probe ingest reads back changed";
    }
    EXPECT_EQ(found, 1u) << what << ": the acknowledged probe ingest is lost";
  }

  std::string source_, work_;
  std::vector<Session> sessions_;
  ClientId moved_client_ = 0;
  streams::Recording probe_;
  std::vector<std::vector<uint8_t>> files_;
  std::vector<Record> records_;
  std::vector<Record> entries_;  ///< The catalog records: journal entries.
  size_t present_bytes_ = 0;
  size_t largest_allocation_ = 0;
  size_t exhausted_ = 0;  ///< Opened catalogs that refused the probe.
};

TEST_F(RouteJournalMutationTest, EveryMutationIsAStatusOrAServingCatalog) {
  CheckServes(OpenWith(files_[kJournal]), "intact");
  ASSERT_FALSE(HasFailure());
  ASSERT_EQ(exhausted_, 0u);
  const size_t allocation_bound =
      std::max(largest_allocation_, 2 * present_bytes_);

  constexpr uint64_t kMax = std::numeric_limits<uint64_t>::max();
  std::vector<GlobalSessionId> ids;
  for (const Session& session : sessions_) ids.push_back(session.id);
  // The id (or a commit's client) at payload offset 1: every counter bit
  // set, or another session's id.
  auto inflate_id = [ids](std::vector<uint8_t>* m, size_t at,
                          std::mt19937_64* r) {
    const uint64_t epoch = ((*r)() % 4) << 48;
    const uint64_t choices[] = {epoch | kCounterMask, kMax,
                                kCounterMask, ids[(*r)() % ids.size()],
                                epoch | ((*r)() % 12)};
    mutation::PatchU64(m, at + 1, choices[(*r)() % 5]);
  };
  // A shard, target or local index at payload offset 9, 13, 17 or 21.
  auto inflate_index = [](std::vector<uint8_t>* m, size_t at,
                          std::mt19937_64* r) {
    const size_t offsets[] = {9, 13, 17, 21};
    const uint32_t choices[] = {static_cast<uint32_t>(kShards),
                                std::numeric_limits<uint32_t>::max(),
                                static_cast<uint32_t>((*r)() % 16),
                                static_cast<uint32_t>((*r)())};
    mutation::PatchU32(m, at + offsets[(*r)() % 4], choices[(*r)() % 4]);
  };
  // A client: a commit's at 1, a RouteAdd's at 9.
  auto inflate_client = [](std::vector<uint8_t>* m, size_t at,
                           std::mt19937_64* r) {
    const uint64_t choices[] = {0, 1 + (*r)() % 6, kMax, (*r)()};
    mutation::PatchU64(m, at + ((*r)() % 2 == 0 ? 1 : 9), choices[(*r)() % 4]);
  };
  // A journal entry's type: the three record kinds, the retired type 2,
  // or anything.
  auto inflate_type = [](std::vector<uint8_t>* m, size_t at,
                         std::mt19937_64* r) {
    if (at < m->size()) {
      (*m)[at] = static_cast<uint8_t>((*r)() % 2 == 0 ? 1 + (*r)() % 4
                                                      : (*r)());
    }
  };
  // File level: one entry's payload field under a recomputed CRC, or a
  // record's txn id.
  const std::vector<Record>& entries = entries_;
  const std::vector<Record>& records = records_;
  auto in_entry = [&entries](auto inflate) {
    return [&entries, inflate](std::vector<uint8_t>* m, std::mt19937_64* r) {
      const Record& entry = entries[(*r)() % entries.size()];
      inflate(m, entry.pos + kRecordHeaderSize, r);
      Seal(m, entry.pos);
    };
  };
  const std::vector<mutation::Inflation> inflations = {
      in_entry(inflate_id), in_entry(inflate_index), in_entry(inflate_client),
      in_entry(inflate_type),
      [&records](std::vector<uint8_t>* m, std::mt19937_64* r) {
        const Record& record = records[(*r)() % records.size()];
        const uint64_t choices[] = {0, 1 + (*r)() % 6, kMax, (*r)()};
        mutation::PatchU64(m, record.pos + kTxnOffset, choices[(*r)() % 4]);
        Seal(m, record.pos);
      }};
  // Payload level: the same fields of one entry, before it is re-framed.
  auto in_payload = [](auto inflate) {
    return [inflate](std::vector<uint8_t>* m, std::mt19937_64* r) {
      inflate(m, 0, r);
    };
  };
  const std::vector<mutation::Inflation> payload_inflations = {
      in_payload(inflate_id), in_payload(inflate_index),
      in_payload(inflate_client), in_payload(inflate_type)};

  std::mt19937_64 rng(20261022);
  const std::vector<uint8_t>& journal = files_[kJournal];
  size_t refused = 0, opened = 0;
  for (int mode = 0; mode < 3; ++mode) {
    for (int i = 0; i < kMutationsPerMode; ++i) {
      std::vector<uint8_t> bytes;
      switch (mode) {
        case 0:  // raw
          bytes = mutation::Mutate(journal, &rng, inflations);
          break;
        case 1:  // every record re-sealed after the mutation
          bytes = ResealAll(mutation::Mutate(journal, &rng, inflations));
          break;
        default: {  // one entry's payload, validly re-framed
          const Record& entry = entries_[rng() % entries_.size()];
          const std::vector<uint8_t> payload(
              journal.begin() + entry.pos + kRecordHeaderSize,
              journal.begin() + entry.pos + kRecordHeaderSize + entry.size);
          bytes = Reframe(journal, entry,
                          mutation::Mutate(payload, &rng, payload_inflations));
          break;
        }
      }
      const std::string what =
          "mode " + std::to_string(mode) + " mutation " + std::to_string(i);
      std::unique_ptr<ShardedCatalog> catalog = OpenWith(bytes);
      ASSERT_LE(largest_allocation_, allocation_bound) << what;
      if (!catalog->init_status().ok()) {
        ++refused;
        continue;
      }
      ++opened;
      CheckServes(std::move(catalog), what);
      if (HasFailure()) return;
    }
  }
  // The budget must reach both outcomes, or the mutations are not reaching
  // the replay they are meant to test.
  EXPECT_GT(refused, 0u);
  EXPECT_GT(opened, exhausted_);
}

}  // namespace
}  // namespace aims
