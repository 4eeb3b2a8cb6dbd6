// Seeded mutation test of the write-ahead log: a durable store whose
// wal.aims holds three committed ingest groups (begin, block puts, a
// catalog blob, segment records, commit) is reopened with that file
// mutated by the shared harness — raw (so the record CRCs mostly catch
// it), with every record's CRC recomputed after the mutation (so the
// garbage reaches replay), and with one record's payload mutated and
// validly re-framed. The format-specific inflations rewrite a record's
// payload size, type or txn id under a recomputed CRC, or the file
// header's txn high-water mark. Every open must return a Status or a
// store that serves its sessions: each reads back or returns a Status,
// and a new ingest is still there, bit for bit, at the next open. Nothing
// may crash, trip ASan/UBSan, or make an allocation larger than the
// intact open needed or twice the bytes of the store's files.

#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <limits>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "allocation_tracker.h"
#include "common/crc32.h"
#include "core/aims.h"
#include "mutation_harness.h"
#include "streams/sample.h"

namespace aims {
namespace {

constexpr const char* kFiles[] = {"pages.aims", "wal.aims", "wal.1.aims",
                                  "catalog.snap", "catalog.log"};
constexpr size_t kWal = 1;
constexpr int kMutationsPerMode = 300;
constexpr size_t kSessions = 3;

// The WAL's framing (storage/wal.cc): a 16-byte file header whose u64 at
// 8 is the txn high-water mark, under the CRC at 4, then records of
// crc u32 | type u8 | pad u8[3] | txn_id u64 | payload_size u32 | payload,
// the CRC covering everything after itself.
constexpr size_t kFileHeaderSize = 16;
constexpr size_t kHighWaterOffset = 8;
constexpr size_t kRecordHeaderSize = 20;
constexpr size_t kTypeOffset = 4;
constexpr size_t kTxnOffset = 8;
constexpr size_t kSizeOffset = 16;
constexpr uint8_t kCommit = 4;
constexpr uint8_t kSegment = 5;

std::string TestDir(const std::string& name) {
  std::string dir = ::testing::TempDir() + "aims_wal_mutation_" + name + "_" +
                    std::to_string(::getpid());
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
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

/// A durable store that never checkpoints on its own, so every ingest's
/// group stays in wal.aims until the next open replays it.
core::AimsConfig DurableAt(const std::string& dir) {
  core::AimsConfig config;
  config.durability.path = dir;
  config.durability.checkpoint_wal_bytes = 0;
  return config;
}

struct Record {
  size_t pos;
  uint32_t size;
  uint8_t type;
};

/// The records of a WAL file in scan order, up to the first one whose
/// claimed size runs past the end of the file.
std::vector<Record> Records(const std::vector<uint8_t>& wal) {
  std::vector<Record> records;
  size_t pos = kFileHeaderSize;
  while (pos + kRecordHeaderSize <= wal.size()) {
    uint32_t size = 0;
    std::memcpy(&size, wal.data() + pos + kSizeOffset, sizeof(size));
    if (size > wal.size() - pos - kRecordHeaderSize) break;
    records.push_back({pos, size, wal[pos + kTypeOffset]});
    pos += kRecordHeaderSize + size;
  }
  return records;
}

/// Recomputes the CRC of the record at \p pos, when the file holds it all.
void Seal(std::vector<uint8_t>* wal, size_t pos) {
  if (pos + kRecordHeaderSize > wal->size()) return;
  uint32_t size = 0;
  std::memcpy(&size, wal->data() + pos + kSizeOffset, sizeof(size));
  if (size > wal->size() - pos - kRecordHeaderSize) return;
  const uint32_t crc = Crc32(wal->data() + pos + kTypeOffset,
                             kRecordHeaderSize - kTypeOffset + size);
  std::memcpy(wal->data() + pos, &crc, sizeof(crc));
}

/// \p wal with every record's CRC recomputed, so the scan accepts whatever
/// a mutation left in the records.
std::vector<uint8_t> ResealAll(std::vector<uint8_t> wal) {
  for (const Record& record : Records(wal)) Seal(&wal, record.pos);
  return wal;
}

/// \p wal with \p record's payload replaced by \p payload under a valid
/// size and CRC.
std::vector<uint8_t> Reframe(const std::vector<uint8_t>& wal,
                             const Record& record,
                             const std::vector<uint8_t>& payload) {
  std::vector<uint8_t> out(wal.begin(),
                           wal.begin() + record.pos + kRecordHeaderSize);
  out.insert(out.end(), payload.begin(), payload.end());
  out.insert(out.end(),
             wal.begin() + record.pos + kRecordHeaderSize + record.size,
             wal.end());
  mutation::PatchU32(&out, record.pos + kSizeOffset,
                     static_cast<uint32_t>(payload.size()));
  Seal(&out, record.pos);
  return out;
}

class WalMutationTest : public ::testing::Test {
 protected:
  void SetUp() override {
    source_ = TestDir("source");
    work_ = TestDir("work");
    // What each session reads back when nothing is mutated.
    core::AimsSystem reference;
    for (uint32_t i = 0; i <= kSessions; ++i) {
      recordings_.push_back(MakeRecording(70 + 60 * i, i));
      const core::SessionId id =
          reference.IngestRecording("ref", recordings_.back()).ValueOrDie();
      expected_.emplace_back();
      for (size_t c = 0; c < 2; ++c) {
        expected_.back().push_back(reference.ReadChannel(id, c).ValueOrDie());
      }
    }
    // The store as a crash leaves it after three acknowledged ingests:
    // their groups are in wal.aims, nothing has been checkpointed.
    {
      core::AimsSystem system(DurableAt(source_));
      ASSERT_TRUE(system.init_status().ok());
      for (uint32_t i = 0; i < kSessions; ++i) {
        ASSERT_TRUE(
            system.IngestRecording("s" + std::to_string(i), recordings_[i])
                .ok());
      }
      for (const char* file : kFiles) {
        files_.push_back(mutation::ReadFile(source_ + "/" + file));
        present_bytes_ += files_.back().size();
      }
    }
    records_ = Records(files_[kWal]);
    size_t commits = 0, segments = 0;
    for (const Record& record : records_) {
      commits += record.type == kCommit ? 1 : 0;
      segments += record.type == kSegment ? 1 : 0;
    }
    ASSERT_EQ(commits, kSessions);
    ASSERT_EQ(segments, 2 * kSessions);
  }

  /// Reopens a copy of the store with wal.aims replaced by \p wal.
  std::unique_ptr<core::AimsSystem> OpenWith(const std::vector<uint8_t>& wal) {
    for (size_t f = 0; f < files_.size(); ++f) {
      mutation::WriteFile(work_ + "/" + kFiles[f], f == kWal ? wal : files_[f]);
    }
    mutation::ResetLargestAllocation();
    auto system = std::make_unique<core::AimsSystem>(DurableAt(work_));
    largest_allocation_ = mutation::LargestAllocation();
    return system;
  }

  /// Every session of an opened store reads back or returns a Status, and
  /// an ingest into it survives the next open bit for bit. Returns how
  /// many sessions equal the unmutated store's.
  size_t CheckServes(std::unique_ptr<core::AimsSystem> system,
                     const std::string& what) {
    size_t exact = 0;
    for (const core::SessionInfo& info : system->ListSessions()) {
      EXPECT_TRUE(system->GetSession(info.id).ok()) << what;
      bool same = info.id < kSessions &&
                  info.name == "s" + std::to_string(info.id) &&
                  info.num_channels == 2;
      for (size_t c = 0; c < info.num_channels && c < 4; ++c) {
        Result<std::vector<double>> channel = system->ReadChannel(info.id, c);
        if (channel.ok()) {
          EXPECT_EQ(channel->size(), info.num_frames) << what;
        }
        Result<std::vector<gorilla::Sample>> raw =
            system->ReadRawSamples(info.id, c);
        if (info.num_frames > 0) {
          (void)system->QueryRange(info.id, c, 0, info.num_frames - 1);
        }
        if (same) {
          same = channel.ok() && *channel == expected_[info.id][c] &&
                 raw.ok() && raw->size() == recordings_[info.id].num_frames();
        }
      }
      exact += same ? 1 : 0;
    }

    // A record whose CRC-valid txn id claims the last id leaves no id to
    // issue: the ingest is then refused with ResourceExhausted, never given
    // an id recovery skips.
    const Result<core::SessionId> probe =
        system->IngestRecording("probe", recordings_[kSessions]);
    if (!probe.ok()) {
      EXPECT_EQ(probe.status().code(), StatusCode::kResourceExhausted)
          << what << ": " << probe.status().ToString();
      ++exhausted_;
      return exact;
    }
    system.reset();
    core::AimsSystem reopened(DurableAt(work_));
    EXPECT_TRUE(reopened.init_status().ok())
        << what << ": " << reopened.init_status().ToString();
    if (!reopened.init_status().ok()) return exact;
    bool kept = false;
    for (const core::SessionInfo& info : reopened.ListSessions()) {
      if (info.name != "probe") continue;
      kept = info.num_channels == 2;
      for (size_t c = 0; kept && c < 2; ++c) {
        Result<std::vector<double>> channel = reopened.ReadChannel(info.id, c);
        Result<std::vector<gorilla::Sample>> raw =
            reopened.ReadRawSamples(info.id, c);
        kept = channel.ok() && *channel == expected_[kSessions][c] &&
               raw.ok() && raw->size() == recordings_[kSessions].num_frames();
      }
    }
    EXPECT_TRUE(kept) << what << ": the acknowledged probe ingest is lost";
    return exact;
  }

  std::string source_, work_;
  std::vector<streams::Recording> recordings_;  // the sessions, then a probe
  std::vector<std::vector<std::vector<double>>> expected_;
  std::vector<std::vector<uint8_t>> files_;
  std::vector<Record> records_;
  size_t present_bytes_ = 0;
  size_t largest_allocation_ = 0;
  size_t exhausted_ = 0;  ///< opened stores that refused the probe ingest
};

TEST_F(WalMutationTest, EveryMutationIsAStatusOrAServingStore) {
  ASSERT_EQ(CheckServes(OpenWith(files_[kWal]), "intact"), kSessions);
  // Nothing an open allocates may outgrow what the intact open needed or
  // twice the bytes of the store's files.
  const size_t allocation_bound =
      std::max(largest_allocation_, 2 * present_bytes_);

  constexpr uint64_t kMax = std::numeric_limits<uint64_t>::max();
  const std::vector<Record>& records = records_;
  const std::vector<mutation::Inflation> inflations = {
      [&records](std::vector<uint8_t>* m, std::mt19937_64* r) {
        const Record& record = records[(*r)() % records.size()];
        const uint32_t choices[] = {record.size + 1, record.size - 1, 0,
                                    std::numeric_limits<uint32_t>::max(),
                                    1u << 30, static_cast<uint32_t>((*r)())};
        mutation::PatchU32(m, record.pos + kSizeOffset, choices[(*r)() % 6]);
        Seal(m, record.pos);
      },
      [&records](std::vector<uint8_t>* m, std::mt19937_64* r) {
        const Record& record = records[(*r)() % records.size()];
        if (record.pos + kTypeOffset < m->size()) {
          (*m)[record.pos + kTypeOffset] = static_cast<uint8_t>(
              (*r)() % 2 == 0 ? 1 + (*r)() % 5 : (*r)());
        }
        Seal(m, record.pos);
      },
      [&records](std::vector<uint8_t>* m, std::mt19937_64* r) {
        const Record& record = records[(*r)() % records.size()];
        const uint64_t choices[] = {0, 1 + (*r)() % 4, kMax, kMax - 1, (*r)()};
        mutation::PatchU64(m, record.pos + kTxnOffset, choices[(*r)() % 5]);
        Seal(m, record.pos);
      },
      [](std::vector<uint8_t>* m, std::mt19937_64* r) {
        const uint64_t choices[] = {0, kMax, kMax - 1, (*r)()};
        mutation::PatchU64(m, kHighWaterOffset, choices[(*r)() % 4]);
      }};
  // Payload fields: a block put's block id, a catalog entry's name length,
  // a segment op's session and sample count.
  const std::vector<mutation::Inflation> payload_inflations = {
      [](std::vector<uint8_t>* m, std::mt19937_64* r) {
        const uint32_t choices[] = {std::numeric_limits<uint32_t>::max(),
                                    static_cast<uint32_t>((*r)() % 64),
                                    static_cast<uint32_t>((*r)())};
        mutation::PatchU32(m, 0, choices[(*r)() % 3]);
      },
      [](std::vector<uint8_t>* m, std::mt19937_64* r) {
        const uint64_t choices[] = {kMax, uint64_t{1} << 30, (*r)()};
        mutation::PatchU64(m, 0, choices[(*r)() % 3]);
      },
      [](std::vector<uint8_t>* m, std::mt19937_64* r) {
        mutation::PatchU64(m, 1, (*r)() % 2 == 0 ? (*r)() % 5 : (*r)());
      },
      [](std::vector<uint8_t>* m, std::mt19937_64* r) {
        mutation::PatchU64(m, 33, (*r)() % 2 == 0 ? 1 + (*r)() % 600 : kMax);
      }};

  std::mt19937_64 rng(20261020);
  const std::vector<uint8_t>& wal = files_[kWal];
  size_t refused = 0, opened = 0, exact_sessions = 0;
  for (int mode = 0; mode < 3; ++mode) {
    for (int i = 0; i < kMutationsPerMode; ++i) {
      std::vector<uint8_t> bytes;
      switch (mode) {
        case 0:  // raw
          bytes = mutation::Mutate(wal, &rng, inflations);
          break;
        case 1:  // every record re-sealed after the mutation
          bytes = ResealAll(mutation::Mutate(wal, &rng, inflations));
          break;
        default: {  // one record's payload, validly re-framed
          const Record& record = records_[rng() % records_.size()];
          const std::vector<uint8_t> payload(
              wal.begin() + record.pos + kRecordHeaderSize,
              wal.begin() + record.pos + kRecordHeaderSize + record.size);
          bytes = Reframe(wal, record,
                          payload.empty() ? payload
                                          : mutation::Mutate(payload, &rng,
                                                             payload_inflations));
          break;
        }
      }
      const std::string what =
          "mode " + std::to_string(mode) + " mutation " + std::to_string(i);
      std::unique_ptr<core::AimsSystem> system = OpenWith(bytes);
      ASSERT_LE(largest_allocation_, allocation_bound) << what;
      if (!system->init_status().ok()) {
        ++refused;
        continue;
      }
      ++opened;
      exact_sessions += CheckServes(std::move(system), what);
      if (HasFailure()) return;
    }
  }
  // The budget must reach both outcomes, or the mutations are not
  // reaching the replay they are meant to test.
  EXPECT_GT(refused, 0u);
  EXPECT_GT(opened, exhausted_);
  EXPECT_GT(exact_sessions, 0u);
}

TEST_F(WalMutationTest, DamagedHeaderMarkKeepsIngesting) {
  // Both log files' high-water marks damaged to the last ids: the marks
  // fail their CRC and are ignored, so the next ids come from the records
  // and the catalog, and a new ingest survives the next open.
  constexpr uint64_t kMax = std::numeric_limits<uint64_t>::max();
  ASSERT_GE(files_[kWal + 1].size(), kFileHeaderSize);
  const std::vector<uint8_t> rotated = files_[kWal + 1];
  for (uint64_t mark : {kMax, kMax - 1}) {
    SCOPED_TRACE("mark " + std::to_string(mark));
    std::vector<uint8_t> wal = files_[kWal];
    mutation::PatchU64(&wal, kHighWaterOffset, mark);
    files_[kWal + 1] = rotated;
    mutation::PatchU64(&files_[kWal + 1], kHighWaterOffset, mark);
    std::unique_ptr<core::AimsSystem> system = OpenWith(wal);
    ASSERT_TRUE(system->init_status().ok())
        << system->init_status().ToString();
    EXPECT_EQ(CheckServes(std::move(system), "damaged marks"), kSessions);
    EXPECT_EQ(exhausted_, 0u);
  }
}

TEST_F(WalMutationTest, LostLogFilesKeepNewIdsAboveTheCatalogMark) {
  // The open replays the three groups into the catalog base, which then
  // marks txn 3 applied. With both log files gone behind it, the ids the
  // log issues next must still be above 3, or the next recovery skips the
  // new group as applied and loses an acknowledged ingest.
  ASSERT_TRUE(OpenWith(files_[kWal])->init_status().ok());
  for (const char* file : {"wal.aims", "wal.1.aims"}) {
    ASSERT_TRUE(std::filesystem::remove(work_ + "/" + file));
  }
  auto system = std::make_unique<core::AimsSystem>(DurableAt(work_));
  ASSERT_TRUE(system->init_status().ok());
  EXPECT_EQ(CheckServes(std::move(system), "log files lost"), kSessions);
  EXPECT_EQ(exhausted_, 0u);
}

}  // namespace
}  // namespace aims
