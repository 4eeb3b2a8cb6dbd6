// Seeded mutation test of the catalog's persisted files: a store whose
// catalog.snap base holds two sessions and whose catalog.log holds the
// delta records of two more is reopened with one file mutated by the
// shared harness — raw (so the CRCs mostly catch it) and re-sealed with
// valid CRCs (so the entry, item and segment-op decoders see the garbage).
// Every open must return a Status or a catalog whose every session reads
// back or returns a Status; nothing may crash, trip ASan/UBSan, or make an
// allocation larger than the bytes present. A delta record cut short at
// the end of the log is discarded.

#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <limits>
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
constexpr int kMutationsPerMode = 300;

std::string TestDir(const std::string& name) {
  std::string dir = ::testing::TempDir() + "aims_catalog_mutation_" + name +
                    "_" + std::to_string(::getpid());
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
    frame.values = {std::sin(0.04 * static_cast<double>(f) + seed),
                    std::cos(0.09 * static_cast<double>(f) - seed)};
    rec.Append(std::move(frame));
  }
  return rec;
}

core::AimsConfig DurableAt(const std::string& dir) {
  core::AimsConfig config;
  config.durability.path = dir;
  config.durability.checkpoint_wal_bytes = 1;
  return config;
}

/// The catalog.log records' (offset, size) frames, in order.
std::vector<std::pair<size_t, size_t>> Frames(const std::vector<uint8_t>& log) {
  std::vector<std::pair<size_t, size_t>> frames;
  size_t pos = 8;
  while (pos + 8 <= log.size()) {
    uint32_t size = 0;
    std::memcpy(&size, log.data() + pos, sizeof(size));
    frames.emplace_back(pos, size);
    pos += 8 + size;
  }
  return frames;
}

/// \p log with record \p index's payload replaced by \p payload, framed
/// with a valid size and CRC.
std::vector<uint8_t> Reframe(const std::vector<uint8_t>& log, size_t index,
                             const std::vector<uint8_t>& payload) {
  const auto [pos, size] = Frames(log)[index];
  std::vector<uint8_t> out(log.begin(), log.begin() + pos);
  const uint32_t new_size = static_cast<uint32_t>(payload.size());
  const uint32_t crc = Crc32(payload.data(), payload.size());
  out.insert(out.end(), reinterpret_cast<const uint8_t*>(&new_size),
             reinterpret_cast<const uint8_t*>(&new_size) + 4);
  out.insert(out.end(), reinterpret_cast<const uint8_t*>(&crc),
             reinterpret_cast<const uint8_t*>(&crc) + 4);
  out.insert(out.end(), payload.begin(), payload.end());
  out.insert(out.end(), log.begin() + pos + 8 + size, log.end());
  return out;
}

/// \p body with its trailing CRC recomputed, as a base snapshot ends.
std::vector<uint8_t> Reseal(std::vector<uint8_t> body) {
  const uint32_t crc = Crc32(body.data(), body.size());
  body.insert(body.end(), reinterpret_cast<const uint8_t*>(&crc),
              reinterpret_cast<const uint8_t*>(&crc) + 4);
  return body;
}

class CatalogMutationTest : public ::testing::Test {
 protected:
  void SetUp() override {
    source_ = TestDir("source");
    // What each session reads back when nothing is mutated.
    core::AimsSystem reference;
    for (uint32_t i = 0; i < 4; ++i) {
      const streams::Recording recording = MakeRecording(90 + 50 * i, i);
      recordings_.push_back(recording);
      const core::SessionId id =
          reference.IngestRecording("ref", recording).ValueOrDie();
      expected_.emplace_back();
      for (size_t c = 0; c < 2; ++c) {
        expected_.back().push_back(reference.ReadChannel(id, c).ValueOrDie());
      }
    }
    // Two sessions reach the base at the second open; two more stay in
    // catalog.log, one delta record each.
    for (uint32_t open = 0; open < 2; ++open) {
      core::AimsSystem system(DurableAt(source_));
      ASSERT_TRUE(system.init_status().ok());
      for (uint32_t i = 2 * open; i < 2 * open + 2; ++i) {
        ASSERT_TRUE(
            system.IngestRecording("s" + std::to_string(i), recordings_[i])
                .ok());
      }
    }
    for (const char* file : kFiles) {
      files_.push_back(mutation::ReadFile(source_ + "/" + file));
      present_bytes_ += files_.back().size();
    }
    ASSERT_EQ(Frames(files_[4]).size(), 2u);
    work_ = TestDir("work");
  }

  /// Reopens a copy of the store with \p file replaced by \p bytes.
  std::unique_ptr<core::AimsSystem> OpenWith(size_t file,
                                             const std::vector<uint8_t>& bytes) {
    for (size_t f = 0; f < files_.size(); ++f) {
      mutation::WriteFile(work_ + "/" + kFiles[f],
                          f == file ? bytes : files_[f]);
    }
    mutation::ResetLargestAllocation();
    auto system = std::make_unique<core::AimsSystem>(DurableAt(work_));
    largest_allocation_ = mutation::LargestAllocation();
    return system;
  }

  /// Every session of an opened catalog reads back or returns a Status.
  /// Returns how many sessions equal the unmutated store's, bit for bit.
  size_t CheckConsistent(const core::AimsSystem& system) {
    size_t exact = 0;
    for (const core::SessionInfo& info : system.ListSessions()) {
      EXPECT_TRUE(system.GetSession(info.id).ok());
      bool same = info.id < recordings_.size() &&
                  info.name == "s" + std::to_string(info.id) &&
                  info.num_channels == 2;
      for (size_t c = 0; c < info.num_channels && c < 4; ++c) {
        Result<std::vector<double>> channel = system.ReadChannel(info.id, c);
        if (channel.ok()) {
          EXPECT_EQ(channel->size(), info.num_frames);
        }
        (void)system.ReadRawSamples(info.id, c);
        if (info.num_frames > 0) {
          (void)system.QueryRange(info.id, c, 0, info.num_frames - 1);
        }
        if (same) {
          Result<std::vector<gorilla::Sample>> raw =
              system.ReadRawSamples(info.id, c);
          same = channel.ok() && *channel == expected_[info.id][c] &&
                 raw.ok() &&
                 raw->size() == recordings_[info.id].num_frames() &&
                 raw->back().value == recordings_[info.id].frames.back()
                                          .values[c];
        }
      }
      exact += same ? 1 : 0;
    }
    return exact;
  }

  std::string source_, work_;
  std::vector<streams::Recording> recordings_;
  std::vector<std::vector<std::vector<double>>> expected_;
  std::vector<std::vector<uint8_t>> files_;
  size_t present_bytes_ = 0;
  size_t largest_allocation_ = 0;
};

TEST_F(CatalogMutationTest, TornLastDeltaRecordIsDiscarded) {
  const std::vector<uint8_t>& log = files_[4];
  const auto frames = Frames(log);
  for (size_t cut = frames[1].first + 1; cut < log.size(); cut += 7) {
    std::unique_ptr<core::AimsSystem> system =
        OpenWith(4, std::vector<uint8_t>(log.begin(), log.begin() + cut));
    ASSERT_TRUE(system->init_status().ok())
        << "cut at " << cut << ": " << system->init_status().ToString();
    ASSERT_EQ(system->ListSessions().size(), 3u) << "cut at " << cut;
    EXPECT_EQ(CheckConsistent(*system), 3u);
  }
}

TEST_F(CatalogMutationTest, EveryMutationIsAStatusOrAConsistentCatalog) {
  std::unique_ptr<core::AimsSystem> intact = OpenWith(4, files_[4]);
  ASSERT_TRUE(intact->init_status().ok());
  ASSERT_EQ(CheckConsistent(*intact), 4u);
  intact.reset();
  // Nothing an open allocates may outgrow what the intact open needed or
  // twice the bytes of the store's files.
  const size_t allocation_bound =
      std::max(largest_allocation_, 2 * present_bytes_);

  std::mt19937_64 rng(20261018);
  const std::vector<uint8_t>& base = files_[3];
  const std::vector<uint8_t> base_body(base.begin(), base.end() - 4);
  const std::vector<uint8_t>& log = files_[4];
  const auto frames = Frames(log);
  // Base: session count and first entry length. Log frames: the size
  // field. Log payloads: the covered txn and the first item's size.
  const std::vector<mutation::Inflation> base_inflations = {
      [](std::vector<uint8_t>* m, std::mt19937_64* r) {
        mutation::PatchU64(m, 16, std::numeric_limits<uint64_t>::max() -
                                      (*r)() % 4);
      },
      [](std::vector<uint8_t>* m, std::mt19937_64* r) {
        const uint64_t choices[] = {uint64_t{1} << 30, (*r)(), 1u << 20};
        mutation::PatchU64(m, 24, choices[(*r)() % 3]);
      }};
  const std::vector<mutation::Inflation> frame_inflations = {
      [&frames](std::vector<uint8_t>* m, std::mt19937_64* r) {
        const auto [pos, size] = frames[(*r)() % frames.size()];
        const uint32_t choices[] = {static_cast<uint32_t>(size + 1),
                                    std::numeric_limits<uint32_t>::max(),
                                    static_cast<uint32_t>((*r)())};
        mutation::PatchU32(m, pos, choices[(*r)() % 3]);
      }};
  const std::vector<mutation::Inflation> payload_inflations = {
      [](std::vector<uint8_t>* m, std::mt19937_64* r) {
        mutation::PatchU64(m, 0, (*r)() % 2 == 0 ? 0 : (*r)());
      },
      [](std::vector<uint8_t>* m, std::mt19937_64* r) {
        const uint32_t choices[] = {std::numeric_limits<uint32_t>::max(),
                                    1u << 30, static_cast<uint32_t>((*r)())};
        mutation::PatchU32(m, 9, choices[(*r)() % 3]);
      }};

  size_t refused = 0, opened = 0, exact_sessions = 0;
  for (int mode = 0; mode < 4; ++mode) {
    for (int i = 0; i < kMutationsPerMode; ++i) {
      size_t file = 3;
      std::vector<uint8_t> bytes;
      switch (mode) {
        case 0:  // base, raw
          bytes = mutation::Mutate(base, &rng, base_inflations);
          break;
        case 1:  // base, CRC re-sealed
          bytes = Reseal(mutation::Mutate(base_body, &rng, base_inflations));
          break;
        case 2:  // log, raw
          file = 4;
          bytes = mutation::Mutate(log, &rng, frame_inflations);
          break;
        default: {  // one log record's payload, validly re-framed
          file = 4;
          const size_t index = rng() % frames.size();
          const auto [pos, size] = frames[index];
          const std::vector<uint8_t> payload(log.begin() + pos + 8,
                                             log.begin() + pos + 8 + size);
          bytes = Reframe(log, index,
                          mutation::Mutate(payload, &rng, payload_inflations));
          break;
        }
      }
      std::unique_ptr<core::AimsSystem> system = OpenWith(file, bytes);
      ASSERT_LE(largest_allocation_, allocation_bound)
          << "mode " << mode << " mutation " << i;
      if (!system->init_status().ok()) {
        ++refused;
        continue;
      }
      ++opened;
      exact_sessions += CheckConsistent(*system);
    }
  }
  // The budget must reach both outcomes, or the mutations are not
  // reaching the decoders they are meant to test.
  EXPECT_GT(refused, 0u);
  EXPECT_GT(opened, 0u);
  EXPECT_GT(exact_sessions, 0u);
}

}  // namespace
}  // namespace aims
