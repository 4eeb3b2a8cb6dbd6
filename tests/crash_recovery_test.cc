// Kill-the-process crash tests: a child (crash_ingest_helper) ingests into
// a durable store and is SIGKILLed at armed points inside the commit path
// — mid-payload, just before the commit record, and after the commit is
// durable but before pages are written back. The parent reopens the store
// and asserts the two recovery invariants:
//
//   * every ACKNOWLEDGED ingest is fully queryable (bit-exact), and
//   * no half-applied ingest is visible — an uncommitted group vanishes,
//     a committed-but-unapplied group is replayed in full.
//
// The catalog case kills a ShardedCatalog ingest after its shard commit:
// that commit carries the route, so the ingest recovers under its client.
//
// The checkpoint cases kill an ingest inside the checkpoint it began,
// after its commit is durable: after the WAL rotation, after the page
// sync, mid delta append (a torn catalog.log record), and after the delta
// is durable but before the retired WAL file is dropped; and an open's
// compaction between the base rename and the catalog.log reset.

#include <sys/wait.h>
#include <unistd.h>

#include <csignal>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/aims.h"
#include "crash_test_common.h"
#include "server/sharded_catalog.h"

namespace aims {
namespace {

std::string TestDir(const std::string& name) {
  std::string dir = ::testing::TempDir() + "aims_crash_" + name + "_" +
                    std::to_string(::getpid());
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

/// Runs the helper; returns the raw wait status from std::system.
int RunHelper(const std::string& dir, const std::string& mode, int clean) {
  std::string cmd = std::string(AIMS_CRASH_HELPER_PATH) + " " + dir + " " +
                    mode + " " + std::to_string(clean);
  return std::system(cmd.c_str());
}

std::vector<std::string> ReadAcks(const std::string& dir) {
  std::vector<std::string> acks;
  std::ifstream in(dir + "/acks.txt");
  std::string line;
  while (std::getline(in, line)) {
    if (!line.empty()) acks.push_back(line);
  }
  return acks;
}

/// Asserts the recovered store holds exactly sessions 0..count-1, each
/// bit-exact against an in-memory reference ingest of the same seed.
void VerifyRecovered(const std::string& dir, size_t expected_sessions,
                     const std::vector<std::string>& acks) {
  core::AimsConfig config;
  config.durability.path = dir;
  core::AimsSystem recovered(config);
  ASSERT_TRUE(recovered.init_status().ok())
      << recovered.init_status().ToString();

  auto sessions = recovered.ListSessions();
  ASSERT_EQ(sessions.size(), expected_sessions);
  ASSERT_LE(acks.size(), sessions.size());

  // Reference: the same deterministic recordings through the in-memory
  // backend — same transform code, so recovered channels must match
  // exactly (recovered payloads are byte-identical to what was staged).
  core::AimsSystem reference;
  for (size_t seed = 0; seed < sessions.size(); ++seed) {
    EXPECT_EQ(sessions[seed].name, crashtest::SessionName(seed));
    auto ref_id = reference.IngestRecording(
        crashtest::SessionName(seed),
        crashtest::MakeRecording(static_cast<uint32_t>(seed)));
    ASSERT_TRUE(ref_id.ok());
    ASSERT_EQ(sessions[seed].num_channels, 2u);
    for (size_t c = 0; c < sessions[seed].num_channels; ++c) {
      auto got = recovered.ReadChannel(sessions[seed].id, c);
      ASSERT_TRUE(got.ok()) << "session " << seed << " channel " << c << ": "
                            << got.status().ToString();
      auto want = reference.ReadChannel(ref_id.ValueOrDie(), c);
      ASSERT_TRUE(want.ok());
      EXPECT_EQ(got.ValueOrDie(), want.ValueOrDie())
          << "session " << seed << " channel " << c
          << " recovered with different data";
    }
  }
  // Every acknowledged ingest is among the recovered sessions. (Sessions
  // may outnumber acks: a commit that became durable right before the kill
  // is recovered without ever having been acknowledged — that is allowed;
  // an ack without its session is the durability violation.)
  for (const std::string& ack : acks) {
    bool found = false;
    for (const auto& session : sessions) found |= (session.name == ack);
    EXPECT_TRUE(found) << "acknowledged ingest " << ack
                       << " missing after recovery";
  }
}

void ExpectKilledBySigkill(int status) {
  ASSERT_NE(status, -1);
  // std::system interposes /bin/sh: a SIGKILLed child surfaces either as
  // a signal death or as the shell's 128+SIGKILL exit code.
  if (WIFSIGNALED(status)) {
    EXPECT_EQ(WTERMSIG(status), SIGKILL);
    return;
  }
  ASSERT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 128 + SIGKILL)
      << "helper exited with code " << WEXITSTATUS(status)
      << " instead of dying by SIGKILL";
}

TEST(CrashRecovery, CleanRunRecoversEverything) {
  std::string dir = TestDir("clean");
  int status = RunHelper(dir, "clean", 3);
  ASSERT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0)
      << "helper status " << status;
  std::vector<std::string> acks = ReadAcks(dir);
  ASSERT_EQ(acks.size(), 3u);
  VerifyRecovered(dir, 3u, acks);
}

TEST(CrashRecovery, KilledMidPayloadLosesOnlyTheUnackedIngest) {
  std::string dir = TestDir("payload");
  int status = RunHelper(dir, "payload", 2);
  ExpectKilledBySigkill(status);
  std::vector<std::string> acks = ReadAcks(dir);
  ASSERT_EQ(acks.size(), 2u);
  // The FIRST reopen measurably discards the uncommitted tail. (It must be
  // the first: recovery ends by checkpointing and truncating the log, so a
  // second open sees a clean WAL with nothing left to discard.)
  {
    core::AimsConfig config;
    config.durability.path = dir;
    core::AimsSystem recovered(config);
    ASSERT_TRUE(recovered.init_status().ok());
    EXPECT_GT(recovered.WalStats().discarded_bytes, 0u);
  }
  // The group died before its commit record: it must vanish entirely.
  VerifyRecovered(dir, 2u, acks);
}

TEST(CrashRecovery, KilledBeforeCommitRecordLosesOnlyTheUnackedIngest) {
  std::string dir = TestDir("precommit");
  int status = RunHelper(dir, "precommit", 2);
  ExpectKilledBySigkill(status);
  std::vector<std::string> acks = ReadAcks(dir);
  ASSERT_EQ(acks.size(), 2u);
  VerifyRecovered(dir, 2u, acks);
}

TEST(CrashRecovery, KilledAfterCommitDurableReplaysTheFullIngest) {
  std::string dir = TestDir("postcommit");
  int status = RunHelper(dir, "postcommit", 2);
  ExpectKilledBySigkill(status);
  std::vector<std::string> acks = ReadAcks(dir);
  ASSERT_EQ(acks.size(), 2u);
  // The third ingest committed but was never acknowledged or written back:
  // recovery must surface it COMPLETE (atomicity has no middle ground).
  VerifyRecovered(dir, 3u, acks);
}

TEST(CrashRecovery, SurvivesRepeatedKillsOnOneStore) {
  // The kill-loop: the same store crashes again and again, recovering each
  // time with all prior committed work intact.
  std::string dir = TestDir("killloop");
  size_t acked_total = 0;
  const char* modes[] = {"payload", "precommit", "postcommit", "payload"};
  size_t expected_sessions = 0;
  for (const char* mode : modes) {
    int status = RunHelper(dir, mode, 1);
    ExpectKilledBySigkill(status);
    acked_total += 1;
    expected_sessions += 1;  // The acked ingest.
    if (std::string(mode) == "postcommit") {
      expected_sessions += 1;  // The committed-but-unacked ingest.
    }
    ASSERT_EQ(ReadAcks(dir).size(), acked_total);
  }
  VerifyRecovered(dir, expected_sessions, ReadAcks(dir));
}

/// The checkpoint modes' kill is after the ingest's commit is durable, so
/// the unacknowledged ingest recovers complete beside the acked ones.
void ExpectCheckpointKillRecovers(const std::string& mode) {
  std::string dir = TestDir(mode);
  ExpectKilledBySigkill(RunHelper(dir, mode, 2));
  std::vector<std::string> acks = ReadAcks(dir);
  ASSERT_EQ(acks.size(), 2u);
  VerifyRecovered(dir, 3u, acks);
}

TEST(CrashRecovery, KilledAfterWalRotationReplaysBothWalFiles) {
  ExpectCheckpointKillRecovers("rotated");
}

TEST(CrashRecovery, KilledAfterPageSyncReplaysTheRetiredWal) {
  ExpectCheckpointKillRecovers("pagesync");
}

TEST(CrashRecovery, KilledMidDeltaAppendDiscardsTheTornRecord) {
  std::string dir = TestDir("torndelta");
  ExpectKilledBySigkill(RunHelper(dir, "torndelta", 2));
  // The last catalog.log record is cut short: its frame claims more bytes
  // than the file holds.
  std::ifstream in(dir + "/catalog.log", std::ios::binary);
  std::vector<char> log((std::istreambuf_iterator<char>(in)),
                        std::istreambuf_iterator<char>());
  size_t pos = 8;
  bool torn = false;
  while (pos + 8 <= log.size()) {
    uint32_t size = 0;
    std::memcpy(&size, log.data() + pos, sizeof(size));
    if (pos + 8 + size > log.size()) {
      torn = true;
      break;
    }
    pos += 8 + size;
  }
  EXPECT_TRUE(torn || pos != log.size()) << "no torn record in catalog.log";
  std::vector<std::string> acks = ReadAcks(dir);
  ASSERT_EQ(acks.size(), 2u);
  VerifyRecovered(dir, 3u, acks);
}

TEST(CrashRecovery, KilledAfterDeltaDurableSkipsTheCoveredWalGroups) {
  ExpectCheckpointKillRecovers("deltadurable");
}

TEST(CrashRecovery, KilledMidCompactionSkipsTheCoveredDeltas) {
  std::string dir = TestDir("compact");
  ExpectKilledBySigkill(RunHelper(dir, "compact", 3));
  // The new base is in place and the log still holds the deltas it covers.
  EXPECT_GT(std::filesystem::file_size(dir + "/catalog.log"), 8u);
  std::vector<std::string> acks = ReadAcks(dir);
  ASSERT_EQ(acks.size(), 3u);
  VerifyRecovered(dir, 3u, acks);
}

TEST(CrashRecovery, CatalogIngestKilledAfterShardCommitKeepsItsClient) {
  std::string dir = TestDir("catalog");
  ExpectKilledBySigkill(RunHelper(dir, "ccrash", 2));
  // The killed ingest's shard commit was durable, so it recovers with the
  // acknowledged ones: routed once each, all under the ingesting tenant.
  {
    core::AimsConfig config;
    config.durability.path = dir;
    server::ShardedCatalog recovered(2, config);
    ASSERT_TRUE(recovered.init_status().ok())
        << recovered.init_status().ToString();
    auto sessions = recovered.ListSessions();
    ASSERT_EQ(sessions.size(), 3u);
    for (size_t i = 0; i < sessions.size(); ++i) {
      EXPECT_EQ(sessions[i].info.name, crashtest::SessionName(i));
      EXPECT_EQ(sessions[i].client, 42u) << sessions[i].info.name;
      EXPECT_TRUE(recovered.ReadChannel(sessions[i].id, 0).ok());
    }
  }
  // The helper's own verify (the CI loop's check) agrees.
  int status = RunHelper(dir, "cverify", 0);
  EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0)
      << "cverify status " << status;
}

}  // namespace
}  // namespace aims
