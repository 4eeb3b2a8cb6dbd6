// Crash-injection child for the recovery tests and the CI crash-smoke
// loop. Opens (or recovers) the durable store at <dir>, performs <clean>
// fully-acknowledged ingests — appending each session's name to
// <dir>/acks.txt only AFTER IngestRecording returned OK — then, in the
// crash modes, arms a WAL crash hook and starts one more ingest, inside
// which the process raises SIGKILL. Exit codes other than death-by-signal
// mean the harness itself failed:
//
//   usage: crash_ingest_helper <dir> <mode> <count>
//   modes: clean      ingest <count> and ack, exit 0 (no crash)
//          payload    die mid-group, after a payload record append
//          precommit  die just before the commit record is appended
//          postcommit die after the commit is durable, before pages are
//                     written back or the caller is acknowledged
//          segment    die mid-group, after the first sealed raw-sample
//                     segment record append (the tslife leg of the same
//                     commit group)
//
// Checkpoint modes: every ingest checkpoints (checkpoint_wal_bytes = 1),
// and the last one dies inside its checkpoint, after its commit is
// durable but before it is acknowledged:
//          rotated    right after the WAL rotated (under the lock)
//          pagesync   after the page file is synced
//          torndelta  mid delta append: half the record is in catalog.log
//          deltadurable  after the delta is synced, before the retired WAL
//                     file is dropped
//          compact    no crashed ingest: after the <count> acked ones the
//                     store is reopened, and the open's compaction dies
//                     between the base rename and the catalog.log reset
//          verify     no ingest: recover, check every acked session is
//                     present AND its raw segments decode bit-exact
//                     against the regenerated recording, print recovery
//                     stats as one JSON line (exit 6 if an acknowledged
//                     ingest is missing or its raw samples drifted)
//
// Catalog-ingest modes (2-shard durable ShardedCatalog on <dir>, where an
// ingest's route rides the shard's commit group):
//          ccrash     ingest <count> acked sessions for one tenant, each
//                     checkpointing, then one more with the
//                     after-commit-durable hook armed: the process dies
//                     once the shard commit is durable, before the ingest
//                     is acknowledged
//          cverify    recover, check every acked session AND every killed
//                     ingest is present exactly once under that tenant
//                     and that no session belongs to another client (exit
//                     6 on a missing or unreadable session, 7 on a double
//                     owner, 8 on a session under another client), print
//                     stats as one JSON line
//
// Migration modes (2-shard durable ShardedCatalog on the same <dir>,
// exercising the routing journal's exactly-one-owner recovery):
//          mcrash     ingest one more acked session for the migrating
//                     tenant, arm the payload-append crash hook with
//                     <count>, then start a live tenant migration; the
//                     process SIGKILLs itself mid-protocol (inside the
//                     copy's appends or the route-move journal append,
//                     depending on <count>)
//          mverify    recover, check every acked session is readable and
//                     owned by EXACTLY ONE route (exit 6 on a lost ack,
//                     exit 7 on a double owner), print stats as one JSON
//                     line
//
// Re-running on the same directory continues: the ingest seed is the
// recovered session count, so every session ever committed is
// SessionName(0..n-1) in order — which is exactly what the parent checks.

#include <chrono>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/aims.h"
#include "crash_test_common.h"
#include "obs/flight_recorder.h"
#include "server/data_migrator.h"
#include "server/sharded_catalog.h"
#include "storage/wal.h"

namespace {

// Crash modes run the black-box flight recorder on a tight persist
// cadence, then block until its first periodic write has landed: the
// SIGKILL below gives the process no chance to flush anything at death,
// so the on-disk bundle the smoke script asserts on must already be
// there. Verify modes deliberately construct NO recorder — reopening one
// would rotate the very bundle under inspection aside.
aims::obs::FlightRecorder* StartCrashRecorder(const std::string& dir,
                                              const std::string& mode) {
  aims::obs::FlightRecorderConfig config;
  config.bundle_path = dir + "/flightrecord.json";
  config.persist_interval_ms = 2.0;
  // Leaked on purpose: the process dies by SIGKILL, never by destructor.
  auto* recorder = new aims::obs::FlightRecorder(config);
  recorder->RecordEvent("crash round armed: mode=" + mode);
  recorder->Start();
  while (recorder->persists() == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return recorder;
}

// The tenant the catalog modes ingest for and the migration modes move
// back and forth. Any fixed id works: source/target are derived from the
// router, never assumed.
constexpr aims::server::ClientId kTenant = 42;

// Migration-mode crash round: add one acked session so there is always
// something to move, arm the global payload-append hook, migrate. The
// hook fires inside the migration protocol and the process never returns
// from MigrateTenant. The first session's copy is one WAL group: counts
// 1-4 land on its block puts, 5 on its catalog entry, 6-7 on its segment
// puts, and 8 on its route-move record.
int RunMigrationCrash(const std::string& dir, int payload_appends) {
  aims::core::AimsConfig config;
  config.durability.path = dir;
  aims::server::ShardedCatalog catalog(2, config);
  if (!catalog.init_status().ok()) {
    std::cerr << "open failed: " << catalog.init_status().ToString() << "\n";
    return 3;
  }
  std::ofstream acks(dir + "/macks.txt", std::ios::app);
  if (!acks) {
    std::cerr << "cannot open acks file\n";
    return 3;
  }
  const uint32_t seed = static_cast<uint32_t>(catalog.total_sessions());
  auto id = catalog.Ingest(kTenant, aims::crashtest::SessionName(seed),
                           aims::crashtest::MakeRecording(seed));
  if (!id.ok()) {
    std::cerr << "ingest failed: " << id.status().ToString() << "\n";
    return 4;
  }
  acks << aims::crashtest::SessionName(seed) << "\n" << std::flush;

  StartCrashRecorder(dir, "mcrash");

  // A crashed round never commits, so no pin survives recovery and the
  // ring places the tenant on its home shard; migrate to the other one.
  const size_t source = catalog.router().ShardForClient(kTenant);
  const size_t target = 1 - source;
  aims::storage::durable::testing::SetCrashAfterPayloadAppends(payload_appends);
  aims::server::DataMigrator migrator(&catalog);
  aims::Status status = migrator.MigrateTenant(kTenant, target);
  std::cerr << "crash hook did not fire (migration "
            << (status.ok() ? "succeeded" : status.ToString()) << ")\n";
  return 5;
}

// Catalog-ingest crash round: <clean> acknowledged ingests, then one whose
// name is written to ckilled.txt before the after-commit-durable hook
// kills the process inside it.
int RunCatalogCrash(const std::string& dir, int clean) {
  aims::core::AimsConfig config;
  config.durability.path = dir;
  // Every acked ingest checkpoints, so its owner reaches the next open
  // through a catalog.log delta record rather than a WAL group.
  config.durability.checkpoint_wal_bytes = 1;
  aims::server::ShardedCatalog catalog(2, config);
  if (!catalog.init_status().ok()) {
    std::cerr << "open failed: " << catalog.init_status().ToString() << "\n";
    return 3;
  }
  std::ofstream acks(dir + "/cacks.txt", std::ios::app);
  std::ofstream killed(dir + "/ckilled.txt", std::ios::app);
  if (!acks || !killed) {
    std::cerr << "cannot open acks files\n";
    return 3;
  }
  uint32_t seed = static_cast<uint32_t>(catalog.total_sessions());
  for (int i = 0; i < clean; ++i, ++seed) {
    auto id = catalog.Ingest(kTenant, aims::crashtest::SessionName(seed),
                             aims::crashtest::MakeRecording(seed));
    if (!id.ok()) {
      std::cerr << "ingest failed: " << id.status().ToString() << "\n";
      return 4;
    }
    acks << aims::crashtest::SessionName(seed) << "\n" << std::flush;
  }
  StartCrashRecorder(dir, "ccrash");
  killed << aims::crashtest::SessionName(seed) << "\n" << std::flush;
  aims::storage::durable::testing::SetCrashAfterCommitDurable(true);
  auto id = catalog.Ingest(kTenant, aims::crashtest::SessionName(seed),
                           aims::crashtest::MakeRecording(seed));
  std::cerr << "crash hook did not fire (ingest "
            << (id.ok() ? "succeeded" : id.status().ToString()) << ")\n";
  return 5;
}

// Non-empty lines of the file at `path`.
std::vector<std::string> ReadLines(const std::string& path) {
  std::vector<std::string> lines;
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (!line.empty()) lines.push_back(line);
  }
  return lines;
}

// Catalog-ingest verify: every acknowledged and every killed ingest is
// routed exactly once, under the tenant that ingested it.
int RunCatalogVerify(const std::string& dir) {
  aims::core::AimsConfig config;
  config.durability.path = dir;
  aims::server::ShardedCatalog catalog(2, config);
  if (!catalog.init_status().ok()) {
    std::cerr << "open failed: " << catalog.init_status().ToString() << "\n";
    return 3;
  }
  std::map<std::string, size_t> owners;
  size_t other_client = 0, unreadable = 0;
  for (const auto& entry : catalog.ListSessions()) {
    if (entry.client != kTenant) {
      ++other_client;
      std::cerr << "session " << entry.info.name << " recovered under client "
                << entry.client << "\n";
      continue;
    }
    owners[entry.info.name] += 1;
    auto channel = catalog.ReadChannel(entry.id, 0);
    if (!channel.ok() || channel->size() != entry.info.num_frames) {
      ++unreadable;
      std::cerr << "session " << entry.info.name << " unreadable\n";
    }
  }
  const std::vector<std::string> acked = ReadLines(dir + "/cacks.txt");
  const std::vector<std::string> killed = ReadLines(dir + "/ckilled.txt");
  size_t missing = 0, doubled = 0;
  for (const std::vector<std::string>* names : {&acked, &killed}) {
    for (const std::string& name : *names) {
      auto it = owners.find(name);
      if (it == owners.end()) {
        ++missing;
        std::cerr << "ingest " << name << " not routed to its tenant\n";
      } else if (it->second != 1) {
        ++doubled;
        std::cerr << "ingest " << name << " has " << it->second
                  << " owners\n";
      }
    }
  }
  std::cout << "{\"sessions\": " << catalog.total_sessions()
            << ", \"acked\": " << acked.size()
            << ", \"killed\": " << killed.size()
            << ", \"missing\": " << missing
            << ", \"double_owned\": " << doubled
            << ", \"other_client\": " << other_client
            << ", \"unreadable\": " << unreadable << "}\n";
  if (missing > 0 || unreadable > 0) return 6;
  if (doubled > 0) return 7;
  if (other_client > 0) return 8;
  return 0;
}

// Migration-mode verify: recover the catalog (shard WALs + routing
// journal), then check the exactly-one-owner invariant — every
// acknowledged session is present EXACTLY once and answers reads.
int RunMigrationVerify(const std::string& dir) {
  aims::core::AimsConfig config;
  config.durability.path = dir;
  aims::server::ShardedCatalog catalog(2, config);
  if (!catalog.init_status().ok()) {
    std::cerr << "open failed: " << catalog.init_status().ToString() << "\n";
    return 3;
  }
  std::map<std::string, size_t> owners;
  size_t unreadable = 0;
  for (const auto& entry : catalog.ListSessions()) {
    owners[entry.info.name] += 1;
    auto channel = catalog.ReadChannel(entry.id, 0);
    if (!channel.ok() || channel->size() != entry.info.num_frames) {
      ++unreadable;
      std::cerr << "session " << entry.info.name << " unreadable\n";
    }
  }
  size_t acked = 0, missing = 0, doubled = 0;
  std::ifstream acks_in(dir + "/macks.txt");
  std::string ack;
  while (std::getline(acks_in, ack)) {
    if (ack.empty()) continue;
    ++acked;
    auto it = owners.find(ack);
    if (it == owners.end()) {
      ++missing;
      std::cerr << "acknowledged ingest " << ack << " lost\n";
    } else if (it->second != 1) {
      ++doubled;
      std::cerr << "acknowledged ingest " << ack << " has " << it->second
                << " owners\n";
    }
  }
  auto shard_stats = catalog.ShardStats();
  std::cout << "{\"sessions\": " << catalog.total_sessions()
            << ", \"acked\": " << acked << ", \"acked_missing\": " << missing
            << ", \"double_owned\": " << doubled
            << ", \"unreadable\": " << unreadable
            << ", \"shard0_sessions\": " << shard_stats[0].sessions
            << ", \"shard1_sessions\": " << shard_stats[1].sessions << "}\n";
  if (missing > 0 || unreadable > 0) return 6;
  if (doubled > 0) return 7;
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 4) {
    std::cerr << "usage: crash_ingest_helper <dir> <mode> <count>\n";
    return 2;
  }
  const std::string dir = argv[1];
  const std::string mode = argv[2];
  const int clean = std::atoi(argv[3]);

  if (mode == "ccrash") return RunCatalogCrash(dir, clean);
  if (mode == "cverify") return RunCatalogVerify(dir);
  if (mode == "mcrash") return RunMigrationCrash(dir, clean);
  if (mode == "mverify") return RunMigrationVerify(dir);

  using aims::storage::durable::testing::CheckpointStep;
  const std::map<std::string, CheckpointStep> checkpoint_modes = {
      {"rotated", CheckpointStep::kWalRotated},
      {"pagesync", CheckpointStep::kPagesSynced},
      {"torndelta", CheckpointStep::kDeltaAppend},
      {"deltadurable", CheckpointStep::kDeltaDurable},
      {"compact", CheckpointStep::kBaseRenamed}};
  const auto checkpoint_mode = checkpoint_modes.find(mode);
  aims::core::AimsConfig config;
  config.durability.path = dir;
  if (checkpoint_mode != checkpoint_modes.end()) {
    config.durability.checkpoint_wal_bytes = 1;
  }
  auto owned = std::make_unique<aims::core::AimsSystem>(config);
  aims::core::AimsSystem& system = *owned;
  if (!system.init_status().ok()) {
    std::cerr << "open failed: " << system.init_status().ToString() << "\n";
    return 3;
  }

  if (mode == "verify") {
    auto sessions = system.ListSessions();
    size_t acked = 0;
    size_t missing = 0;
    size_t segments = 0;
    size_t raw_mismatches = 0;
    std::ifstream acks_in(dir + "/acks.txt");
    std::string ack;
    while (std::getline(acks_in, ack)) {
      if (ack.empty()) continue;
      ++acked;
      const aims::core::SessionInfo* found = nullptr;
      for (const auto& session : sessions) {
        if (session.name == ack) found = &session;
      }
      if (found == nullptr) {
        ++missing;
        std::cerr << "acknowledged ingest " << ack << " lost\n";
        continue;
      }
      // An acked ingest's commit group included its sealed raw-sample
      // segments, so recovery must hand them back bit-exact — a crash
      // landing between the segment append and the commit record (the
      // `segment` mode) must never surface a half-sealed channel.
      const uint32_t seed =
          static_cast<uint32_t>(std::atoi(ack.c_str() + ack.rfind('_') + 1));
      const aims::streams::Recording expect = aims::crashtest::MakeRecording(seed);
      auto metas = system.ListSegments(found->id);
      if (metas.ok()) segments += metas.ValueOrDie().size();
      for (size_t c = 0; c < expect.num_channels(); ++c) {
        auto samples = system.ReadRawSamples(found->id, c);
        if (!samples.ok() ||
            samples.ValueOrDie().size() != expect.num_frames()) {
          ++raw_mismatches;
          std::cerr << "session " << ack << " channel " << c
                    << " raw segments incomplete\n";
          continue;
        }
        for (size_t f = 0; f < expect.num_frames(); ++f) {
          const auto& sample = samples.ValueOrDie()[f];
          const auto& frame = expect.frames[f];
          if (sample.t_ms !=
                  static_cast<int64_t>(std::llround(frame.timestamp * 1e6)) ||
              sample.value != frame.values[c]) {
            ++raw_mismatches;
            std::cerr << "session " << ack << " channel " << c
                      << " raw sample " << f << " drifted\n";
            break;
          }
        }
      }
    }
    const aims::obs::WalStats stats = system.WalStats();
    std::cout << "{\"sessions\": " << sessions.size()
              << ", \"acked\": " << acked
              << ", \"acked_missing\": " << missing
              << ", \"segments\": " << segments
              << ", \"raw_mismatches\": " << raw_mismatches
              << ", \"recovered_txns\": " << stats.recovered_txns
              << ", \"recovered_records\": " << stats.recovered_records
              << ", \"discarded_bytes\": " << stats.discarded_bytes
              << ", \"checkpoints\": " << stats.checkpoints << "}\n";
    return (missing == 0 && raw_mismatches == 0) ? 0 : 6;
  }

  std::ofstream acks(dir + "/acks.txt", std::ios::app);
  if (!acks) {
    std::cerr << "cannot open acks file\n";
    return 3;
  }

  uint32_t seed = static_cast<uint32_t>(system.ListSessions().size());
  for (int i = 0; i < clean; ++i, ++seed) {
    auto id = system.IngestRecording(aims::crashtest::SessionName(seed),
                                     aims::crashtest::MakeRecording(seed));
    if (!id.ok()) {
      std::cerr << "ingest failed: " << id.status().ToString() << "\n";
      return 4;
    }
    // The ack is the durability contract under test: it is written only
    // after the ingest returned OK, i.e. after its commit record was made
    // durable. flush() pushes it to the OS, which survives SIGKILL.
    acks << aims::crashtest::SessionName(seed) << "\n" << std::flush;
  }

  if (mode == "clean") return 0;
  StartCrashRecorder(dir, mode);
  if (mode == "compact") {
    // The open's compaction rewrites the base over the deltas the acked
    // ingests' checkpoints appended; the process dies before it resets
    // the log.
    owned.reset();
    aims::storage::durable::testing::SetCrashAtCheckpointStep(
        CheckpointStep::kBaseRenamed);
    aims::core::AimsSystem reopened(config);
    std::cerr << "crash hook did not fire (reopen "
              << reopened.init_status().ToString() << ")\n";
    return 5;
  }
  if (checkpoint_mode != checkpoint_modes.end()) {
    aims::storage::durable::testing::SetCrashAtCheckpointStep(
        checkpoint_mode->second);
  } else if (mode == "payload") {
    aims::storage::durable::testing::SetCrashAfterPayloadAppends(1);
  } else if (mode == "precommit") {
    aims::storage::durable::testing::SetCrashBeforeCommitAppend(true);
  } else if (mode == "postcommit") {
    aims::storage::durable::testing::SetCrashAfterCommitDurable(true);
  } else if (mode == "segment") {
    aims::storage::durable::testing::SetCrashAfterSegmentAppends(1);
  } else {
    std::cerr << "unknown mode " << mode << "\n";
    return 2;
  }

  // The armed hook raises SIGKILL inside this call; it must not return.
  auto id = system.IngestRecording(aims::crashtest::SessionName(seed),
                                   aims::crashtest::MakeRecording(seed));
  std::cerr << "crash hook did not fire (ingest "
            << (id.ok() ? "succeeded" : id.status().ToString()) << ")\n";
  return 5;
}
