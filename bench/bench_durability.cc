// Durability cost and the group-commit win.
//
// Phase 1 measures what fsync-per-commit durability costs an ingest:
// the same recordings through an in-memory AimsSystem and a durable one
// (file-backed pages + WAL, sync on every commit), reporting p50 per
// ingest — then reopens the store and checks every session recovered.
//
// Phase 2 pins the reason WriteAheadLog::AppendCommit returns a ticket
// instead of syncing inline: K client threads commit concurrently under
// two disciplines against logs with a modeled 8 ms sync —
//
//   naive   one mutex held across append AND sync (what an unsplit
//           commit path forces): syncs serialize, one commit each;
//   staged  append under the mutex, WaitDurable outside it with a group
//           commit window: concurrent commits share the leader's fsync.
//
// The acceptance bar: staged throughput is at least 2x naive.

#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/macros.h"
#include "common/stats.h"
#include "core/aims.h"
#include "storage/wal.h"

namespace aims {
namespace {

constexpr int kSchemaVersion = 1;
constexpr size_t kIngests = 12;
constexpr size_t kFrames = 256;
constexpr size_t kClients = 4;
constexpr size_t kCommitsPerClient = 6;
constexpr double kSimulatedSyncMs = 8.0;
constexpr double kGroupCommitMs = 4.0;
constexpr double kRequiredSpeedup = 2.0;

std::string BenchDir(const std::string& name) {
  std::string dir = (std::filesystem::temp_directory_path() /
                     ("aims_bench_durability_" + name))
                        .string();
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

streams::Recording MakeRecording(uint32_t seed) {
  streams::Recording rec;
  rec.sample_rate_hz = 100.0;
  for (size_t f = 0; f < kFrames; ++f) {
    streams::Frame frame;
    frame.timestamp = static_cast<double>(f) / 100.0;
    const double t = static_cast<double>(f) + 31.0 * seed;
    frame.values = {std::sin(0.07 * t), std::cos(0.11 * t)};
    rec.Append(std::move(frame));
  }
  return rec;
}

struct IngestResult {
  double p50_ms = 0.0;
  double mean_ms = 0.0;
  size_t ingests = 0;
};

IngestResult RunIngests(core::AimsSystem* system) {
  std::vector<double> latencies_ms;
  latencies_ms.reserve(kIngests);
  for (size_t i = 0; i < kIngests; ++i) {
    auto start = std::chrono::steady_clock::now();
    auto id = system->IngestRecording("rec_" + std::to_string(i),
                                      MakeRecording(static_cast<uint32_t>(i)));
    AIMS_CHECK(id.ok());
    latencies_ms.push_back(std::chrono::duration<double, std::milli>(
                               std::chrono::steady_clock::now() - start)
                               .count());
  }
  IngestResult result;
  result.ingests = kIngests;
  result.p50_ms = Percentile(latencies_ms, 50.0);
  double sum = 0.0;
  for (double ms : latencies_ms) sum += ms;
  result.mean_ms = sum / static_cast<double>(latencies_ms.size());
  return result;
}

struct CommitResult {
  double wall_ms = 0.0;
  double commits_per_s = 0.0;
  uint64_t commits = 0;
  uint64_t syncs = 0;
  uint64_t max_commits_per_sync = 0;
};

/// K threads, M commits each, one small payload per group. When
/// \p hold_lock_across_sync the bench mutex stays held through
/// WaitDurable — the per-commit-fsync discipline; otherwise it is
/// released first so commits pile into the leader's window.
CommitResult RunCommitDiscipline(const std::string& dir,
                                 bool hold_lock_across_sync) {
  storage::durable::WalConfig config;
  config.sync_mode = storage::durable::WalSyncMode::kFsync;
  config.simulated_sync_ms = kSimulatedSyncMs;
  config.group_commit_ms = hold_lock_across_sync ? 0.0 : kGroupCommitMs;
  auto opened =
      storage::durable::WriteAheadLog::Open(dir + "/wal.aims", config);
  AIMS_CHECK(opened.ok());
  storage::durable::WriteAheadLog* wal = opened.ValueOrDie().wal.get();

  const std::vector<uint8_t> payload(2048, 0x5a);
  std::mutex ingest_mutex;  // Stands in for the shard's exclusive lock.
  auto client = [&]() {
    for (size_t i = 0; i < kCommitsPerClient; ++i) {
      std::unique_lock<std::mutex> lock(ingest_mutex);
      auto txn = wal->BeginTxn();
      AIMS_CHECK(txn.ok());
      AIMS_CHECK(wal->AppendBlockPut(txn.ValueOrDie(), 0, payload).ok());
      auto ticket = wal->AppendCommit(txn.ValueOrDie());
      AIMS_CHECK(ticket.ok());
      if (!hold_lock_across_sync) lock.unlock();
      AIMS_CHECK(wal->WaitDurable(ticket.ValueOrDie()).ok());
    }
  };

  auto start = std::chrono::steady_clock::now();
  std::vector<std::thread> threads;
  for (size_t c = 0; c < kClients; ++c) threads.emplace_back(client);
  for (std::thread& t : threads) t.join();
  const double wall_ms = std::chrono::duration<double, std::milli>(
                             std::chrono::steady_clock::now() - start)
                             .count();

  obs::WalStats stats = wal->Stats();
  CommitResult result;
  result.wall_ms = wall_ms;
  result.commits = stats.commits;
  result.syncs = stats.syncs;
  result.max_commits_per_sync = stats.max_commits_per_sync;
  result.commits_per_s =
      static_cast<double>(stats.commits) / (wall_ms / 1000.0);
  return result;
}

}  // namespace
}  // namespace aims

int main() {
  using aims::CommitResult;
  using aims::IngestResult;

  std::fprintf(stderr, "bench_durability: in-memory ingest baseline...\n");
  aims::core::AimsSystem memory_system;
  IngestResult mem = aims::RunIngests(&memory_system);

  std::fprintf(stderr, "bench_durability: durable ingest (fsync/commit)...\n");
  const std::string store = aims::BenchDir("store");
  aims::core::AimsConfig durable_config;
  durable_config.durability.path = store;
  IngestResult dur;
  {
    aims::core::AimsSystem durable_system(durable_config);
    AIMS_CHECK(durable_system.init_status().ok());
    dur = aims::RunIngests(&durable_system);
  }
  // The numbers only mean something if the store actually is durable:
  // a reopen must recover every ingested session.
  {
    aims::core::AimsSystem reopened(durable_config);
    AIMS_CHECK(reopened.init_status().ok());
    AIMS_CHECK(reopened.ListSessions().size() == aims::kIngests);
  }

  std::fprintf(stderr, "bench_durability: per-commit-fsync discipline...\n");
  CommitResult naive =
      aims::RunCommitDiscipline(aims::BenchDir("naive"), true);
  std::fprintf(stderr, "bench_durability: staged group commit...\n");
  CommitResult staged =
      aims::RunCommitDiscipline(aims::BenchDir("staged"), false);

  const double speedup = staged.commits_per_s / naive.commits_per_s;

  std::printf("{\n  \"bench\": \"bench_durability\",\n");
  std::printf("  \"schema_version\": %d,\n", aims::kSchemaVersion);
  std::printf(
      "  \"config\": {\"ingests\": %zu, \"frames\": %zu, \"clients\": %zu, "
      "\"commits_per_client\": %zu, \"simulated_sync_ms\": %.1f, "
      "\"group_commit_ms\": %.1f},\n",
      aims::kIngests, aims::kFrames, aims::kClients, aims::kCommitsPerClient,
      aims::kSimulatedSyncMs, aims::kGroupCommitMs);
  std::printf(
      "  \"ingest_memory\": {\"p50_ms\": %.3f, \"mean_ms\": %.3f},\n",
      mem.p50_ms, mem.mean_ms);
  std::printf(
      "  \"ingest_durable\": {\"p50_ms\": %.3f, \"mean_ms\": %.3f, "
      "\"p50_overhead_ms\": %.3f},\n",
      dur.p50_ms, dur.mean_ms, dur.p50_ms - mem.p50_ms);
  std::printf(
      "  \"per_commit_fsync\": {\"wall_ms\": %.1f, \"commits\": %llu, "
      "\"syncs\": %llu, \"max_commits_per_sync\": %llu, "
      "\"commits_per_s\": %.1f},\n",
      naive.wall_ms, static_cast<unsigned long long>(naive.commits),
      static_cast<unsigned long long>(naive.syncs),
      static_cast<unsigned long long>(naive.max_commits_per_sync),
      naive.commits_per_s);
  std::printf(
      "  \"group_commit\": {\"wall_ms\": %.1f, \"commits\": %llu, "
      "\"syncs\": %llu, \"max_commits_per_sync\": %llu, "
      "\"commits_per_s\": %.1f},\n",
      staged.wall_ms, static_cast<unsigned long long>(staged.commits),
      static_cast<unsigned long long>(staged.syncs),
      static_cast<unsigned long long>(staged.max_commits_per_sync),
      staged.commits_per_s);
  std::printf("  \"group_commit_speedup\": %.2f\n}\n", speedup);
  // A run the gates abort still reports what it measured.
  std::fflush(stdout);

  // Sanity on both disciplines: everything committed; the serialized
  // discipline really did one sync per commit, the staged one batched.
  AIMS_CHECK(naive.commits == aims::kClients * aims::kCommitsPerClient);
  AIMS_CHECK(staged.commits == aims::kClients * aims::kCommitsPerClient);
  AIMS_CHECK(naive.syncs == naive.commits);
  AIMS_CHECK(staged.max_commits_per_sync >= 2);
  // The acceptance bar: sharing the leader's fsync must buy at least 2x
  // commit throughput over sync-while-holding-the-lock.
  AIMS_CHECK(speedup >= aims::kRequiredSpeedup);
  return 0;
}
