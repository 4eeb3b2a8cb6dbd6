// bench_rebalance — query throughput while a tenant is live-migrated.
//
// The rebalance contract is not just "nothing breaks": the catalog must
// keep serving while the DataMigrator copies a tenant between shards.
// This bench measures that directly. A fixed reader pool hammers the
// catalog with range queries over a known session set for a steady-state
// window, then for a second window of the same length during which a
// migrator thread moves a hot tenant (8 sessions) back and forth between
// two shards on a fixed schedule, one move every 10 ms. The run FAILS
// (AIMS_CHECK) if sustained throughput in the migration window drops below
// 70% of steady state — the migration's per-session copy lock is allowed
// to cost something, but it must never stall the read path. The fixed
// pace makes the gate bound read-path interference per move: an
// unthrottled migrator loads the readers more the faster each copy gets.
// Results go to stdout as JSON; progress to stderr.

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <thread>
#include <utility>
#include <vector>

#include "common/macros.h"
#include "server/data_migrator.h"
#include "server/sharded_catalog.h"

namespace aims {
namespace {

constexpr int kSchemaVersion = 1;

constexpr size_t kShards = 4;
constexpr size_t kReaders = 4;
constexpr size_t kTenants = 8;
constexpr size_t kSessionsPerTenant = 8;
constexpr size_t kFrames = 256;
constexpr size_t kChannels = 4;
constexpr double kMinThroughputRatio = 0.70;
constexpr auto kWindow = std::chrono::milliseconds(500);
constexpr auto kMigrationInterval = std::chrono::milliseconds(10);

streams::Recording MakeRecording(double base) {
  streams::Recording rec;
  rec.sample_rate_hz = 100.0;
  for (size_t f = 0; f < kFrames; ++f) {
    streams::Frame frame;
    frame.timestamp = static_cast<double>(f) / 100.0;
    frame.values.resize(kChannels);
    for (size_t c = 0; c < kChannels; ++c) {
      frame.values[c] =
          base + std::sin(0.1 * static_cast<double>(f * (c + 1)));
    }
    rec.Append(std::move(frame));
  }
  return rec;
}

struct Window {
  size_t queries = 0;
  double seconds = 0.0;
  double queries_per_sec = 0.0;
};

/// Runs the reader pool against \p sessions for \p duration; every reader
/// walks the whole known set round-robin from its own offset. Every query
/// must succeed — a failed read during rebalance is a correctness bug,
/// not a throughput artifact.
Window RunReaderWindow(server::ShardedCatalog* catalog,
                       const std::vector<server::GlobalSessionId>& sessions,
                       std::chrono::milliseconds duration) {
  std::atomic<bool> stop{false};
  std::atomic<size_t> queries{0};
  auto start = std::chrono::steady_clock::now();
  std::vector<std::thread> readers;
  for (size_t r = 0; r < kReaders; ++r) {
    readers.emplace_back([r, catalog, &sessions, &stop, &queries] {
      size_t i = r;
      while (!stop.load(std::memory_order_relaxed)) {
        const server::GlobalSessionId id = sessions[i % sessions.size()];
        auto stats = catalog->QueryRange(id, i % kChannels, 0, kFrames - 1);
        AIMS_CHECK(stats.ok());
        queries.fetch_add(1, std::memory_order_relaxed);
        ++i;
      }
    });
  }
  std::this_thread::sleep_for(duration);
  stop.store(true);
  for (auto& t : readers) t.join();
  Window w;
  w.queries = queries.load();
  w.seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  w.queries_per_sec = static_cast<double>(w.queries) / w.seconds;
  return w;
}

}  // namespace
}  // namespace aims

int main() {
  using namespace aims;

  server::ShardedCatalog catalog(kShards);
  std::vector<server::GlobalSessionId> sessions;
  for (server::ClientId tenant = 0; tenant < kTenants; ++tenant) {
    for (size_t s = 0; s < kSessionsPerTenant; ++s) {
      auto id = catalog.Ingest(tenant, "bench",
                               MakeRecording(1.0 + static_cast<double>(s)));
      AIMS_CHECK(id.ok());
      sessions.push_back(*id);
    }
  }

  std::fprintf(stderr, "bench_rebalance: steady-state window...\n");
  Window steady = RunReaderWindow(&catalog, sessions, kWindow);

  // Migration window: tenant 0 ping-pongs between its home shard and the
  // opposite one, one move per kMigrationInterval for the whole window, so
  // the read pool keeps overlapping live copies. Each completed move
  // re-journals routes and flips the routing epoch — the expensive path,
  // not a cached no-op.
  const server::ClientId hot = 0;
  const size_t home = catalog.router().ShardForClient(hot);
  const size_t away = (home + kShards / 2) % kShards;
  std::atomic<bool> stop_migrator{false};
  std::atomic<size_t> migrations{0};
  std::atomic<size_t> sessions_moved{0};
  std::thread migrator_thread([&] {
    server::DataMigrator migrator(&catalog);
    size_t flip = 0;
    auto next = std::chrono::steady_clock::now();
    while (!stop_migrator.load(std::memory_order_relaxed)) {
      std::this_thread::sleep_until(next);
      next += kMigrationInterval;
      const size_t target = (flip++ % 2 == 0) ? away : home;
      AIMS_CHECK(migrator.MigrateTenant(hot, target).ok());
      migrations.fetch_add(1, std::memory_order_relaxed);
      sessions_moved.fetch_add(migrator.status().sessions_moved,
                               std::memory_order_relaxed);
    }
  });

  std::fprintf(stderr, "bench_rebalance: migration window...\n");
  Window during = RunReaderWindow(&catalog, sessions, kWindow);
  stop_migrator.store(true);
  migrator_thread.join();

  const double ratio = during.queries_per_sec / steady.queries_per_sec;
  const double moves_per_sec =
      static_cast<double>(sessions_moved.load()) / during.seconds;

  std::printf("{\n  \"bench\": \"bench_rebalance\",\n");
  std::printf("  \"schema_version\": %d,\n", kSchemaVersion);
  std::printf(
      "  \"config\": {\"shards\": %zu, \"readers\": %zu, \"tenants\": %zu, "
      "\"sessions_per_tenant\": %zu, \"frames\": %zu, "
      "\"window_ms\": %lld, \"migration_interval_ms\": %lld},\n",
      kShards, kReaders, kTenants, kSessionsPerTenant, kFrames,
      static_cast<long long>(kWindow.count()),
      static_cast<long long>(kMigrationInterval.count()));
  std::printf(
      "  \"steady_state\": {\"queries\": %zu, \"seconds\": %.3f, "
      "\"queries_per_sec\": %.1f},\n",
      steady.queries, steady.seconds, steady.queries_per_sec);
  std::printf(
      "  \"during_migration\": {\"queries\": %zu, \"seconds\": %.3f, "
      "\"queries_per_sec\": %.1f, \"migrations\": %zu, "
      "\"sessions_moved\": %zu, \"sessions_moved_per_sec\": %.1f},\n",
      during.queries, during.seconds, during.queries_per_sec,
      migrations.load(), sessions_moved.load(), moves_per_sec);
  std::printf("  \"throughput_ratio\": %.3f,\n", ratio);
  std::printf("  \"min_required_ratio\": %.2f\n}\n", kMinThroughputRatio);
  // A run the gates abort still reports what it measured.
  std::fflush(stdout);

  // At least one full migration must have overlapped the window, or the
  // "during" number measured nothing.
  AIMS_CHECK(migrations.load() >= 1);
  AIMS_CHECK(ratio >= kMinThroughputRatio);
  return 0;
}
