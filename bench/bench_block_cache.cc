// Block-cache win on the hot-working-set server workload: many progressive
// queries refine the same recent recording, and without a cache every
// refinement step pays a full simulated seek (DiskCostModel::
// simulate_io_wait) even though the working set is tiny. This harness runs
// the same ragged-range query mix against one server with the cache off
// and one with it on, asserts the cached p50 latency is at least 3x
// better, and then pins the cache-aware EXPLAIN ANALYZE contract: a cold
// analyzed run reconciles with every predicted block read from the device,
// a hot rerun reconciles with zero device I/O.

#include <chrono>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "common/macros.h"
#include "common/stats.h"
#include "server/server.h"

namespace aims {
namespace {

constexpr int kSchemaVersion = 1;
constexpr size_t kFrames = 512;
constexpr size_t kWarmupPerRange = 1;
constexpr size_t kMeasuredQueries = 24;
constexpr double kRequiredP50Speedup = 3.0;

struct Range {
  size_t first;
  size_t last;
};

// Ragged hot working set: overlapping ranges over the same recording, so
// a read-through cache converges to residency after one pass.
const std::vector<Range>& HotRanges() {
  static const std::vector<Range> kRanges = {
      {7, 246},  {31, 400}, {3, 120},  {64, 300},
      {15, 355}, {90, 470}, {5, 200},  {128, 509},
  };
  return kRanges;
}

streams::Recording MakeRecording(size_t frames) {
  streams::Recording rec;
  rec.sample_rate_hz = 100.0;
  for (size_t f = 0; f < frames; ++f) {
    streams::Frame frame;
    frame.timestamp = static_cast<double>(f) / 100.0;
    frame.values = {std::sin(0.07 * static_cast<double>(f)) +
                    0.2 * std::sin(0.31 * static_cast<double>(f))};
    rec.Append(std::move(frame));
  }
  return rec;
}

server::ServerConfig BenchConfig(size_t cache_capacity_bytes) {
  server::ServerConfig config;
  config.num_shards = 1;
  config.num_threads = 4;
  config.system.block_size_bytes = 64;
  config.system.disk_cost.seek_ms = 2.0;
  config.system.disk_cost.transfer_ms_per_kb = 0.0;
  config.system.disk_cost.simulate_io_wait = true;
  config.system.block_cache.capacity_bytes = cache_capacity_bytes;
  config.system.block_cache.num_shards = 4;
  return config;
}

struct ModeResult {
  double p50_ms = 0.0;
  double mean_ms = 0.0;
  size_t queries = 0;
  size_t device_reads = 0;
  obs::CacheStats cache;
};

server::QueryRequest RangeQuery(server::GlobalSessionId session,
                                const Range& range) {
  server::QueryRequest query;
  query.session = session;
  query.channel = 0;
  query.first_frame = range.first;
  query.last_frame = range.last;
  return query;
}

ModeResult RunMode(size_t cache_capacity_bytes) {
  server::AimsServer server(BenchConfig(cache_capacity_bytes));
  AIMS_CHECK(server.OpenSession({1}).ok());
  auto ingest = server.IngestRecording({1, "hot", MakeRecording(kFrames)});
  AIMS_CHECK(ingest.ok());

  auto run_one = [&](const Range& range) {
    auto submitted = server.SubmitQuery({1, RangeQuery(ingest->session, range)});
    AIMS_CHECK(submitted.ok());
    AIMS_CHECK(submitted->ticket->Wait().state ==
               server::QueryState::kComplete);
  };
  // Identical warmup either way: with the cache on this populates the
  // working set; off, it just burns the same first pass.
  for (const Range& range : HotRanges()) {
    for (size_t i = 0; i < kWarmupPerRange; ++i) run_one(range);
  }

  const size_t reads_before = server.catalog().total_blocks_read();
  std::vector<double> latencies_ms;
  latencies_ms.reserve(kMeasuredQueries);
  for (size_t q = 0; q < kMeasuredQueries; ++q) {
    const Range& range = HotRanges()[q % HotRanges().size()];
    auto start = std::chrono::steady_clock::now();
    run_one(range);
    latencies_ms.push_back(std::chrono::duration<double, std::milli>(
                               std::chrono::steady_clock::now() - start)
                               .count());
  }

  ModeResult result;
  result.queries = kMeasuredQueries;
  result.p50_ms = Percentile(latencies_ms, 50.0);
  double sum = 0.0;
  for (double ms : latencies_ms) sum += ms;
  result.mean_ms = sum / static_cast<double>(latencies_ms.size());
  result.device_reads = server.catalog().total_blocks_read() - reads_before;
  result.cache = server.catalog().TotalCacheStats();
  server.Shutdown();
  return result;
}

struct ReconciliationResult {
  size_t predicted_blocks = 0;
  size_t cold_blocks_read = 0;
  size_t hot_cache_hits = 0;
  bool both_reconciled = false;
};

// The cache-aware ANALYZE contract, checked on a live cache-on server:
// EXPLAIN predicts cold-vs-cached from residency, and the execution's
// device reads must equal the prediction exactly — for the cold first run
// (everything from the device) and the hot rerun (nothing from it).
ReconciliationResult VerifyReconciliation() {
  server::AimsServer server(BenchConfig(/*cache_capacity_bytes=*/1 << 20));
  AIMS_CHECK(server.OpenSession({1}).ok());
  auto ingest = server.IngestRecording({1, "hot", MakeRecording(kFrames)});
  AIMS_CHECK(ingest.ok());
  AIMS_CHECK(server.ClearCache({}).ok());

  auto analyze = [&](const Range& range) {
    server::QueryRequest query = RangeQuery(ingest->session, range);
    query.explain = server::ExplainMode::kAnalyze;
    auto submitted = server.SubmitQuery({1, query});
    AIMS_CHECK(submitted.ok());
    server::QueryOutcome outcome = submitted->ticket->Wait();
    AIMS_CHECK(outcome.state == server::QueryState::kComplete);
    AIMS_CHECK(outcome.plan.has_value() && outcome.breakdown.has_value());
    return outcome;
  };
  const Range range = HotRanges().front();

  server::QueryOutcome cold = analyze(range);
  const auto& cold_plan = *cold.plan;
  const auto& cold_actual = *cold.breakdown;
  AIMS_CHECK(cold_plan.predicted_cold_blocks == cold_plan.predicted_blocks);
  AIMS_CHECK(cold_actual.blocks_read == cold_plan.predicted_cold_blocks);
  AIMS_CHECK(cold_actual.cache_hits == 0);
  AIMS_CHECK(cold_actual.reconciled);

  server::QueryOutcome hot = analyze(range);
  const auto& hot_plan = *hot.plan;
  const auto& hot_actual = *hot.breakdown;
  AIMS_CHECK(hot_plan.predicted_cold_blocks == 0);
  AIMS_CHECK(hot_plan.predicted_cached_blocks == hot_plan.predicted_blocks);
  AIMS_CHECK(hot_actual.blocks_read == 0);
  AIMS_CHECK(hot_actual.cache_hits == hot_plan.predicted_blocks);
  AIMS_CHECK(hot_actual.blocks_fetched == hot_plan.predicted_blocks);
  AIMS_CHECK(hot_actual.reconciled);
  AIMS_CHECK(hot.answer.sum == cold.answer.sum);

  ReconciliationResult result;
  result.predicted_blocks = cold_plan.predicted_blocks;
  result.cold_blocks_read = cold_actual.blocks_read;
  result.hot_cache_hits = hot_actual.cache_hits;
  result.both_reconciled = cold_actual.reconciled && hot_actual.reconciled;
  server.Shutdown();
  return result;
}

}  // namespace
}  // namespace aims

int main() {
  using aims::ModeResult;

  std::fprintf(stderr, "bench_block_cache: cache-off baseline...\n");
  ModeResult off = aims::RunMode(/*cache_capacity_bytes=*/0);
  std::fprintf(stderr, "bench_block_cache: cache-on (1 MiB)...\n");
  ModeResult on = aims::RunMode(/*cache_capacity_bytes=*/1 << 20);
  std::fprintf(stderr, "bench_block_cache: EXPLAIN ANALYZE reconciliation...\n");
  aims::ReconciliationResult reconcile = aims::VerifyReconciliation();

  const double p50_speedup = off.p50_ms / on.p50_ms;

  const aims::server::ServerConfig config = aims::BenchConfig(1 << 20);
  std::printf("{\n  \"bench\": \"bench_block_cache\",\n");
  std::printf("  \"schema_version\": %d,\n", aims::kSchemaVersion);
  std::printf(
      "  \"config\": {\"frames\": %zu, \"block_size_bytes\": %zu, "
      "\"seek_ms\": %.2f, \"simulate_io_wait\": true, "
      "\"cache_capacity_bytes\": %d, \"cache_shards\": %zu, "
      "\"hot_ranges\": %zu, \"measured_queries\": %zu},\n",
      aims::kFrames, config.system.block_size_bytes,
      config.system.disk_cost.seek_ms, 1 << 20,
      config.system.block_cache.num_shards, aims::HotRanges().size(),
      aims::kMeasuredQueries);
  std::printf(
      "  \"cache_off\": {\"p50_ms\": %.3f, \"mean_ms\": %.3f, "
      "\"queries\": %zu, \"device_reads\": %zu},\n",
      off.p50_ms, off.mean_ms, off.queries, off.device_reads);
  std::printf(
      "  \"cache_on\": {\"p50_ms\": %.3f, \"mean_ms\": %.3f, "
      "\"queries\": %zu, \"device_reads\": %zu, \"hits\": %llu, "
      "\"misses\": %llu, \"hit_rate\": %.4f, \"bytes_cached\": %llu},\n",
      on.p50_ms, on.mean_ms, on.queries, on.device_reads,
      static_cast<unsigned long long>(on.cache.hits),
      static_cast<unsigned long long>(on.cache.misses), on.cache.HitRate(),
      static_cast<unsigned long long>(on.cache.bytes_cached));
  std::printf(
      "  \"reconciliation\": {\"predicted_blocks\": %zu, "
      "\"cold_blocks_read\": %zu, \"hot_cache_hits\": %zu, "
      "\"both_reconciled\": %s},\n",
      reconcile.predicted_blocks, reconcile.cold_blocks_read,
      reconcile.hot_cache_hits, reconcile.both_reconciled ? "true" : "false");
  std::printf("  \"p50_speedup\": %.2f\n}\n", p50_speedup);
  // A run the gates abort still reports what it measured.
  std::fflush(stdout);

  // The acceptance bar: a hot working set under simulated seeks must be at
  // least 3x faster at the median with the cache on.
  AIMS_CHECK(p50_speedup >= aims::kRequiredP50Speedup);
  return 0;
}
