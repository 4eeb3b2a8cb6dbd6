// The black-box flight recorder: bounded always-on history (health
// snapshots, evicted traces, slow queries, events) rendered as one
// post-mortem bundle on trigger — a Saturated transition, a watchdog
// stall, an explicit dump — and optionally persisted on a short cadence so
// the on-disk bundle survives even a SIGKILL. The recovery-on-open
// contract is also pinned: a bundle left behind by a previous incarnation
// is renamed aside, never clobbered.

#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/stats_reporter.h"
#include "obs/tracer.h"
#include "obs/watchdog.h"
#include "server/server.h"
#include "test_util.h"

namespace aims::obs {
namespace {

/// Fresh empty directory under the test temp root.
std::string TestDir(const std::string& name) {
  std::string dir = ::testing::TempDir() + "aims_flight_" + name + "_" +
                    std::to_string(::getpid());
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path);
  std::stringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

size_t CountOccurrences(const std::string& haystack,
                        const std::string& needle) {
  size_t count = 0;
  for (size_t pos = haystack.find(needle); pos != std::string::npos;
       pos = haystack.find(needle, pos + needle.size())) {
    ++count;
  }
  return count;
}

HealthSnapshot MakeSnapshot(uint64_t sequence, HealthLevel level) {
  HealthSnapshot snapshot;
  snapshot.sequence = sequence;
  snapshot.uptime_ms = static_cast<double>(sequence) * 10.0;
  snapshot.level = level;
  if (level != HealthLevel::kOk) snapshot.reasons.push_back("queue over");
  return snapshot;
}

TEST(FlightRecorderTest, RetainsBoundedHistoryNewestLast) {
  FlightRecorderConfig config;
  config.health_capacity = 4;
  config.trace_capacity = 2;
  config.slow_query_capacity = 3;
  config.event_capacity = 2;
  FlightRecorder recorder(config);

  for (uint64_t i = 1; i <= 10; ++i) {
    recorder.RecordHealth(MakeSnapshot(i, HealthLevel::kOk));
    recorder.RecordSlowQuery("{\"q\":" + std::to_string(i) + "}");
    recorder.RecordEvent("event " + std::to_string(i));
    Trace trace(i);
    trace.BeginSpan(Stage::kQuery);
    recorder.RecordEvictedTrace(trace);
  }
  EXPECT_EQ(recorder.health_retained(), 4u);
  EXPECT_EQ(recorder.traces_retained(), 2u);
  EXPECT_EQ(recorder.slow_queries_retained(), 3u);

  const std::string bundle = recorder.RenderBundle("test");
  EXPECT_NE(bundle.find("\"bundle\":\"aims_flightrecord\""),
            std::string::npos);
  EXPECT_NE(bundle.find("\"schema_version\":1"), std::string::npos);
  EXPECT_NE(bundle.find("\"reason\":\"test\""), std::string::npos);
  // Bounded windows keep the NEWEST entries; totals still count them all.
  EXPECT_EQ(bundle.find("\"sequence\":6,"), std::string::npos);
  EXPECT_NE(bundle.find("\"sequence\":10,"), std::string::npos);
  EXPECT_NE(bundle.find("\"slow_queries_total\":10"), std::string::npos);
  EXPECT_NE(bundle.find("\"evicted_traces_total\":10"), std::string::npos);
  EXPECT_NE(bundle.find("{\"q\":10}"), std::string::npos);
  // The bundle's sections, in order; "slo" and "slo_history" render even
  // when no objective is configured.
  EXPECT_EQ(testutil::TopLevelJsonKeys(bundle),
            (std::vector<std::string>{
                "bundle", "schema_version", "reason", "uptime_ms", "dumps",
                "persists", "previous_bundle", "health",
                "evicted_traces_total", "evicted_traces",
                "slow_queries_total", "slow_queries", "events", "wal",
                "cache", "shards", "watchdog", "slo", "slo_history"}))
      << bundle;
  // In-memory configuration: Dump renders but returns no path.
  auto dumped = recorder.Dump("test");
  ASSERT_TRUE(dumped.ok());
  EXPECT_TRUE(dumped->empty());
}

TEST(FlightRecorderTest, BundleRendersTheLastEvictedTracesOldestFirst) {
  // The recorder keeps what the tracer's ring evicts as Trace objects and
  // renders them only with a bundle: the section is byte for byte the
  // ToJson of the last trace_capacity evicted traces, oldest first.
  FlightRecorderConfig config;
  config.trace_capacity = 3;
  FlightRecorder recorder(config);
  Tracer tracer(2, nullptr, [&recorder](Trace&& trace) {
    recorder.RecordEvictedTrace(std::move(trace));
  });

  std::vector<std::string> rendered;
  for (uint64_t i = 1; i <= 8; ++i) {
    Trace trace(i);
    trace.set_label("query " + std::to_string(i));
    trace.AddSpan(Stage::kQuery, 0.0, static_cast<double>(i));
    trace.AddSpan(Stage::kBlockIo, 0.5, 0.25 * static_cast<double>(i));
    rendered.push_back(trace.ToJson());
    tracer.Record(std::move(trace));
  }
  // The ring keeps traces 7 and 8; it evicted 1..6, the recorder kept the
  // last three of those.
  ASSERT_EQ(tracer.dropped(), 6u);
  EXPECT_EQ(recorder.traces_retained(), 3u);
  const std::string expected = "\"evicted_traces_total\":6,"
                               "\"evicted_traces\":[" +
                               rendered[3] + "," + rendered[4] + "," +
                               rendered[5] + "]";
  EXPECT_NE(recorder.RenderBundle("test").find(expected), std::string::npos)
      << expected;
}

TEST(FlightRecorderTest, SaturatedTransitionWritesABundle) {
  const std::string dir = TestDir("saturated");
  FlightRecorderConfig config;
  config.bundle_path = dir + "/flightrecord.json";
  FlightRecorder recorder(config);

  recorder.RecordHealth(MakeSnapshot(1, HealthLevel::kOk));
  recorder.RecordHealth(MakeSnapshot(2, HealthLevel::kDegraded));
  EXPECT_EQ(recorder.dumps(), 0u) << "Degraded alone must not trigger";

  recorder.RecordHealth(MakeSnapshot(3, HealthLevel::kSaturated));
  EXPECT_EQ(recorder.dumps(), 1u);
  ASSERT_TRUE(std::filesystem::exists(config.bundle_path));
  const std::string bundle = ReadFile(config.bundle_path);
  EXPECT_NE(bundle.find("Saturated"), std::string::npos);

  // Staying Saturated is not a new transition; recovering and saturating
  // again is.
  recorder.RecordHealth(MakeSnapshot(4, HealthLevel::kSaturated));
  EXPECT_EQ(recorder.dumps(), 1u);
  recorder.RecordHealth(MakeSnapshot(5, HealthLevel::kOk));
  recorder.RecordHealth(MakeSnapshot(6, HealthLevel::kSaturated));
  EXPECT_EQ(recorder.dumps(), 2u);
}

TEST(FlightRecorderTest, PreviousBundleIsPreservedNotClobbered) {
  const std::string dir = TestDir("prev");
  const std::string path = dir + "/flightrecord.json";
  {
    std::ofstream out(path);
    out << "{\"bundle\":\"previous incarnation\"}";
  }
  FlightRecorder recorder({.bundle_path = path});
  // The old evidence moved aside and survives the new recorder's writes.
  EXPECT_EQ(recorder.previous_bundle_path(), path + ".prev");
  ASSERT_TRUE(std::filesystem::exists(path + ".prev"));
  EXPECT_NE(ReadFile(path + ".prev").find("previous incarnation"),
            std::string::npos);
  ASSERT_TRUE(recorder.Dump("new incarnation").ok());
  EXPECT_NE(ReadFile(path + ".prev").find("previous incarnation"),
            std::string::npos);
  // The rendered bundle points at the preserved file.
  EXPECT_NE(ReadFile(path).find(".prev"), std::string::npos);
}

TEST(FlightRecorderTest, PeriodicPersistKeepsTheBundleFresh) {
  const std::string dir = TestDir("persist");
  FlightRecorderConfig config;
  config.bundle_path = dir + "/flightrecord.json";
  config.persist_interval_ms = 5.0;
  FlightRecorder recorder(config);
  EXPECT_FALSE(recorder.running());
  recorder.Start();
  EXPECT_TRUE(recorder.running());

  recorder.RecordEvent("work happened");
  for (int i = 0; i < 200 && recorder.persists() == 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_GT(recorder.persists(), 0u) << "persist thread never wrote";
  ASSERT_TRUE(std::filesystem::exists(config.bundle_path));

  recorder.Stop();
  EXPECT_FALSE(recorder.running());
  // Stop leaves one final shutdown bundle on disk.
  EXPECT_NE(ReadFile(config.bundle_path).find("\"reason\":\"shutdown\""),
            std::string::npos);
  recorder.Stop();  // idempotent
}

// The acceptance scenario: an induced watchdog stall triggers a bundle
// that holds the recent health history (>= 5 snapshots), the evicted
// traces, and the slow queries — and the stall is visible as the
// aims_watchdog_stalls_total metric.
TEST(FlightRecorderTest, WatchdogStallDumpsBundleWithRecentHistory) {
  const std::string dir = TestDir("stall");
  FlightRecorderConfig config;
  config.bundle_path = dir + "/flightrecord.json";
  // The recorder renders the watchdog's status and the watchdog dumps the
  // recorder, so the provider reaches the watchdog built after it.
  const Watchdog* watched = nullptr;
  FlightRecorder recorder(config, [&] {
    FlightContext context;
    context.watchdog = watched->Status();
    return context;
  });

  MetricsRegistry registry;
  WatchdogConfig wd_config;
  wd_config.deadline_ms = 5.0;
  Watchdog watchdog(wd_config, registry.GetCounter("watchdog.stalls_total"),
                    [&](const Watchdog::ThreadStatus& status) {
                      (void)recorder.Dump("watchdog stall: " + status.name);
                    });
  watched = &watchdog;

  // Recent history: six health snapshots, two evicted traces, two slow
  // queries — what the post-mortem needs to explain the stall.
  for (uint64_t i = 1; i <= 6; ++i) {
    recorder.RecordHealth(MakeSnapshot(i, HealthLevel::kOk));
  }
  for (uint64_t i = 1; i <= 2; ++i) {
    Trace trace(i);
    trace.set_label("evicted work");
    trace.BeginSpan(Stage::kCheckpoint);
    recorder.RecordEvictedTrace(trace);
    recorder.RecordSlowQuery("{\"slow\":" + std::to_string(i) + "}");
  }

  // Induce the stall: an armed handle that never beats past its deadline.
  Watchdog::Handle* wedged = watchdog.Register("wal_sync", 5.0);
  wedged->Arm();
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_EQ(watchdog.CheckNow(), 1u);
  EXPECT_EQ(watchdog.stalls(), 1u);
  EXPECT_EQ(registry.GetCounter("watchdog.stalls_total")->value(), 1u);

  ASSERT_TRUE(std::filesystem::exists(config.bundle_path));
  const std::string bundle = ReadFile(config.bundle_path);
  EXPECT_NE(bundle.find("watchdog stall: wal_sync"), std::string::npos);
  // >= 5 health snapshots (each contributes one queue_saturation field).
  EXPECT_GE(CountOccurrences(bundle, "\"queue_saturation\":"), 5u);
  EXPECT_NE(bundle.find("evicted work"), std::string::npos);
  EXPECT_NE(bundle.find("{\"slow\":2}"), std::string::npos);
  // The embedded watchdog context shows the wedged handle as stalled.
  EXPECT_NE(bundle.find("\"name\":\"wal_sync\""), std::string::npos);
  EXPECT_NE(bundle.find("\"stalled\":true"), std::string::npos);

  // One episode, one dump: the latch holds until a check sees the handle
  // healthy again.
  EXPECT_EQ(watchdog.CheckNow(), 0u);
  EXPECT_EQ(recorder.dumps(), 1u);
  wedged->Beat();
  EXPECT_EQ(watchdog.CheckNow(), 0u);  // observed healthy: episode closed
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_EQ(watchdog.CheckNow(), 1u) << "a fresh episode counts again";
  EXPECT_EQ(recorder.dumps(), 2u);
}

// The server's checker thread on its own: with
// ObsConfig::watchdog_interval_ms set, an armed handle that never beats is
// counted and flight-recorded without anyone calling CheckNow().
TEST(FlightRecorderTest, ServerWatchdogThreadDumpsAStallWithoutCheckNow) {
  const std::string dir = TestDir("server_stall");
  server::ServerConfig config;
  config.num_shards = 1;
  config.num_threads = 1;
  config.obs.watchdog_interval_ms = 5.0;
  config.obs.flight_recorder.bundle_path = dir + "/flightrecord.json";
  server::AimsServer server(config);
  EXPECT_TRUE(server.watchdog().running());

  Watchdog::Handle* wedged = server.watchdog().Register("wedged_loop", 5.0);
  wedged->Arm();
  Counter* stalls = server.metrics().GetCounter("watchdog.stalls_total");
  const std::string& path = config.obs.flight_recorder.bundle_path;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while ((stalls->value() == 0 ||
          ReadFile(path).find("watchdog stall: wedged_loop") ==
              std::string::npos) &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  EXPECT_EQ(stalls->value(), 1u) << "one episode, counted once";
  EXPECT_NE(ReadFile(path).find("watchdog stall: wedged_loop"),
            std::string::npos);
  EXPECT_GE(server.flight_recorder().dumps(), 1u);

  wedged->Disarm();
  server.Shutdown();
  EXPECT_FALSE(server.watchdog().running());
}

}  // namespace
}  // namespace aims::obs
