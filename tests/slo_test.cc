#include <chrono>
#include <cmath>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "obs/exporters.h"
#include "obs/metrics.h"
#include "obs/slo.h"
#include "obs/stats_reporter.h"
#include "obs/timeseries.h"
#include "server/server.h"

/// \file slo_test.cc
/// \brief The SLO contracts: burn rates are bad-event fraction over error
/// budget per window, computed from the history store for all three
/// objective kinds; an alert needs BOTH the fast and slow windows past the
/// threshold (multi-window gating); the StatsReporter judges objectives
/// as of the newest scrape, marks each breach edge in exactly one
/// snapshot and counts transitions, and judges nothing new without a
/// newer scrape; the aims_slo_* family renders family-major with
/// {objective=...} labels; and a forced burn on a live server walks the
/// whole chain — Degraded health carrying the SLO reason, aims_slo_* in
/// the exposition, and a flight-record bundle embedding the burning
/// series' recent history window.

namespace aims::obs {
namespace {

// Appends a counter pair at 1s cadence: `ops` climbs by 10 each tick,
// `errs` climbs by `err_step` during [bad_from, bad_to) ticks.
void FillCounters(MetricsTimeSeries* store, int ticks, int bad_from,
                  int bad_to, double err_step, int64_t t0 = 0) {
  double ops = 0.0;
  double errs = 0.0;
  for (int i = 0; i < ticks; ++i) {
    ops += 10.0;
    if (i >= bad_from && i < bad_to) errs += err_step;
    store->Append("test.ops", t0 + i * 1000, ops);
    store->Append("test.errs", t0 + i * 1000, errs);
  }
}

SloObjective ErrorObjective() {
  SloObjective slo;
  slo.name = "demo-errors";
  slo.kind = SloKind::kErrorRatio;
  slo.objective = 0.9;  // 10% error budget
  slo.series = "test.errs";
  slo.total_series = "test.ops";
  slo.fast_window_ms = 10 * 1000.0;
  slo.slow_window_ms = 60 * 1000.0;
  slo.burn_threshold = 2.0;
  return slo;
}

TEST(SloEngineTest, QuietServiceDoesNotBurn) {
  MetricsTimeSeries store;
  FillCounters(&store, 120, 0, 0, 0.0);  // no errors at all
  SloStatus status = EvaluateObjective(store, ErrorObjective(), 119 * 1000);
  EXPECT_EQ(status.fast_burn, 0.0);
  EXPECT_EQ(status.slow_burn, 0.0);
  EXPECT_FALSE(status.burning);
  EXPECT_TRUE(status.reason.empty());
}

TEST(SloEngineTest, ErrorRatioBurnIsFractionOverBudget) {
  MetricsTimeSeries store;
  // Errors at 5/tick against 10 ops/tick across the whole timeline:
  // bad fraction 0.5, budget 0.1 -> burn 5.0 in both windows.
  FillCounters(&store, 120, 0, 120, 5.0);
  SloStatus status = EvaluateObjective(store, ErrorObjective(), 119 * 1000);
  EXPECT_NEAR(status.fast_burn, 5.0, 0.1);
  EXPECT_NEAR(status.slow_burn, 5.0, 0.1);
  EXPECT_TRUE(status.burning);
  EXPECT_NE(status.reason.find("demo-errors"), std::string::npos);
  EXPECT_NE(status.reason.find("burning"), std::string::npos);
}

TEST(SloEngineTest, MultiWindowGateSuppressesShortBlips) {
  MetricsTimeSeries store;
  // A 5-tick error blip at the very end: the fast 10s window sees a large
  // bad fraction, the slow 60s window dilutes it under the threshold — so
  // the alert must NOT fire.
  FillCounters(&store, 120, 115, 120, 5.0);
  SloStatus status = EvaluateObjective(store, ErrorObjective(), 119 * 1000);
  EXPECT_GE(status.fast_burn, 2.0) << "fast window reacts";
  EXPECT_LT(status.slow_burn, 2.0) << "slow window suppresses";
  EXPECT_FALSE(status.burning);
}

TEST(SloEngineTest, LatencyQuantileKindJudgesViolatingFraction) {
  MetricsTimeSeries store;
  // p99 series at 1s cadence: under target for 60 ticks, then over target
  // for 60 ticks. In the last 10s window every sample violates.
  for (int i = 0; i < 120; ++i) {
    store.Append("lat.p99", i * 1000, i < 60 ? 5.0 : 50.0);
  }
  SloObjective slo;
  slo.name = "p99-under-10ms";
  slo.kind = SloKind::kLatencyQuantile;
  slo.objective = 0.95;  // 5% budget
  slo.series = "lat.p99";
  slo.latency_target_ms = 10.0;
  slo.fast_window_ms = 10 * 1000.0;
  slo.slow_window_ms = 120 * 1000.0;
  slo.burn_threshold = 5.0;
  SloStatus status = EvaluateObjective(store, slo, 119 * 1000);
  // Fast window: 100% violating / 5% budget = 20x.
  EXPECT_NEAR(status.fast_burn, 20.0, 0.5);
  // Slow window: ~half violating / 5% budget = ~10x.
  EXPECT_NEAR(status.slow_burn, 10.0, 1.0);
  EXPECT_TRUE(status.burning);
}

TEST(SloEngineTest, NoHistoryMeansNoBurn) {
  MetricsTimeSeries store;
  SloStatus status = EvaluateObjective(store, ErrorObjective(), 1000);
  EXPECT_FALSE(status.burning) << "an empty store is silence, not fire";
}

TEST(SloEngineTest, BreachEdgesFireHookOnceAndCountTransitions) {
  MetricsTimeSeries store;
  MetricsRegistry registry;
  SloObjective slo = ErrorObjective();
  StatsReporter reporter(&registry, {}, {slo}, &store);
  // The snapshot hook is the breach feed: each edge is marked in exactly
  // one snapshot.
  std::vector<std::string> hook_reasons;
  reporter.SetSnapshotHook([&hook_reasons](const HealthSnapshot& snapshot) {
    for (const SloStatus& status : snapshot.slo) {
      if (status.breached) hook_reasons.push_back(status.reason);
    }
  });

  // Quiet -> no hook, gauge 0.
  FillCounters(&store, 30, 0, 0, 0.0);
  store.MarkScraped(29 * 1000);
  reporter.SnapshotNow();
  EXPECT_TRUE(hook_reasons.empty());
  EXPECT_EQ(registry.GetGauge("slo.burning")->value(), 0);

  // Burning: one edge, one hook call, counter 1, gauge 1 — and a repeat
  // judgement while still burning does NOT re-fire the hook.
  FillCounters(&store, 90, 0, 90, 5.0, 30 * 1000);
  store.MarkScraped(119 * 1000);
  reporter.SnapshotNow();
  store.MarkScraped(119 * 1000 + 1);
  reporter.SnapshotNow();
  ASSERT_EQ(hook_reasons.size(), 1u);
  EXPECT_NE(hook_reasons[0].find("demo-errors"), std::string::npos);
  EXPECT_EQ(registry.GetCounter("slo.breach_transitions_total")->value(), 1u);
  EXPECT_EQ(registry.GetGauge("slo.burning")->value(), 1);
  ASSERT_EQ(reporter.Latest().slo.size(), 1u);
  EXPECT_TRUE(reporter.Latest().slo[0].burning);

  // Recovery clears the edge state: a second breach fires the hook again.
  FillCounters(&store, 300, 0, 0, 0.0, 120 * 1000);
  store.MarkScraped(419 * 1000);
  reporter.SnapshotNow();
  EXPECT_EQ(registry.GetGauge("slo.burning")->value(), 0);
  FillCounters(&store, 90, 0, 90, 5.0, 420 * 1000);
  store.MarkScraped(509 * 1000);
  reporter.SnapshotNow();
  EXPECT_EQ(hook_reasons.size(), 2u);
  EXPECT_EQ(registry.GetCounter("slo.breach_transitions_total")->value(), 2u);
}

TEST(SloReporterTest, NoNewerScrapeMeansNoNewJudgement) {
  MetricsTimeSeries store;
  MetricsRegistry registry;
  StatsReporter reporter(&registry, {}, {ErrorObjective()}, &store);
  FillCounters(&store, 120, 0, 120, 5.0);
  EXPECT_TRUE(reporter.SnapshotNow().slo.empty()) << "no scrape yet";

  store.MarkScraped(119 * 1000);
  const HealthSnapshot first = reporter.SnapshotNow();
  ASSERT_EQ(first.slo.size(), 1u);
  EXPECT_TRUE(first.slo[0].burning);
  EXPECT_TRUE(first.slo[0].breached);
  EXPECT_EQ(first.level, HealthLevel::kDegraded);

  // The history moves on to a quiet stretch, but no scrape marks it
  // complete: the next snapshot keeps every status, gauge and counter.
  FillCounters(&store, 300, 0, 0, 0.0, 120 * 1000);
  const HealthSnapshot second = reporter.SnapshotNow();
  ASSERT_EQ(second.slo.size(), 1u);
  EXPECT_EQ(second.slo[0].fast_burn, first.slo[0].fast_burn);
  EXPECT_EQ(second.slo[0].slow_burn, first.slo[0].slow_burn);
  EXPECT_TRUE(second.slo[0].burning);
  EXPECT_EQ(second.slo[0].reason, first.slo[0].reason);
  EXPECT_FALSE(second.slo[0].breached) << "an edge is carried once";
  EXPECT_EQ(second.level, HealthLevel::kDegraded);
  EXPECT_EQ(registry.GetGauge("slo.burning")->value(), 1);
  EXPECT_EQ(registry.GetCounter("slo.breach_transitions_total")->value(), 1u);

  // The scrape that completes the quiet stretch is judged.
  store.MarkScraped(419 * 1000);
  const HealthSnapshot third = reporter.SnapshotNow();
  ASSERT_EQ(third.slo.size(), 1u);
  EXPECT_FALSE(third.slo[0].burning);
  EXPECT_EQ(third.level, HealthLevel::kOk);
  EXPECT_EQ(registry.GetGauge("slo.burning")->value(), 0);
}

TEST(SloEngineTest, KindNames) {
  EXPECT_STREQ(SloKindName(SloKind::kLatencyQuantile), "latency_quantile");
  EXPECT_STREQ(SloKindName(SloKind::kErrorRatio), "error_ratio");
  EXPECT_STREQ(SloKindName(SloKind::kAvailability), "availability");
}

TEST(SloFamilyTest, ExpositionIsFamilyMajorWithObjectiveLabels) {
  std::vector<SloStatus> statuses(2);
  statuses[0].name = "a";
  statuses[0].objective = 0.999;
  statuses[0].fast_burn = 1.5;
  statuses[0].slow_burn = 0.5;
  statuses[1].name = "b";
  statuses[1].objective = 0.9;
  statuses[1].fast_burn = 20.0;
  statuses[1].slow_burn = 16.0;
  statuses[1].burning = true;

  std::string out;
  AppendSloFamily(&out, statuses);
  // Family-major: one # TYPE header per family, both objectives under it.
  EXPECT_NE(out.find("# TYPE aims_slo_objective gauge\n"
                     "aims_slo_objective{objective=\"a\"} 0.999\n"
                     "aims_slo_objective{objective=\"b\"} 0.9\n"),
            std::string::npos)
      << out;
  EXPECT_NE(out.find("aims_slo_burn_rate_fast{objective=\"b\"} 20"),
            std::string::npos);
  EXPECT_NE(out.find("aims_slo_burn_rate_slow{objective=\"a\"} 0.5"),
            std::string::npos);
  EXPECT_NE(out.find("aims_slo_burning{objective=\"a\"} 0"),
            std::string::npos);
  EXPECT_NE(out.find("aims_slo_burning{objective=\"b\"} 1"),
            std::string::npos);

  // Empty statuses: no family at all (matches the /metrics gating).
  std::string empty;
  AppendSloFamily(&empty, {});
  EXPECT_TRUE(empty.empty());

  // The extended exporter appends the family after the base exposition.
  MetricsRegistry registry;
  const std::string exposition = PrometheusExport(
      registry, nullptr, nullptr, nullptr, nullptr, nullptr, &statuses);
  EXPECT_NE(exposition.find("aims_slo_burning{objective=\"b\"} 1"),
            std::string::npos);
  EXPECT_EQ(PrometheusExport(registry).find("aims_slo_"), std::string::npos);
}

TEST(SloFamilyTest, HostileObjectiveNamesAreEscapedInLabelValues) {
  // An operator-configured name carrying quote/backslash/newline must not
  // corrupt the exposition — one bad label value would break every family
  // parsed after it.
  std::vector<SloStatus> statuses(1);
  statuses[0].name = "api \"p99\" \\ two\nlines";
  statuses[0].objective = 0.99;

  std::string out;
  AppendSloFamily(&out, statuses);
  EXPECT_NE(out.find("aims_slo_objective{objective="
                     "\"api \\\"p99\\\" \\\\ two\\nlines\"} 0.99\n"),
            std::string::npos)
      << out;
  // No raw newline or unescaped quote survives inside a label value: every
  // line is either a # TYPE header or "<name>{objective=...} <value>".
  size_t start = 0;
  while (start < out.size()) {
    size_t nl = out.find('\n', start);
    ASSERT_NE(nl, std::string::npos);
    const std::string line = out.substr(start, nl - start);
    EXPECT_TRUE(line.rfind("# TYPE ", 0) == 0 ||
                line.find("{objective=\"") != std::string::npos)
        << "corrupted exposition line: " << line;
    start = nl + 1;
  }
}

// ---- The full chain on a live server --------------------------------------

TEST(SloServerChainTest, ForcedBurnDegradesHealthExportsAndEmbedsHistory) {
  server::ServerConfig config;
  config.num_shards = 1;
  config.num_threads = 1;
  SloObjective slo = ErrorObjective();
  config.obs.slos = {slo};
  server::AimsServer server(config);
  ASSERT_NE(server.metrics_history(), nullptr);
  ASSERT_NE(server.metrics_scraper(), nullptr);

  // Drive the scraper on a deterministic cadence anchored near the wall
  // clock (the flight recorder's history embed queries a real-now window).
  const int64_t real_now =
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::system_clock::now().time_since_epoch())
          .count();
  const int64_t t0 = real_now - 70 * 1000;
  Counter* ops = server.metrics().GetCounter("test.ops");
  Counter* errs = server.metrics().GetCounter("test.errs");
  for (int i = 0; i < 70; ++i) {
    ops->Increment(10);
    errs->Increment(5);  // 50% errors: burn 5x a 10% budget
    server.metrics_scraper()->ScrapeOnce(t0 + i * 1000);
  }

  // 1. The reporter judged the burn as of the newest scrape.
  auto health = server.GetHealth({/*force_refresh=*/true});
  ASSERT_TRUE(health.ok());
  const std::vector<SloStatus> latest = health->health.slo;
  ASSERT_EQ(latest.size(), 1u);
  EXPECT_TRUE(latest[0].burning);

  // 2. Health: Degraded with the SLO reason, through the typed API.
  EXPECT_GE(health->health.level, HealthLevel::kDegraded);
  bool slo_reason = false;
  for (const std::string& reason : health->health.reasons) {
    if (reason.find("SLO demo-errors") != std::string::npos) slo_reason = true;
  }
  EXPECT_TRUE(slo_reason) << "health reasons must name the burning SLO";

  // 3. Exposition: the aims_slo_* family carries the burn.
  const std::string exposition =
      PrometheusExport(server.metrics(), nullptr, nullptr, nullptr, nullptr,
                       nullptr, &latest);
  EXPECT_NE(exposition.find("aims_slo_burning{objective=\"demo-errors\"} 1"),
            std::string::npos);
  EXPECT_NE(exposition.find("aims_slo_burn_rate_fast{objective=\"demo-errors\"}"),
            std::string::npos);
  // The reporter also published its registry metrics.
  EXPECT_NE(exposition.find("aims_slo_breach_transitions_total 1"),
            std::string::npos);

  // 4. The typed range query sees the scraped history.
  server::QueryMetricsHistoryRequest range;
  range.series = "test.errs";
  range.func = RangeFunc::kRate;
  range.start_ms = t0 + 10 * 1000;
  range.end_ms = t0 + 69 * 1000;
  range.step_ms = 10 * 1000;
  auto ranged = server.QueryMetricsHistory(range);
  ASSERT_TRUE(ranged.ok());
  EXPECT_FALSE(ranged->points.empty());
  for (const RangePoint& point : ranged->points) {
    EXPECT_NEAR(point.value, 5.0, 0.5) << "5 errors/s throughout";
  }

  // 5. The flight-record bundle embeds the SLO statuses AND the burning
  // series' recent history window.
  auto dump = server.DumpFlightRecord({"slo test", /*write_file=*/false});
  ASSERT_TRUE(dump.ok());
  const std::string& bundle = dump->bundle_json;
  EXPECT_NE(bundle.find("\"slo\":["), std::string::npos);
  EXPECT_NE(bundle.find("\"name\":\"demo-errors\""), std::string::npos);
  EXPECT_NE(bundle.find("\"burning\":true"), std::string::npos);
  EXPECT_NE(bundle.find("\"slo_history\":["), std::string::npos);
  const size_t history_at = bundle.find("\"slo_history\":[");
  EXPECT_NE(bundle.find("\"series\":\"test.errs\"", history_at),
            std::string::npos)
      << "the bundle embeds the burning series";
  EXPECT_NE(bundle.find("\"samples\":[[", history_at), std::string::npos)
      << "with actual samples";
  // The breach event landed in the recorder's event ring (the reason also
  // appears in the health entries, so look inside "events" only).
  const size_t events_at = bundle.find("\"events\":[");
  ASSERT_NE(events_at, std::string::npos);
  EXPECT_LT(bundle.find("SLO demo-errors burning", events_at),
            bundle.find("],\"wal\":", events_at));

  server.Shutdown();
}

TEST(SloServerChainTest, HistoryDisabledMeansNoScraperAndTypedErrors) {
  server::ServerConfig config;
  config.num_shards = 1;
  config.num_threads = 1;
  config.obs.enable_metrics_history = false;
  config.obs.slos = {ErrorObjective()};
  server::AimsServer server(config);
  EXPECT_EQ(server.metrics_history(), nullptr);
  EXPECT_EQ(server.metrics_scraper(), nullptr);
  auto health = server.GetHealth({/*force_refresh=*/true});
  ASSERT_TRUE(health.ok());
  EXPECT_TRUE(health->health.slo.empty()) << "objectives need the history";
  auto ranged = server.QueryMetricsHistory({});
  ASSERT_FALSE(ranged.ok());
  EXPECT_EQ(ranged.status().code(), StatusCode::kFailedPrecondition);
}

}  // namespace
}  // namespace aims::obs
