#include <algorithm>
#include <atomic>
#include <cmath>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "obs/metrics.h"
#include "obs/timeseries.h"

/// \file timeseries_test.cc
/// \brief The metrics-history contracts: the store rotates active chunks
/// into sealed Gorilla blocks and applies both retention policies (age on
/// a chunk's newest sample, size on the stripe's compressed budget);
/// out-of-order appends are dropped and counted, never encoded; queries
/// stitch sealed chunks and the active chunk into one time-ordered answer
/// under concurrent appends; the range-query engine evaluates step windows
/// with Prometheus semantics (empty windows omitted, rate() reset-safe);
/// and the scraper lands every registry metric — and the process gauges —
/// in the store with one deterministic timestamp per scrape.

namespace aims::obs {
namespace {

// A store with one stripe makes retention arithmetic exact in tests.
MetricsTimeSeriesConfig SmallConfig() {
  MetricsTimeSeriesConfig config;
  config.chunk_max_samples = 8;
  config.retention_ms = 0.0;       // policies enabled per test
  config.max_bytes_per_stripe = 0;
  config.stripes = 1;
  return config;
}

TEST(MetricsTimeSeriesTest, AppendAndQueryBasic) {
  MetricsTimeSeries store(SmallConfig());
  for (int i = 0; i < 5; ++i) {
    store.Append("cpu", 1000 + i * 1000, static_cast<double>(i));
  }
  std::vector<gorilla::Sample> all = store.Query("cpu", 0, 10000);
  ASSERT_EQ(all.size(), 5u);
  for (size_t i = 0; i < all.size(); ++i) {
    EXPECT_EQ(all[i].t_ms, 1000 + static_cast<int64_t>(i) * 1000);
    EXPECT_EQ(all[i].value, static_cast<double>(i));
  }
  // Sub-range is inclusive on both ends.
  EXPECT_EQ(store.Query("cpu", 2000, 4000).size(), 3u);
  // Unknown series: empty, not an error.
  EXPECT_TRUE(store.Query("nope", 0, 10000).empty());
}

TEST(MetricsTimeSeriesTest, SealsChunksAndQueriesAcrossTheSeam) {
  MetricsTimeSeries store(SmallConfig());  // seals every 8 samples
  for (int i = 0; i < 20; ++i) {
    store.Append("s", i * 100, static_cast<double>(i * i));
  }
  TimeSeriesStats stats = store.Stats();
  EXPECT_EQ(stats.series, 1u);
  EXPECT_EQ(stats.samples_appended, 20u);
  EXPECT_EQ(stats.samples_retained, 20u);
  EXPECT_EQ(stats.sealed_chunks, 2u);  // 8 + 8 sealed, 4 active

  // The query stitches both sealed chunks and the active chunk.
  std::vector<gorilla::Sample> all = store.Query("s", 0, 100000);
  ASSERT_EQ(all.size(), 20u);
  for (size_t i = 0; i < all.size(); ++i) {
    EXPECT_EQ(all[i].value, static_cast<double>(i * i));
  }
  // A range straddling the sealed/active seam.
  std::vector<gorilla::Sample> seam = store.Query("s", 1400, 1800);
  ASSERT_EQ(seam.size(), 5u);
  EXPECT_EQ(seam.front().t_ms, 1400);
  EXPECT_EQ(seam.back().t_ms, 1800);
}

TEST(MetricsTimeSeriesTest, OutOfOrderAppendsAreDroppedAndCounted) {
  MetricsTimeSeries store(SmallConfig());
  store.Append("s", 1000, 1.0);
  store.Append("s", 1000, 2.0);  // same timestamp: dropped
  store.Append("s", 500, 3.0);   // backwards: dropped
  store.Append("s", 2000, 4.0);
  std::vector<gorilla::Sample> all = store.Query("s", 0, 10000);
  ASSERT_EQ(all.size(), 2u);
  EXPECT_EQ(all[0].value, 1.0);
  EXPECT_EQ(all[1].value, 4.0);
  EXPECT_EQ(store.Stats().out_of_order_dropped, 2u);
}

TEST(MetricsTimeSeriesTest, AgeRetentionDropsChunksWhoseNewestSampleExpired) {
  MetricsTimeSeriesConfig config = SmallConfig();
  config.retention_ms = 2000.0;
  MetricsTimeSeries store(config);
  // 32 samples at 100ms cadence: by the last seal (t=3100), chunks whose
  // end_ms < 1100 have fallen out of the 2s window.
  for (int i = 0; i < 32; ++i) {
    store.Append("s", i * 100, static_cast<double>(i));
  }
  TimeSeriesStats stats = store.Stats();
  EXPECT_GT(stats.chunks_dropped_age, 0u);
  EXPECT_LT(stats.samples_retained, stats.samples_appended);
  // Old samples are really gone; recent ones survive.
  EXPECT_TRUE(store.Query("s", 0, 700).empty());
  EXPECT_FALSE(store.Query("s", 3000, 3100).empty());
}

TEST(MetricsTimeSeriesTest, QuietSeriesChunksExpireWithoutASeal) {
  MetricsTimeSeriesConfig config = SmallConfig();
  config.retention_ms = 1000.0;
  MetricsTimeSeries store(config);
  // Two sealed "quiet" chunks (t=0..1500), then the series goes silent.
  for (int i = 0; i < 16; ++i) {
    store.Append("quiet", i * 100, static_cast<double>(i));
  }
  ASSERT_FALSE(store.Query("quiet", 0, 1500).empty());
  // Neighbours keep appending far in the future but never fill a chunk
  // (three samples per series), so no append ever seals. The periodic
  // sweep must still expire quiet's sealed chunks.
  for (int k = 0; k < 32; ++k) {
    const std::string series = "busy" + std::to_string(k);
    for (int j = 0; j < 3; ++j) {
      store.Append(series, 10000 + j * 100, static_cast<double>(j));
    }
  }
  EXPECT_TRUE(store.Query("quiet", 0, 10000).empty())
      << "sealed chunks outlived retention with no seal to trigger a sweep";
  EXPECT_GT(store.Stats().chunks_dropped_age, 0u);
}

TEST(MetricsTimeSeriesTest, SizeRetentionDropsTheOldestSealedChunkFirst) {
  MetricsTimeSeriesConfig config = SmallConfig();
  // A few sealed chunks at most — but comfortably more than one chunk of
  // incompressible values, so the newest chunk always fits the budget.
  config.max_bytes_per_stripe = 256;
  MetricsTimeSeries store(config);
  // Random-ish values compress poorly, forcing the budget to bite.
  for (int i = 0; i < 200; ++i) {
    store.Append("a", i * 100, std::sin(i * 12.9898) * 43758.5453);
  }
  TimeSeriesStats stats = store.Stats();
  EXPECT_GT(stats.chunks_dropped_size, 0u);
  // The newest data always survives (drops take the oldest chunk).
  EXPECT_FALSE(store.Query("a", 19800, 19900).empty());
  EXPECT_TRUE(store.Query("a", 0, 100).empty());
}

TEST(MetricsTimeSeriesTest, SteadySeriesReportEightFoldCompression) {
  MetricsTimeSeriesConfig config = SmallConfig();
  config.chunk_max_samples = 240;
  MetricsTimeSeries store(config);
  for (int i = 0; i < 960; ++i) {
    store.Append("gauge", i * 1000, 100.0 + (i % 3));
  }
  TimeSeriesStats stats = store.Stats();
  EXPECT_EQ(stats.samples_retained, 960u);
  EXPECT_GE(stats.compression_ratio, 8.0)
      << "steady cadence must compress 8x, got " << stats.compression_ratio;
}

TEST(MetricsTimeSeriesTest, SeriesNamesAreSortedAcrossStripes) {
  MetricsTimeSeriesConfig config;
  config.stripes = 4;
  MetricsTimeSeries store(config);
  for (const char* name : {"zeta", "alpha", "mid.series", "beta"}) {
    store.Append(name, 1000, 1.0);
  }
  std::vector<std::string> names = store.SeriesNames();
  ASSERT_EQ(names.size(), 4u);
  EXPECT_EQ(names[0], "alpha");
  EXPECT_EQ(names[1], "beta");
  EXPECT_EQ(names[2], "mid.series");
  EXPECT_EQ(names[3], "zeta");
}

TEST(MetricsTimeSeriesTest, ConcurrentAppendAndQueryKeepSamplesOrdered) {
  // TSan food: writers on distinct series race readers over the whole
  // store; every answer must be time-ordered and internally consistent.
  MetricsTimeSeriesConfig config;
  config.chunk_max_samples = 16;
  config.stripes = 4;
  MetricsTimeSeries store(config);
  constexpr int kWriters = 4;
  constexpr int kSamples = 2000;
  std::atomic<bool> stop{false};
  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&store, w] {
      const std::string series = "w" + std::to_string(w);
      for (int i = 0; i < kSamples; ++i) {
        store.Append(series, i * 10, static_cast<double>(i));
      }
    });
  }
  std::thread reader([&store, &stop] {
    while (!stop.load(std::memory_order_relaxed)) {
      for (int w = 0; w < kWriters; ++w) {
        std::vector<gorilla::Sample> got =
            store.Query("w" + std::to_string(w), 0, kSamples * 10);
        for (size_t i = 1; i < got.size(); ++i) {
          ASSERT_LT(got[i - 1].t_ms, got[i].t_ms);
          ASSERT_EQ(got[i].value, static_cast<double>(got[i].t_ms / 10));
        }
      }
    }
  });
  for (std::thread& t : writers) t.join();
  stop.store(true, std::memory_order_relaxed);
  reader.join();
  EXPECT_EQ(store.Stats().samples_appended,
            static_cast<uint64_t>(kWriters) * kSamples);
}

// ---- Range queries --------------------------------------------------------

MetricsTimeSeries MakeRampStore() {
  // t = 1000..10000 at 1s cadence, value = t/1000 (1..10).
  MetricsTimeSeries store(SmallConfig());
  for (int i = 1; i <= 10; ++i) {
    store.Append("ramp", i * 1000, static_cast<double>(i));
  }
  return store;
}

TEST(RangeQueryTest, AvgMinMaxLastOverAlignedWindows) {
  MetricsTimeSeries store = MakeRampStore();
  RangeQuery query;
  query.series = "ramp";
  query.start_ms = 2000;
  query.end_ms = 10000;
  query.step_ms = 2000;  // windows (0,2k], (2k,4k], ... (8k,10k]

  query.func = RangeFunc::kAvg;
  auto avg = EvaluateRangeQuery(store, query);
  ASSERT_TRUE(avg.ok());
  ASSERT_EQ(avg->size(), 5u);
  EXPECT_EQ((*avg)[0].t_ms, 2000);
  EXPECT_DOUBLE_EQ((*avg)[0].value, 1.5);   // {1,2}
  EXPECT_DOUBLE_EQ((*avg)[4].value, 9.5);   // {9,10}

  query.func = RangeFunc::kMin;
  auto mins = EvaluateRangeQuery(store, query);
  ASSERT_TRUE(mins.ok());
  EXPECT_DOUBLE_EQ((*mins)[1].value, 3.0);  // window (2k,4k] = {3,4}

  query.func = RangeFunc::kMax;
  auto maxs = EvaluateRangeQuery(store, query);
  ASSERT_TRUE(maxs.ok());
  EXPECT_DOUBLE_EQ((*maxs)[1].value, 4.0);

  query.func = RangeFunc::kLast;
  auto lasts = EvaluateRangeQuery(store, query);
  ASSERT_TRUE(lasts.ok());
  EXPECT_DOUBLE_EQ((*lasts)[2].value, 6.0);  // window (4k,6k] = {5,6}
}

TEST(RangeQueryTest, EmptyWindowsProduceNoPoints) {
  MetricsTimeSeries store(SmallConfig());
  store.Append("gap", 1000, 1.0);
  store.Append("gap", 9000, 9.0);
  RangeQuery query;
  query.series = "gap";
  query.start_ms = 1000;
  query.end_ms = 9000;
  query.step_ms = 1000;
  auto points = EvaluateRangeQuery(store, query);
  ASSERT_TRUE(points.ok());
  // Only the two windows holding a sample produce points — Prometheus
  // matrix semantics, not zero-filled buckets.
  ASSERT_EQ(points->size(), 2u);
  EXPECT_EQ((*points)[0].t_ms, 1000);
  EXPECT_EQ((*points)[1].t_ms, 9000);
}

TEST(RangeQueryTest, RateIsResetSafeAndPerSecond) {
  MetricsTimeSeries store(SmallConfig());
  // A counter that climbs, restarts (process restart), climbs again:
  // 0,10,20,5,15 at 1s cadence. Increase = 10+10+5+10 = 35 over 4s.
  const double values[] = {0, 10, 20, 5, 15};
  for (int i = 0; i < 5; ++i) store.Append("ctr", 1000 + i * 1000, values[i]);

  RangeQuery query;
  query.series = "ctr";
  query.func = RangeFunc::kRate;
  query.start_ms = 5000;
  query.end_ms = 5000;
  query.step_ms = 5000;  // one window (0,5000] with all five samples
  auto rate = EvaluateRangeQuery(store, query);
  ASSERT_TRUE(rate.ok());
  ASSERT_EQ(rate->size(), 1u);
  EXPECT_DOUBLE_EQ((*rate)[0].value, 35.0 / 4.0);

  // IncreaseOver is the same math without the windowing.
  EXPECT_DOUBLE_EQ(IncreaseOver(store, "ctr", 0, 10000), 35.0);
  EXPECT_DOUBLE_EQ(IncreaseOver(store, "missing", 0, 10000), 0.0);

  // A single-sample window has no rate: the point is omitted.
  query.start_ms = 1000;
  query.end_ms = 1000;
  query.step_ms = 500;
  auto single = EvaluateRangeQuery(store, query);
  ASSERT_TRUE(single.ok());
  EXPECT_TRUE(single->empty());
}

TEST(RangeQueryTest, DeltaAndQuantileOverTime) {
  MetricsTimeSeries store = MakeRampStore();
  RangeQuery query;
  query.series = "ramp";
  query.start_ms = 10000;
  query.end_ms = 10000;
  query.step_ms = 10000;  // one window with samples 1..10

  query.func = RangeFunc::kDelta;
  auto delta = EvaluateRangeQuery(store, query);
  ASSERT_TRUE(delta.ok());
  ASSERT_EQ(delta->size(), 1u);
  EXPECT_DOUBLE_EQ((*delta)[0].value, 9.0);  // 10 - 1

  query.func = RangeFunc::kQuantile;
  query.quantile = 0.5;
  auto median = EvaluateRangeQuery(store, query);
  ASSERT_TRUE(median.ok());
  ASSERT_EQ(median->size(), 1u);
  EXPECT_DOUBLE_EQ((*median)[0].value, 5.5);  // interpolated median of 1..10

  query.quantile = 1.0;
  EXPECT_DOUBLE_EQ((*EvaluateRangeQuery(store, query))[0].value, 10.0);
}

TEST(RangeQueryTest, QuantileOutsideTheUnitIntervalIsInvalid) {
  MetricsTimeSeries store = MakeRampStore();
  RangeQuery query;
  query.series = "ramp";
  query.start_ms = 10000;
  query.end_ms = 10000;
  query.step_ms = 10000;  // one window with samples 1..10
  query.func = RangeFunc::kQuantile;
  for (double bad : {std::nan(""), -0.1, 1.5, HUGE_VAL}) {
    query.quantile = bad;
    EXPECT_EQ(EvaluateRangeQuery(store, query).status().code(),
              StatusCode::kInvalidArgument)
        << bad;
  }
  query.quantile = 0.0;
  auto lowest = EvaluateRangeQuery(store, query);
  ASSERT_TRUE(lowest.ok());
  EXPECT_DOUBLE_EQ((*lowest)[0].value, 1.0);
  query.quantile = 1.0;
  auto highest = EvaluateRangeQuery(store, query);
  ASSERT_TRUE(highest.ok());
  EXPECT_DOUBLE_EQ((*highest)[0].value, 10.0);
}

TEST(RangeQueryTest, InvalidQueriesAreErrorsUnknownSeriesIsNot) {
  MetricsTimeSeries store = MakeRampStore();
  RangeQuery query;
  query.series = "ramp";
  query.start_ms = 1000;
  query.end_ms = 2000;
  query.step_ms = 0;
  EXPECT_FALSE(EvaluateRangeQuery(store, query).ok()) << "zero step";
  query.step_ms = -5;
  EXPECT_FALSE(EvaluateRangeQuery(store, query).ok()) << "negative step";
  query.step_ms = 1000;
  query.end_ms = 500;
  EXPECT_FALSE(EvaluateRangeQuery(store, query).ok()) << "inverted range";

  query.end_ms = 2000;
  query.series = "never.scraped";
  auto empty = EvaluateRangeQuery(store, query);
  ASSERT_TRUE(empty.ok()) << "absence of history is an answer";
  EXPECT_TRUE(empty->empty());
}

TEST(RangeQueryTest, DegenerateRangesAreRejectedBeforeEvaluation) {
  MetricsTimeSeries store = MakeRampStore();
  RangeQuery query;
  query.series = "ramp";
  // start/end/step arrive straight off an HTTP query string; a degenerate
  // pair must be rejected up front, not evaluated window by window.
  query.start_ms = 0;
  query.end_ms = kMaxRangeQueryTimestampMs;
  query.step_ms = 1;
  EXPECT_FALSE(EvaluateRangeQuery(store, query).ok()) << "~1e15 windows";

  // Exactly at the point cap works; one window more does not.
  query.step_ms = 1000;
  query.end_ms = (kMaxRangeQueryPoints - 1) * 1000;
  EXPECT_TRUE(EvaluateRangeQuery(store, query).ok());
  query.end_ms = kMaxRangeQueryPoints * 1000;
  EXPECT_FALSE(EvaluateRangeQuery(store, query).ok());

  // Timestamps or steps past the epoch-ms sanity bound are rejected
  // before any window arithmetic can overflow int64.
  query.end_ms = kMaxRangeQueryTimestampMs + 1;
  query.start_ms = query.end_ms - 1000;
  EXPECT_FALSE(EvaluateRangeQuery(store, query).ok()) << "end too large";
  query.start_ms = -(kMaxRangeQueryTimestampMs + 1);
  query.end_ms = 0;
  query.step_ms = kMaxRangeQueryTimestampMs;
  EXPECT_FALSE(EvaluateRangeQuery(store, query).ok()) << "start too small";
  query.start_ms = 0;
  query.end_ms = 1000;
  query.step_ms = kMaxRangeQueryTimestampMs + 1;
  EXPECT_FALSE(EvaluateRangeQuery(store, query).ok()) << "step too large";
}

TEST(RangeQueryTest, FuncNamesRoundTripThroughTheParser) {
  for (RangeFunc func :
       {RangeFunc::kAvg, RangeFunc::kMin, RangeFunc::kMax, RangeFunc::kLast,
        RangeFunc::kRate, RangeFunc::kDelta, RangeFunc::kQuantile}) {
    RangeFunc parsed;
    ASSERT_TRUE(ParseRangeFunc(RangeFuncName(func), &parsed))
        << RangeFuncName(func);
    EXPECT_EQ(parsed, func);
  }
  RangeFunc out;
  EXPECT_TRUE(ParseRangeFunc("rate", &out));
  EXPECT_TRUE(ParseRangeFunc("avg", &out));
  EXPECT_FALSE(ParseRangeFunc("irate", &out));
  EXPECT_FALSE(ParseRangeFunc("", &out));
}

// ---- Process stats + scraper ----------------------------------------------

TEST(ProcessStatsTest, LinuxSelfSampleIsPlausible) {
  ProcessStats stats = ReadProcessStats();
#if defined(__linux__)
  ASSERT_TRUE(stats.ok);
  EXPECT_GT(stats.rss_bytes, 0);
  EXPECT_GT(stats.open_fds, 0);
  EXPECT_GE(stats.cpu_seconds, 0.0);
#else
  EXPECT_FALSE(stats.ok) << "graceful no-op off Linux";
#endif
}

TEST(MetricsScraperTest, ScrapeOnceLandsEveryRegistryMetric) {
  MetricsRegistry registry;
  registry.GetCounter("req.count")->Increment(7);
  registry.GetGauge("queue.depth")->Set(3);
  Histogram* lat = registry.GetHistogram("lat.ms", {1.0, 2.0, 4.0});
  for (int i = 0; i < 10; ++i) lat->Record(1.5);

  MetricsTimeSeries store;
  MetricsScraper scraper(&registry, &store);
  EXPECT_EQ(store.last_scrape_ms(), 0) << "no scrape yet";

  EXPECT_EQ(scraper.ScrapeOnce(5000), 5000) << "at_ms overrides the clock";
  EXPECT_EQ(store.last_scrape_ms(), 5000) << "the store marks the scrape";
  EXPECT_EQ(scraper.scrapes(), 1u);

  auto last = [&store](const std::string& series) {
    std::vector<gorilla::Sample> got = store.Query(series, 0, 10000);
    return got.empty() ? -1.0 : got.back().value;
  };
  EXPECT_EQ(last("req.count"), 7.0);
  EXPECT_EQ(last("queue.depth"), 3.0);
  EXPECT_GT(last("lat.ms.p50"), 0.0);
  EXPECT_GT(last("lat.ms.p99"), 0.0);
  EXPECT_EQ(last("lat.ms.count"), 10.0);
#if defined(__linux__)
  EXPECT_GT(last("process.rss_bytes"), 0.0);
  EXPECT_GT(last("process.open_fds"), 0.0);
  EXPECT_GE(last("process.cpu_seconds_total"), 0.0);
#endif

  // A later scrape appends, an equal timestamp is swallowed by the store.
  registry.GetCounter("req.count")->Increment(3);
  scraper.ScrapeOnce(6000);
  EXPECT_EQ(last("req.count"), 10.0);
  EXPECT_EQ(store.Query("req.count", 0, 10000).size(), 2u);
}

TEST(MetricsScraperTest, ConcurrentScrapesNameLateHistogramsToo) {
  // The scraper names a histogram's series the first time it sees it; the
  // loop and direct callers may scrape at once, and a histogram registered
  // after scraping began still lands under its four names.
  MetricsRegistry registry;
  registry.GetHistogram("early.ms", {1.0, 2.0})->Record(1.5);
  MetricsTimeSeries store;
  MetricsScraperConfig config;
  config.include_process = false;
  MetricsScraper scraper(&registry, &store, config);
  scraper.Start(1.0);
  std::vector<std::thread> callers;
  for (int t = 0; t < 2; ++t) {
    callers.emplace_back([&] {
      for (int i = 0; i < 100; ++i) scraper.ScrapeOnce();
    });
  }
  registry.GetHistogram("late.ms", {1.0, 2.0})->Record(0.5);
  for (std::thread& caller : callers) caller.join();
  scraper.ScrapeOnce();
  scraper.Stop();
  EXPECT_GE(scraper.scrapes(), 201u);
  const std::vector<std::string> names = store.SeriesNames();
  for (const char* name :
       {"early.ms.p50", "early.ms.p95", "early.ms.p99", "early.ms.count",
        "late.ms.p50", "late.ms.p95", "late.ms.p99", "late.ms.count"}) {
    EXPECT_NE(std::find(names.begin(), names.end(), name), names.end())
        << name;
  }
}

TEST(MetricsScraperTest, ProcessSeriesCanBeDisabled) {
  MetricsRegistry registry;
  MetricsTimeSeries store;
  MetricsScraperConfig config;
  config.include_process = false;
  MetricsScraper scraper(&registry, &store, config);
  scraper.ScrapeOnce(1000);
  EXPECT_TRUE(store.Query("process.rss_bytes", 0, 10000).empty());
}

TEST(MetricsScraperTest, BackgroundThreadScrapesOnItsCadence) {
  MetricsRegistry registry;
  registry.GetCounter("tick")->Increment();
  MetricsTimeSeries store;
  MetricsScraper scraper(&registry, &store);
  EXPECT_FALSE(scraper.running());
  scraper.Start(2.0);
  EXPECT_TRUE(scraper.running());
  for (int i = 0; i < 500 && scraper.scrapes() < 3; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  EXPECT_GE(scraper.scrapes(), 3u);
  scraper.Stop();
  EXPECT_FALSE(scraper.running());
  scraper.Stop();  // idempotent
  const uint64_t at_stop = scraper.scrapes();
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  EXPECT_EQ(scraper.scrapes(), at_stop) << "thread really stopped";
  EXPECT_FALSE(store.Query("tick", 0, INT64_MAX).empty());
}

}  // namespace
}  // namespace aims::obs
