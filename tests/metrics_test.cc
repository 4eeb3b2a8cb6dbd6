#include "obs/metrics.h"

#include <cstdint>
#include <limits>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

namespace aims::obs {
namespace {

TEST(CounterTest, IncrementAndValue) {
  Counter c;
  EXPECT_EQ(c.value(), 0u);
  c.Increment();
  c.Increment(41);
  EXPECT_EQ(c.value(), 42u);
}

TEST(CounterTest, OverflowWrapsModulo2To64) {
  Counter c;
  c.Increment(std::numeric_limits<uint64_t>::max());
  EXPECT_EQ(c.value(), std::numeric_limits<uint64_t>::max());
  // One more wraps to zero; rate-as-delta consumers stay correct.
  c.Increment();
  EXPECT_EQ(c.value(), 0u);
  c.Increment(5);
  EXPECT_EQ(c.value(), 5u);
}

TEST(CounterTest, ConcurrentIncrementsAllLand) {
  Counter c;
  constexpr int kThreads = 4;
  constexpr int kPerThread = 10000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&c] {
      for (int i = 0; i < kPerThread; ++i) c.Increment();
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(c.value(), static_cast<uint64_t>(kThreads) * kPerThread);
}

TEST(GaugeTest, SetAddAndHighWaterMark) {
  Gauge g;
  g.Set(3);
  EXPECT_EQ(g.value(), 3);
  g.Add(-5);
  EXPECT_EQ(g.value(), -2);
  g.AddTracked(10);
  EXPECT_EQ(g.value(), 8);
  EXPECT_EQ(g.max(), 8);
  g.AddTracked(-4);
  g.AddTracked(2);
  EXPECT_EQ(g.value(), 6);
  EXPECT_EQ(g.max(), 8);  // High-water mark is monotonic.
}

TEST(HistogramTest, BucketingHonorsInclusiveUpperBounds) {
  Histogram h({1.0, 2.0, 4.0});
  ASSERT_EQ(h.num_buckets(), 4u);  // Three finite buckets plus +inf.
  h.Record(0.5);   // -> bucket 0 (<= 1)
  h.Record(1.0);   // -> bucket 0 (inclusive bound)
  h.Record(1.5);   // -> bucket 1
  h.Record(4.0);   // -> bucket 2
  h.Record(100.0); // -> bucket 3 (+inf)
  EXPECT_EQ(h.bucket_count(0), 2u);
  EXPECT_EQ(h.bucket_count(1), 1u);
  EXPECT_EQ(h.bucket_count(2), 1u);
  EXPECT_EQ(h.bucket_count(3), 1u);
  EXPECT_EQ(h.count(), 5u);
  EXPECT_DOUBLE_EQ(h.sum(), 0.5 + 1.0 + 1.5 + 4.0 + 100.0);
  EXPECT_DOUBLE_EQ(h.mean(), h.sum() / 5.0);
}

TEST(HistogramTest, EmptyBoundsSingleInfBucket) {
  Histogram h({});
  h.Record(123.0);
  EXPECT_EQ(h.num_buckets(), 1u);
  EXPECT_EQ(h.bucket_count(0), 1u);
  EXPECT_EQ(h.count(), 1u);
}

TEST(HistogramTest, ApproxQuantileInterpolatesWithinBucket) {
  Histogram h({10.0, 20.0, 30.0});
  // 10 observations uniformly in (0, 10]: the p50 estimate must land
  // mid-bucket, p100 at the bucket edge.
  for (int i = 1; i <= 10; ++i) h.Record(static_cast<double>(i));
  EXPECT_NEAR(h.ApproxQuantile(0.5), 5.0, 1e-9);
  EXPECT_NEAR(h.ApproxQuantile(1.0), 10.0, 1e-9);
  EXPECT_NEAR(h.ApproxQuantile(0.0), 0.0, 1e-9);
  // Add 10 in (10, 20]: p75 sits in the second bucket.
  for (int i = 11; i <= 20; ++i) h.Record(static_cast<double>(i));
  EXPECT_NEAR(h.ApproxQuantile(0.75), 15.0, 1e-9);
}

TEST(HistogramTest, QuantileOfEmptyIsZero) {
  Histogram h({1.0});
  EXPECT_DOUBLE_EQ(h.ApproxQuantile(0.5), 0.0);
}

TEST(HistogramTest, InfBucketReportsLastFiniteBound) {
  Histogram h({1.0, 2.0});
  h.Record(50.0);
  h.Record(60.0);
  EXPECT_DOUBLE_EQ(h.ApproxQuantile(0.99), 2.0);
}

TEST(HistogramTest, ConcurrentRecordsAllCounted) {
  Histogram h(MetricsRegistry::DefaultLatencyBoundsMs());
  constexpr int kThreads = 4;
  constexpr int kPerThread = 5000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&h, t] {
      for (int i = 0; i < kPerThread; ++i) {
        h.Record(static_cast<double>((t * kPerThread + i) % 100));
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(h.count(), static_cast<uint64_t>(kThreads) * kPerThread);
  uint64_t bucket_total = 0;
  for (size_t i = 0; i < h.num_buckets(); ++i) bucket_total += h.bucket_count(i);
  EXPECT_EQ(bucket_total, h.count());
}

TEST(MetricsRegistryTest, SameNameSameObject) {
  MetricsRegistry registry;
  Counter* a = registry.GetCounter("x");
  Counter* b = registry.GetCounter("x");
  EXPECT_EQ(a, b);
  a->Increment();
  EXPECT_EQ(b->value(), 1u);
  EXPECT_NE(static_cast<void*>(registry.GetGauge("x")),
            static_cast<void*>(a));  // Kinds have separate namespaces.
  Histogram* h1 = registry.GetHistogram("lat", {1.0, 2.0});
  Histogram* h2 = registry.GetHistogram("lat", {99.0});
  EXPECT_EQ(h1, h2);  // First registration's bounds win.
  EXPECT_EQ(h1->upper_bounds(), (std::vector<double>{1.0, 2.0}));
}

TEST(MetricsRegistryTest, DumpTextListsEverything) {
  MetricsRegistry registry;
  registry.GetCounter("reqs")->Increment(7);
  registry.GetGauge("depth")->AddTracked(3);
  registry.GetHistogram("lat_ms", {1.0, 10.0})->Record(0.5);
  std::string dump = registry.DumpText();
  EXPECT_NE(dump.find("counter reqs 7"), std::string::npos);
  EXPECT_NE(dump.find("gauge depth 3 max 3"), std::string::npos);
  EXPECT_NE(dump.find("histogram lat_ms count 1"), std::string::npos);
}

TEST(MetricsRegistryTest, DefaultLatencyBoundsAreAscending) {
  std::vector<double> bounds = MetricsRegistry::DefaultLatencyBoundsMs();
  ASSERT_FALSE(bounds.empty());
  EXPECT_DOUBLE_EQ(bounds.front(), 0.25);
  for (size_t i = 1; i < bounds.size(); ++i) {
    EXPECT_GT(bounds[i], bounds[i - 1]);
  }
  EXPECT_DOUBLE_EQ(bounds.back(), 4096.0);
}

TEST(MetricsRegistryTest, ConcurrentRegistrationIsSafe) {
  MetricsRegistry registry;
  std::vector<std::thread> threads;
  std::vector<Counter*> seen(4, nullptr);
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&registry, &seen, t] {
      Counter* c = registry.GetCounter("shared");
      c->Increment();
      seen[static_cast<size_t>(t)] = c;
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(seen[0]->value(), 4u);
  for (Counter* c : seen) EXPECT_EQ(c, seen[0]);
}

}  // namespace
}  // namespace aims::obs
