#include <cmath>
#include <cstring>
#include <limits>
#include <random>
#include <vector>

#include <gtest/gtest.h>

#include "common/gorilla.h"

/// \file gorilla_test.cc
/// \brief The Gorilla codec contract: every stream of (timestamp, value)
/// pairs round-trips bit-exactly — including NaN payloads, signed zeros,
/// and ±inf — whatever the cadence; steady telemetry-shaped series
/// compress at least 8x against the 16-byte raw encoding; and truncated
/// or short streams decode to InvalidArgument, never to garbage samples.

namespace aims::gorilla {
namespace {

uint64_t BitsOf(double v) {
  uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

std::vector<Sample> RoundTrip(const std::vector<Sample>& in) {
  GorillaEncoder enc;
  for (const Sample& s : in) enc.Append(s);
  EXPECT_EQ(enc.count(), in.size());
  Result<std::vector<Sample>> out = GorillaDecode(enc.bytes(), enc.count());
  EXPECT_TRUE(out.ok()) << out.status().message();
  return out.ok() ? *out : std::vector<Sample>{};
}

// Bit-exact comparison: NaN != NaN under operator==, and -0.0 == 0.0, so
// value identity must be judged on the raw IEEE-754 bit patterns.
void ExpectBitExact(const std::vector<Sample>& in,
                    const std::vector<Sample>& out) {
  ASSERT_EQ(out.size(), in.size());
  for (size_t i = 0; i < in.size(); ++i) {
    EXPECT_EQ(out[i].t_ms, in[i].t_ms) << "sample " << i;
    EXPECT_EQ(BitsOf(out[i].value), BitsOf(in[i].value)) << "sample " << i;
  }
}

TEST(GorillaTest, EmptyStreamRoundTrips) {
  GorillaEncoder enc;
  EXPECT_EQ(enc.count(), 0u);
  EXPECT_EQ(enc.size_bytes(), 0u);
  Result<std::vector<Sample>> out = GorillaDecode(enc.bytes(), 0);
  ASSERT_TRUE(out.ok());
  EXPECT_TRUE(out->empty());
}

TEST(GorillaTest, SingleSampleRoundTrips) {
  std::vector<Sample> in = {{1722470400000, 3.14159}};
  ExpectBitExact(in, RoundTrip(in));
}

TEST(GorillaTest, SteadyCadenceConstantValue) {
  // The telemetry fast path: fixed 1s cadence, unchanged gauge. Both the
  // delta-of-delta and the XOR hit their one-bit classes.
  std::vector<Sample> in;
  for (int i = 0; i < 1000; ++i) {
    in.push_back({1722470400000 + i * 1000, 42.0});
  }
  GorillaEncoder enc;
  for (const Sample& s : in) enc.Append(s);
  ExpectBitExact(in, *GorillaDecode(enc.bytes(), enc.count()));
  // ~2 bits/sample against 128 raw bits: far past the 8x floor.
  const double ratio =
      static_cast<double>(in.size() * 16) / static_cast<double>(enc.size_bytes());
  EXPECT_GE(ratio, 8.0) << "steady series must compress at least 8x, got "
                        << ratio;
}

TEST(GorillaTest, SteadySlowlyMovingGaugeCompressesEightFold) {
  // The realistic scrape shape: fixed cadence, a gauge that drifts in small
  // steps (queue depth, RSS). This is the ratio the acceptance bar names.
  std::vector<Sample> in;
  double v = 100.0;
  std::mt19937_64 rng(7);
  std::uniform_int_distribution<int> step(-1, 1);
  for (int i = 0; i < 1000; ++i) {
    v += step(rng);
    in.push_back({1722470400000 + i * 1000, v});
  }
  GorillaEncoder enc;
  for (const Sample& s : in) enc.Append(s);
  ExpectBitExact(in, *GorillaDecode(enc.bytes(), enc.count()));
  const double ratio =
      static_cast<double>(in.size() * 16) / static_cast<double>(enc.size_bytes());
  EXPECT_GE(ratio, 8.0) << "drifting gauge at fixed cadence, got " << ratio;
}

TEST(GorillaTest, MonotoneCounterRoundTrips) {
  std::vector<Sample> in;
  double total = 0.0;
  for (int i = 0; i < 500; ++i) {
    total += static_cast<double>(i % 17);
    in.push_back({i * 250, total});
  }
  ExpectBitExact(in, RoundTrip(in));
}

TEST(GorillaTest, JitteredCadenceRoundTrips) {
  // Wall-clock scrapes never land exactly on the cadence; the dod classes
  // absorb the jitter without losing exactness.
  std::mt19937_64 rng(42);
  std::uniform_int_distribution<int64_t> jitter(-40, 40);
  std::vector<Sample> in;
  int64_t t = 1722470400000;
  for (int i = 0; i < 800; ++i) {
    t += 1000 + jitter(rng);
    in.push_back({t, std::sin(0.01 * i) * 100.0});
  }
  ExpectBitExact(in, RoundTrip(in));
}

TEST(GorillaTest, AdversarialValuesRoundTripBitExactly) {
  const double qnan = std::numeric_limits<double>::quiet_NaN();
  double payload_nan = qnan;
  {
    // A NaN with a distinctive mantissa payload: the codec must not
    // canonicalize it (arithmetic on NaN would).
    uint64_t bits = BitsOf(qnan) | 0xDEADBEEFull;
    std::memcpy(&payload_nan, &bits, sizeof(bits));
  }
  std::vector<Sample> in = {
      {0, 0.0},
      {1, -0.0},
      {2, std::numeric_limits<double>::infinity()},
      {3, -std::numeric_limits<double>::infinity()},
      {4, qnan},
      {5, payload_nan},
      {6, std::numeric_limits<double>::denorm_min()},
      {7, -std::numeric_limits<double>::denorm_min()},
      {8, std::numeric_limits<double>::max()},
      {9, std::numeric_limits<double>::lowest()},
      {10, std::numeric_limits<double>::min()},
      {11, 0.0},
  };
  ExpectBitExact(in, RoundTrip(in));
}

TEST(GorillaTest, AdversarialTimestampsRoundTrip) {
  // Every dod class: repeat, ±63, ±255, ±2047, and the 64-bit escape —
  // including negative timestamps, multi-day jumps, and full-range jumps
  // whose delta and delta-of-delta wrap past int64.
  constexpr int64_t kMin = std::numeric_limits<int64_t>::min();
  constexpr int64_t kMax = std::numeric_limits<int64_t>::max();
  std::vector<Sample> in = {
      {-86400000, 1.0}, {-86399000, 2.0}, {-86398000, 3.0},  // repeat
      {-86397937, 4.0},                                      // dod 63
      {-86397129, 5.0},                                      // dod ~255
      {-86394274, 6.0},                                      // dod ~2047
      {0, 7.0},                                              // escape
      {1000, 8.0},      {172800000, 9.0},                    // 2-day jump
      {172800001, 10.0},
      {kMin, 11.0},     {kMax, 12.0},     {kMin, 13.0},      // wrapping
  };
  ExpectBitExact(in, RoundTrip(in));
}

TEST(GorillaTest, RandomWalkPropertyRoundTrips) {
  // Property sweep: many independent random series, mixed cadences and
  // value regimes, all bit-exact.
  std::mt19937_64 rng(1234);
  for (int series = 0; series < 20; ++series) {
    std::uniform_int_distribution<int64_t> dt(1, 1 << (1 + series % 20));
    std::normal_distribution<double> step(0.0, std::pow(10.0, series % 7));
    std::vector<Sample> in;
    int64_t t = static_cast<int64_t>(rng() % 2000000000);
    double v = step(rng);
    const size_t n = 1 + rng() % 400;
    for (size_t i = 0; i < n; ++i) {
      t += dt(rng);
      v += step(rng);
      in.push_back({t, v});
    }
    ExpectBitExact(in, RoundTrip(in));
  }
}

TEST(GorillaTest, RandomBitPatternValuesRoundTrip) {
  // Values drawn as raw 64-bit patterns: hits NaNs, infinities, denormals,
  // and garbage exponents with equal indifference.
  std::mt19937_64 rng(99);
  std::vector<Sample> in;
  int64_t t = 0;
  for (int i = 0; i < 500; ++i) {
    t += 1 + static_cast<int64_t>(rng() % 5000);
    double v;
    uint64_t bits = rng();
    std::memcpy(&v, &bits, sizeof(v));
    in.push_back({t, v});
  }
  ExpectBitExact(in, RoundTrip(in));
}

TEST(GorillaTest, TruncatedStreamIsAnErrorNotGarbage) {
  std::vector<Sample> in;
  for (int i = 0; i < 64; ++i) {
    in.push_back({i * 1000, static_cast<double>(i * i)});
  }
  GorillaEncoder enc;
  for (const Sample& s : in) enc.Append(s);
  const std::vector<uint8_t>& bytes = enc.bytes();

  // Every proper prefix must fail to produce all 64 samples.
  for (size_t cut = 0; cut < bytes.size(); cut += 7) {
    Result<std::vector<Sample>> out = GorillaDecode(bytes.data(), cut, 64);
    EXPECT_FALSE(out.ok()) << "decoded 64 samples from " << cut << " of "
                           << bytes.size() << " bytes";
  }
  // Asking for fewer samples than encoded is fine (the store never does,
  // but the codec contract is per-count).
  Result<std::vector<Sample>> prefix = GorillaDecode(bytes, 10);
  ASSERT_TRUE(prefix.ok());
  ExpectBitExact({in.begin(), in.begin() + 10}, *prefix);
}

TEST(GorillaTest, EmptyInputWithNonZeroCountIsAnError) {
  Result<std::vector<Sample>> out = GorillaDecode(nullptr, 0, 3);
  EXPECT_FALSE(out.ok());
}

}  // namespace
}  // namespace aims::gorilla
