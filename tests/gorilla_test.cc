#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <limits>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/gorilla.h"

/// \file gorilla_test.cc
/// \brief The Gorilla codec contract: every stream of (timestamp, value)
/// pairs round-trips bit-exactly — including NaN payloads, signed zeros,
/// and ±inf — whatever the cadence; steady telemetry-shaped series
/// compress at least 8x against the 16-byte raw encoding; truncated,
/// short, or over-counted streams decode to InvalidArgument, never to
/// garbage samples or an unbounded allocation; the bytes after every
/// append match a field-at-a-time reference encoder, and a mid-stream
/// snapshot decodes to what was appended; and the encoded bytes match a
/// recorded golden file. To re-record it after an intentional format
/// change:
///   AIMS_REGEN_GOLDEN=1 ./gorilla_test --gtest_filter='GorillaGolden*'

namespace aims::gorilla {
namespace {

uint64_t BitsOf(double v) {
  uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

double FromBits(uint64_t bits) {
  double v = 0.0;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
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

TEST(GorillaTest, InflatedCountIsRefusedBeforeAllocating) {
  // A valid 17-byte stream (one 128-bit first sample plus four 2-bit
  // repeats) claiming 2^30 samples: reserving for the count would ask for
  // 16 GiB. The bytes can hold at most 1 + (17 - 16) * 4 samples.
  GorillaEncoder enc;
  for (int i = 0; i < 5; ++i) enc.Append(1000, 1.5);
  const std::vector<uint8_t> bytes = enc.bytes();
  ASSERT_EQ(bytes.size(), 17u);
  for (size_t count : {size_t{6}, size_t{1} << 30,
                       std::numeric_limits<size_t>::max()}) {
    Result<std::vector<Sample>> out = GorillaDecode(bytes, count);
    ASSERT_FALSE(out.ok()) << count;
    EXPECT_EQ(out.status().code(), StatusCode::kInvalidArgument) << count;
  }
  // The largest count the bytes can hold still decodes.
  Result<std::vector<Sample>> all = GorillaDecode(bytes, 5);
  ASSERT_TRUE(all.ok());
  EXPECT_EQ(all->size(), 5u);
  // A stream too short for even the first sample refuses any count.
  EXPECT_FALSE(GorillaDecode(bytes.data(), 15, 1).ok());
}

TEST(GorillaTest, TakeBytesHandsOverExactSize) {
  GorillaEncoder enc;
  for (int i = 0; i < 4096; ++i) {
    enc.Append(i * 1250, static_cast<double>((i * 7919) % 1000) / 7.0);
  }
  const std::vector<uint8_t> snapshot = enc.bytes();
  const size_t size = enc.size_bytes();
  std::vector<uint8_t> taken = enc.TakeBytes();
  EXPECT_EQ(taken, snapshot);
  EXPECT_EQ(taken.size(), size);
  EXPECT_EQ(taken.capacity(), taken.size());
}

// ---- Bit I/O ------------------------------------------------------------

/// One-bit-at-a-time MSB-first writer: the layout BitWriter must keep.
void ReferenceWrite(std::vector<uint8_t>* bytes, size_t* bit_count,
                    uint64_t value, int bits) {
  for (int i = bits - 1; i >= 0; --i) {
    if (*bit_count % 8 == 0) bytes->push_back(0);
    if ((value >> i) & 1) {
      bytes->back() |= static_cast<uint8_t>(1u << (7 - *bit_count % 8));
    }
    ++*bit_count;
  }
}

TEST(BitIoTest, EveryWidthAtEveryOffsetRoundTrips) {
  std::mt19937_64 rng(2024);
  for (int offset = 0; offset < 8; ++offset) {
    for (int width = 1; width <= 64; ++width) {
      // Offset bits of filler, the field under test (random, all ones,
      // and a lone top bit), then a 3-bit trailer that must survive.
      const uint64_t mask =
          width == 64 ? ~uint64_t{0} : (uint64_t{1} << width) - 1;
      for (uint64_t value : {rng() & mask, mask, uint64_t{1} << (width - 1)}) {
        BitWriter writer;
        std::vector<uint8_t> expected;
        size_t expected_bits = 0;
        const uint64_t filler = rng() & ((uint64_t{1} << offset) - 1);
        writer.Write(filler, offset);
        ReferenceWrite(&expected, &expected_bits, filler, offset);
        // High garbage above the width must be ignored.
        writer.Write(value | (width == 64 ? 0 : ~mask), width);
        ReferenceWrite(&expected, &expected_bits, value, width);
        writer.Write(0b101, 3);
        ReferenceWrite(&expected, &expected_bits, 0b101, 3);
        ASSERT_EQ(writer.bit_count(), expected_bits);
        const std::vector<uint8_t> bytes = writer.bytes();
        ASSERT_EQ(bytes, expected)
            << "width " << width << " offset " << offset;

        BitReader reader(bytes.data(), bytes.size());
        uint64_t got = 0;
        ASSERT_TRUE(reader.Read(&got, offset));
        EXPECT_EQ(got, filler);
        ASSERT_TRUE(reader.Read(&got, width));
        EXPECT_EQ(got, value) << "width " << width << " offset " << offset;
        ASSERT_TRUE(reader.Read(&got, 3));
        EXPECT_EQ(got, 0b101u);
        // Whatever is left is the zero padding of the last byte; reading
        // one bit past it fails.
        const size_t padding = bytes.size() * 8 - expected_bits;
        ASSERT_TRUE(reader.Read(&got, static_cast<int>(padding)));
        EXPECT_EQ(got, 0u);
        EXPECT_FALSE(reader.Read(&got, 1));
      }
    }
  }
}

TEST(BitIoTest, LongMixedStreamMatchesReference) {
  std::mt19937_64 rng(77);
  BitWriter writer;
  std::vector<uint8_t> expected;
  size_t expected_bits = 0;
  std::vector<std::pair<uint64_t, int>> fields;
  for (int i = 0; i < 5000; ++i) {
    const int width = 1 + static_cast<int>(rng() % 64);
    const uint64_t value =
        width == 64 ? rng() : rng() & ((uint64_t{1} << width) - 1);
    writer.Write(value, width);
    ReferenceWrite(&expected, &expected_bits, value, width);
    fields.emplace_back(value, width);
  }
  const std::vector<uint8_t> bytes = writer.bytes();
  ASSERT_EQ(bytes, expected);
  BitReader reader(bytes.data(), bytes.size());
  for (const auto& [value, width] : fields) {
    uint64_t got = 0;
    ASSERT_TRUE(reader.Read(&got, width));
    ASSERT_EQ(got, value);
  }
}

// ---- Reference encoder --------------------------------------------------

/// GorillaEncoder::Append as it was when every field took its own write:
/// the same choices, written one bit at a time through ReferenceWrite.
class ReferenceEncoder {
 public:
  void Append(int64_t t_ms, double value) {
    const uint64_t bits = BitsOf(value);
    if (count_++ == 0) {
      Write(static_cast<uint64_t>(t_ms), 64);
      Write(bits, 64);
      prev_t_ = static_cast<uint64_t>(t_ms);
      prev_bits_ = bits;
      return;
    }
    const uint64_t delta = static_cast<uint64_t>(t_ms) - prev_t_;
    const int64_t dod = static_cast<int64_t>(delta - prev_delta_);
    if (dod == 0) {
      Write(0, 1);
    } else if (dod >= -63 && dod <= 64) {
      Write(0b10, 2);
      Write(static_cast<uint64_t>(dod + 63), 7);
    } else if (dod >= -255 && dod <= 256) {
      Write(0b110, 3);
      Write(static_cast<uint64_t>(dod + 255), 9);
    } else if (dod >= -2047 && dod <= 2048) {
      Write(0b1110, 4);
      Write(static_cast<uint64_t>(dod + 2047), 12);
    } else {
      Write(0b1111, 4);
      Write(static_cast<uint64_t>(dod), 64);
    }
    prev_delta_ = delta;
    prev_t_ = static_cast<uint64_t>(t_ms);

    const uint64_t x = bits ^ prev_bits_;
    prev_bits_ = bits;
    if (x == 0) {
      Write(0, 1);
      return;
    }
    Write(1, 1);
    const int leading = std::min(__builtin_clzll(x), 31);
    const int trailing = __builtin_ctzll(x);
    if (prev_leading_ >= 0 && leading >= prev_leading_ &&
        trailing >= prev_trailing_) {
      Write(0, 1);
      Write(x >> prev_trailing_, 64 - prev_leading_ - prev_trailing_);
    } else {
      const int meaningful = 64 - leading - trailing;
      Write(1, 1);
      Write(static_cast<uint64_t>(leading), 5);
      Write(static_cast<uint64_t>(meaningful - 1), 6);
      Write(x >> trailing, meaningful);
      prev_leading_ = leading;
      prev_trailing_ = trailing;
    }
  }

  const std::vector<uint8_t>& bytes() const { return bytes_; }
  size_t bit_count() const { return bit_count_; }

 private:
  void Write(uint64_t value, int bits) {
    ReferenceWrite(&bytes_, &bit_count_, value, bits);
  }

  std::vector<uint8_t> bytes_;
  size_t bit_count_ = 0;
  size_t count_ = 0;
  uint64_t prev_t_ = 0;
  uint64_t prev_delta_ = 0;
  uint64_t prev_bits_ = 0;
  int prev_leading_ = -1;
  int prev_trailing_ = 0;
};

/// A seeded series of \p n samples: values of kind \p values (0 random
/// walk, 1 ADC codes times a non-binary scale, 2 the special values, 3 raw
/// bit patterns) at timestamps of kind \p times (0 fixed cadence, 1
/// jittered, 2 fixed with jumps, 3 a new dod class every step).
std::vector<Sample> ReferenceSeries(int values, int times, size_t n,
                                    std::mt19937_64* rng) {
  const double specials[] = {0.0,
                             -0.0,
                             std::numeric_limits<double>::infinity(),
                             -std::numeric_limits<double>::infinity(),
                             std::numeric_limits<double>::quiet_NaN(),
                             FromBits(0x7FF80000DEADBEEFull),
                             std::numeric_limits<double>::denorm_min(),
                             -std::numeric_limits<double>::denorm_min(),
                             std::numeric_limits<double>::max(),
                             std::numeric_limits<double>::lowest(),
                             std::numeric_limits<double>::min()};
  const int64_t jitter = int64_t{3} << (4 * ((*rng)() % 3));  // 3, 48, 768
  const int64_t dod_widths[] = {0, 60, 250, 2000, 1'000'000'000};
  std::normal_distribution<double> step(0.0, 1.0);
  std::vector<Sample> out;
  uint64_t t = (*rng)() >> 12;  // wraps like the codec's own arithmetic
  double walk = 0.0;
  int64_t code = 2048;
  for (size_t i = 0; i < n; ++i) {
    const uint64_t r = (*rng)();
    uint64_t dt = 1250;
    if (times == 1) {
      dt += r % (2 * jitter + 1) - jitter;
    } else if (times == 2 && r % 50 == 0) {
      dt = (*rng)();
    } else if (times == 3 && r % 5 != 0) {
      dt += (r >> 8) % dod_widths[r % 5];
    }
    t += dt;
    double v = 0.0;
    if (values == 0) {
      walk += step(*rng) * std::pow(10.0, static_cast<double>(r % 5));
      v = walk;
    } else if (values == 1) {
      code = std::clamp<int64_t>(code + static_cast<int64_t>(r % 33) - 16, 0,
                                 4095);
      v = static_cast<double>(code) * (90.0 / 4095.0);
    } else if (values == 2) {
      v = specials[r % std::size(specials)];
    } else {
      v = FromBits((*rng)());
    }
    out.push_back({static_cast<int64_t>(t), v});
  }
  return out;
}

TEST(GorillaReferenceTest, EveryAppendMatchesTheFieldAtATimeEncoder) {
  std::mt19937_64 rng(2026);
  for (int values = 0; values < 4; ++values) {
    for (int times = 0; times < 4; ++times) {
      for (size_t n : {size_t{1}, size_t{2}, size_t{700},
                       static_cast<size_t>(1 + rng() % 700)}) {
        const std::vector<Sample> series =
            ReferenceSeries(values, times, n, &rng);
        GorillaEncoder enc;
        ReferenceEncoder ref;
        for (size_t i = 0; i < series.size(); ++i) {
          enc.Append(series[i]);
          ref.Append(series[i].t_ms, series[i].value);
          ASSERT_EQ(enc.size_bytes(), (ref.bit_count() + 7) / 8);
          ASSERT_EQ(enc.bytes(), ref.bytes())
              << "values " << values << " times " << times << " length "
              << n << " sample " << i;
        }
        EXPECT_EQ(enc.TakeBytes(), ref.bytes());
      }
    }
  }
}

TEST(GorillaTest, SnapshotAfterEveryAppendDecodesThePrefix) {
  // The active-chunk read path decodes a live encoder's bytes between
  // appends, so every snapshot must carry the pending bits, whatever the
  // fill of the writer's 64-bit accumulator.
  std::mt19937_64 rng(31);
  GorillaEncoder enc;
  ReferenceEncoder ref;  // only for the bit count
  std::vector<Sample> in;
  std::vector<bool> fill_seen(64, false);
  // ADC codes first: once an XOR opens the full 64-bit window (a sign
  // flip does), every later one reuses it and no window is fused again.
  for (int values : {1, 0, 2, 3}) {
    for (const Sample& s : ReferenceSeries(values, values, 100, &rng)) {
      enc.Append(s);
      ref.Append(s.t_ms, s.value);
      in.push_back(s);
      fill_seen[ref.bit_count() % 64] = true;
      const std::vector<uint8_t> bytes = enc.bytes();
      ASSERT_EQ(bytes.size(), enc.size_bytes());
      Result<std::vector<Sample>> out = GorillaDecode(bytes, enc.count());
      ASSERT_TRUE(out.ok()) << in.size() << ": " << out.status().message();
      ExpectBitExact(in, *out);
    }
  }
  EXPECT_EQ(std::count(fill_seen.begin(), fill_seen.end(), true), 64);
}

// ---- Golden encoding ----------------------------------------------------

/// splitmix64: a fixed, library-independent bit source for the golden
/// series (std:: distributions differ across standard libraries).
uint64_t SplitMix(uint64_t* state) {
  uint64_t z = (*state += 0x9E3779B97F4A7C15ull);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

/// The golden series: an 800 Hz microsecond grid that first walks every
/// delta-of-delta class across both of its edges and the 64-bit escape,
/// then values that repeat, open a window, reuse it, open one the
/// leading-zero clamp widens, open a full 64-bit one, and pass through
/// NaN, ±0 and ±inf, then a stretch of jittered sensor-like noise.
/// GoldenSeriesCoversEveryEncoderBranch checks the coverage claims.
std::vector<Sample> GoldenSeries() {
  std::vector<Sample> in;
  int64_t t = 1'700'000'000'000'000;
  int64_t delta = 1250;
  in.push_back({t, 1.0});
  auto push = [&](int64_t dod, double v) {
    delta += dod;
    t += delta;
    in.push_back({t, v});
  };
  for (int64_t dod : {int64_t{0}, int64_t{1}, int64_t{-63}, int64_t{64},
                      int64_t{-64}, int64_t{65}, int64_t{-255}, int64_t{256},
                      int64_t{257}, int64_t{-2047}, int64_t{2048},
                      int64_t{-2048}, int64_t{2049}, int64_t{-1'000'000'000},
                      int64_t{1'000'000'000}}) {
    push(dod, 1.0);
  }
  for (double v : {1.5, 1.0, FromBits(0x3FF0000000000003ull),
                   FromBits(0x3FF0000000000001ull),
                   FromBits(0xBFF0000000000000ull),
                   std::numeric_limits<double>::quiet_NaN(),
                   FromBits(0x7FF80000DEADBEEFull), 0.0, -0.0,
                   std::numeric_limits<double>::infinity(),
                   -std::numeric_limits<double>::infinity(),
                   -std::numeric_limits<double>::infinity(),
                   std::numeric_limits<double>::denorm_min(), 42.0}) {
    push(0, v);
  }
  uint64_t state = 15;
  double v = 0.0;
  for (int i = 0; i < 200; ++i) {
    const uint64_t r = SplitMix(&state);
    // Cadence jitter of ±3 us around 1250 and a bounded random walk in
    // exact binary fractions, so no libm is involved.
    const int64_t next_delta = 1250 + static_cast<int64_t>(r % 7) - 3;
    v += static_cast<double>(static_cast<int64_t>((r >> 8) % 257) - 128) /
         256.0;
    push(next_delta - delta, v);
  }
  return in;
}

TEST(GorillaGoldenTest, GoldenSeriesCoversEveryEncoderBranch) {
  // Mirrors the encoder's choices (gorilla.cc) without calling it.
  const std::vector<Sample> series = GoldenSeries();
  bool dod_class[5] = {};
  bool xor_zero = false, new_window = false, reuse = false;
  bool full_window = false, clamped = false;
  bool nan = false, pos_zero = false, neg_zero = false;
  bool pos_inf = false, neg_inf = false;
  uint64_t prev_delta = 0;
  int prev_leading = -1, prev_trailing = 0;
  for (size_t i = 0; i < series.size(); ++i) {
    const double v = series[i].value;
    nan |= std::isnan(v);
    pos_zero |= BitsOf(v) == BitsOf(0.0);
    neg_zero |= BitsOf(v) == BitsOf(-0.0);
    pos_inf |= v == std::numeric_limits<double>::infinity();
    neg_inf |= v == -std::numeric_limits<double>::infinity();
    if (i == 0) continue;
    const uint64_t delta = static_cast<uint64_t>(series[i].t_ms) -
                           static_cast<uint64_t>(series[i - 1].t_ms);
    const int64_t dod = static_cast<int64_t>(delta - prev_delta);
    prev_delta = delta;
    dod_class[dod == 0                    ? 0
              : dod >= -63 && dod <= 64     ? 1
              : dod >= -255 && dod <= 256   ? 2
              : dod >= -2047 && dod <= 2048 ? 3
                                            : 4] = true;
    const uint64_t x = BitsOf(v) ^ BitsOf(series[i - 1].value);
    if (x == 0) {
      xor_zero = true;
      continue;
    }
    const int raw_leading = __builtin_clzll(x);
    const int leading = raw_leading > 31 ? 31 : raw_leading;
    const int trailing = __builtin_ctzll(x);
    if (prev_leading >= 0 && leading >= prev_leading &&
        trailing >= prev_trailing) {
      reuse = true;
    } else {
      new_window = true;
      full_window |= leading == 0 && trailing == 0;
      clamped |= raw_leading > 31;
      prev_leading = leading;
      prev_trailing = trailing;
    }
  }
  for (int c = 0; c < 5; ++c) EXPECT_TRUE(dod_class[c]) << "dod class " << c;
  EXPECT_TRUE(xor_zero);
  EXPECT_TRUE(new_window);
  EXPECT_TRUE(reuse);
  EXPECT_TRUE(full_window);
  EXPECT_TRUE(clamped);
  EXPECT_TRUE(nan && pos_zero && neg_zero && pos_inf && neg_inf);
}

std::string GoldenPath() {
  return std::string(AIMS_TEST_DATA_DIR) + "/gorilla_golden.txt";
}

TEST(GorillaGoldenTest, EncodingMatchesRecordedBytes) {
  const std::vector<Sample> series = GoldenSeries();
  GorillaEncoder enc;
  for (const Sample& s : series) enc.Append(s);
  const std::vector<uint8_t>& bytes = enc.bytes();

  std::ostringstream actual;
  actual << "# Gorilla encoding of GoldenSeries() in tests/gorilla_test.cc\n";
  actual << "count " << enc.count() << "\n";
  for (size_t i = 0; i < bytes.size(); ++i) {
    char hex[3];
    std::snprintf(hex, sizeof(hex), "%02x", bytes[i]);
    actual << hex << ((i % 32 == 31 || i + 1 == bytes.size()) ? "\n" : "");
  }
  if (std::getenv("AIMS_REGEN_GOLDEN") != nullptr) {
    std::ofstream out(GoldenPath(), std::ios::trunc);
    out << actual.str();
    GTEST_SKIP() << "regenerated " << GoldenPath();
  }
  std::ifstream in(GoldenPath());
  ASSERT_TRUE(in.good()) << "missing golden file " << GoldenPath();
  std::stringstream expected;
  expected << in.rdbuf();
  EXPECT_EQ(actual.str(), expected.str())
      << "the Gorilla encoding changed; re-record with AIMS_REGEN_GOLDEN=1 "
         "only if the format change is intentional";

  // The decoder reads the recorded bytes back to the series bit-exactly.
  Result<std::vector<Sample>> decoded = GorillaDecode(bytes, series.size());
  ASSERT_TRUE(decoded.ok()) << decoded.status().message();
  ExpectBitExact(series, *decoded);
}

}  // namespace
}  // namespace aims::gorilla
