// Seeded mutation test of the sealed-segment decoders: valid
// EncodeSegmentOp blobs, mutated by the shared harness (bit flips, byte
// stomps, truncation, extension) and by count/length inflation, go
// through DecodeSegmentOp and
// Segment::Decode(). Every outcome must be an InvalidArgument status or a
// decode consistent with the mutation — never a crash, undefined behavior,
// or an allocation sized by a corrupt field. The mutation budget is fixed
// and seeded, so a failure reproduces exactly; the ASan+UBSan build runs
// it like any other test.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <random>
#include <vector>

#include <gtest/gtest.h>

#include "mutation_harness.h"
#include "storage/tslife.h"

namespace aims::storage::tslife {
namespace {

/// Op layout (EncodeSegmentOp): kind u8, session u64, channel u64, seq
/// u64, tier u32, decimation u32, count u64, t0 i64, t1 i64, rate f64,
/// nmse f64, then for puts the payload length u64 and the payload.
constexpr size_t kCountOffset = 1 + 8 + 8 + 8 + 4 + 4;
constexpr size_t kLengthOffset = kCountOffset + 8 + 8 + 8 + 8 + 8;

constexpr int kMutationsPerSeed = 20000;

struct SeedOp {
  SegmentOp::Kind kind;
  Segment segment;
  std::vector<gorilla::Sample> samples;
  std::vector<uint8_t> blob;
};

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

SeedOp MakeSeed(SegmentOp::Kind kind, const std::vector<int64_t>& t_us,
                const std::vector<double>& values) {
  SeedOp seed;
  seed.kind = kind;
  seed.segment =
      BuildSegments(/*channel=*/3, t_us, values, 800.0, t_us.size())[0];
  Result<std::vector<gorilla::Sample>> samples = seed.segment.Decode();
  EXPECT_TRUE(samples.ok());
  if (samples.ok()) seed.samples = *samples;
  seed.blob = EncodeSegmentOp(kind, /*session=*/7, seed.segment);
  return seed;
}

/// Valid starting points: a steady quantized tone, a noisy walk, one with
/// every special value and timestamp jumps that need the 64-bit escape, a
/// single sample, and a drop op (no payload).
std::vector<SeedOp> Seeds() {
  std::mt19937_64 rng(5);
  std::vector<SeedOp> seeds;
  const size_t n = 256;
  std::vector<int64_t> grid(n);
  for (size_t i = 0; i < n; ++i) grid[i] = static_cast<int64_t>(i) * 1250;

  std::vector<double> tone(n);
  for (size_t i = 0; i < n; ++i) {
    tone[i] = std::round(std::sin(0.05 * static_cast<double>(i)) * 2048.0) /
              2048.0;
  }
  seeds.push_back(MakeSeed(SegmentOp::Kind::kPut, grid, tone));

  std::vector<double> walk(n);
  double v = 0.0;
  for (size_t i = 0; i < n; ++i) {
    v += static_cast<double>(static_cast<int64_t>(rng() % 2001) - 1000) / 3.0;
    walk[i] = v;
  }
  seeds.push_back(MakeSeed(SegmentOp::Kind::kPut, grid, walk));

  std::vector<int64_t> jumpy(n);
  std::vector<double> specials(n);
  int64_t t = -5'000'000;
  for (size_t i = 0; i < n; ++i) {
    t += i % 37 == 0 ? static_cast<int64_t>(rng() >> 20)
                     : 1250 + static_cast<int64_t>(rng() % 5000);
    jumpy[i] = t;
    switch (i % 9) {
      case 0: specials[i] = std::numeric_limits<double>::quiet_NaN(); break;
      case 1: specials[i] = std::numeric_limits<double>::infinity(); break;
      case 2: specials[i] = -std::numeric_limits<double>::infinity(); break;
      case 3: specials[i] = -0.0; break;
      case 4: specials[i] = std::numeric_limits<double>::denorm_min(); break;
      default: specials[i] = FromBits(rng()); break;
    }
  }
  seeds.push_back(MakeSeed(SegmentOp::Kind::kPut, jumpy, specials));

  seeds.push_back(MakeSeed(SegmentOp::Kind::kPut, {42}, {3.25}));
  seeds.push_back(MakeSeed(SegmentOp::Kind::kDrop, grid, tone));
  return seeds;
}

/// Applies one to three stacked mutations drawn from \p rng: the shared
/// ones, then count inflation and payload length inflation.
std::vector<uint8_t> Mutate(const SeedOp& seed, std::mt19937_64* rng) {
  using mutation::PatchU64;
  const std::vector<mutation::Inflation> inflations = {
      [&seed](std::vector<uint8_t>* m, std::mt19937_64* r) {
        const uint64_t count = seed.segment.meta.count;
        const uint64_t choices[] = {count + 1,
                                    count + 1 + (*r)() % 1000,
                                    2 * count + 1,
                                    uint64_t{1} << 30,
                                    (uint64_t{1} << 30) + 1,
                                    std::numeric_limits<uint64_t>::max(),
                                    (*r)()};
        PatchU64(m, kCountOffset, choices[(*r)() % 7]);
      },
      [&seed](std::vector<uint8_t>* m, std::mt19937_64* r) {
        if (seed.kind != SegmentOp::Kind::kPut) return;
        const uint64_t len = seed.segment.bytes.size();
        const uint64_t choices[] = {len + 1, len + 1 + (*r)() % 64,
                                    uint64_t{1} << 30,
                                    std::numeric_limits<uint64_t>::max(),
                                    (*r)()};
        PatchU64(m, kLengthOffset, choices[(*r)() % 5]);
      }};
  return mutation::Mutate(seed.blob, rng, inflations);
}

TEST(SegmentMutationTest, EveryMutationIsAStatusOrAConsistentDecode) {
  std::mt19937_64 rng(20261017);
  size_t rejected_op = 0, rejected_payload = 0, decoded = 0;
  for (const SeedOp& seed : Seeds()) {
    ASSERT_TRUE(DecodeSegmentOp(seed.blob).ok());
    for (int i = 0; i < kMutationsPerSeed; ++i) {
      const std::vector<uint8_t> m = Mutate(seed, &rng);
      Result<SegmentOp> op = DecodeSegmentOp(m);
      if (!op.ok()) {
        ASSERT_EQ(op.status().code(), StatusCode::kInvalidArgument);
        ++rejected_op;
        continue;
      }
      if (op->kind != SegmentOp::Kind::kPut) continue;
      const Segment& segment = op->segment;
      Result<std::vector<gorilla::Sample>> samples = segment.Decode();
      if (!samples.ok()) {
        ASSERT_EQ(samples.status().code(), StatusCode::kInvalidArgument);
        ++rejected_payload;
        continue;
      }
      ++decoded;
      ASSERT_EQ(samples->size(), segment.meta.count);
      // An untouched payload decodes the seed's samples bit-exactly, as
      // far as both go. A raised count can read past them only into the
      // last byte's zero padding (under 8 bits, each repeat taking 2).
      if (segment.bytes == seed.segment.bytes) {
        ASSERT_LE(samples->size(), seed.samples.size() + 3);
        const size_t common = std::min(samples->size(), seed.samples.size());
        for (size_t s = 0; s < common; ++s) {
          ASSERT_EQ((*samples)[s].t_ms, seed.samples[s].t_ms);
          ASSERT_EQ(BitsOf((*samples)[s].value),
                    BitsOf(seed.samples[s].value));
        }
      }
    }
  }
  // The budget must exercise all three outcomes, or the mutations are not
  // reaching the decoder they are meant to test.
  EXPECT_GT(rejected_op, 0u);
  EXPECT_GT(rejected_payload, 0u);
  EXPECT_GT(decoded, 0u);
}

}  // namespace
}  // namespace aims::storage::tslife
