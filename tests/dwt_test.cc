#include "signal/dwt.h"

#include <cmath>
#include <cstring>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "signal/dwpt.h"
#include "test_util.h"

namespace aims::signal {
namespace {

using ::aims::testutil::MaxAbsDiff;
using ::aims::testutil::RandomSignal;

class DwtRoundTripTest
    : public ::testing::TestWithParam<std::tuple<WaveletKind, size_t>> {};

TEST_P(DwtRoundTripTest, ForwardInverseIsIdentity) {
  auto [kind, n] = GetParam();
  WaveletFilter filter = WaveletFilter::Make(kind);
  Rng rng(static_cast<uint64_t>(n) * 31 + static_cast<uint64_t>(kind));
  std::vector<double> signal = RandomSignal(n, &rng);
  auto coeffs = ForwardDwt(filter, signal);
  ASSERT_TRUE(coeffs.ok());
  auto back = InverseDwt(filter, coeffs.ValueOrDie());
  ASSERT_TRUE(back.ok());
  EXPECT_LT(MaxAbsDiff(signal, back.ValueOrDie()), 1e-9);
}

TEST_P(DwtRoundTripTest, ParsevalEnergyPreserved) {
  auto [kind, n] = GetParam();
  WaveletFilter filter = WaveletFilter::Make(kind);
  Rng rng(static_cast<uint64_t>(n) * 17 + 5);
  std::vector<double> signal = RandomSignal(n, &rng);
  auto coeffs = ForwardDwt(filter, signal);
  ASSERT_TRUE(coeffs.ok());
  double e_signal = 0.0, e_coeffs = 0.0;
  for (double x : signal) e_signal += x * x;
  for (double x : coeffs.ValueOrDie()) e_coeffs += x * x;
  EXPECT_NEAR(e_signal, e_coeffs, 1e-9 * std::max(1.0, e_signal));
}

TEST_P(DwtRoundTripTest, InnerProductPreserved) {
  auto [kind, n] = GetParam();
  WaveletFilter filter = WaveletFilter::Make(kind);
  Rng rng(static_cast<uint64_t>(n) + 99);
  std::vector<double> a = RandomSignal(n, &rng);
  std::vector<double> b = RandomSignal(n, &rng);
  auto ta = ForwardDwt(filter, a);
  auto tb = ForwardDwt(filter, b);
  ASSERT_TRUE(ta.ok() && tb.ok());
  double raw = 0.0, transformed = 0.0;
  for (size_t i = 0; i < n; ++i) {
    raw += a[i] * b[i];
    transformed += ta.ValueOrDie()[i] * tb.ValueOrDie()[i];
  }
  EXPECT_NEAR(raw, transformed, 1e-8 * std::max(1.0, std::fabs(raw)));
}

INSTANTIATE_TEST_SUITE_P(
    FiltersAndLengths, DwtRoundTripTest,
    ::testing::Combine(::testing::Values(WaveletKind::kHaar, WaveletKind::kDb2,
                                         WaveletKind::kDb3, WaveletKind::kDb4),
                       ::testing::Values<size_t>(8, 16, 64, 256, 1024)),
    [](const auto& info) {
      return std::string(WaveletKindName(std::get<0>(info.param))) + "_n" +
             std::to_string(std::get<1>(info.param));
    });

TEST(DwtBasics, HaarKnownValues) {
  WaveletFilter haar = WaveletFilter::Make(WaveletKind::kHaar);
  std::vector<double> signal = {4.0, 2.0, 6.0, 8.0};
  auto coeffs = ForwardDwt(haar, signal);
  ASSERT_TRUE(coeffs.ok());
  const std::vector<double>& c = coeffs.ValueOrDie();
  // Level 1: s = [(4+2)/r, (6+8)/r], d = [(4-2)/r, (6-8)/r], r = sqrt(2).
  // Level 2: s2 = (6+14)/2 = 10, d2 = (6-14)/2 = -4.
  EXPECT_NEAR(c[0], 10.0, 1e-12);  // overall scaling = sum / sqrt(n)
  EXPECT_NEAR(c[1], -4.0, 1e-12);
  EXPECT_NEAR(c[2], 2.0 / std::sqrt(2.0), 1e-12);
  EXPECT_NEAR(c[3], -2.0 / std::sqrt(2.0), 1e-12);
}

TEST(DwtBasics, ScalingCoefficientIsScaledSum) {
  WaveletFilter haar = WaveletFilter::Make(WaveletKind::kHaar);
  Rng rng(3);
  std::vector<double> signal = RandomSignal(64, &rng);
  auto coeffs = ForwardDwt(haar, signal);
  ASSERT_TRUE(coeffs.ok());
  double sum = 0.0;
  for (double x : signal) sum += x;
  EXPECT_NEAR(coeffs.ValueOrDie()[0], sum / 8.0, 1e-9);  // sqrt(64) = 8
}

TEST(DwtBasics, RejectsNonPowerOfTwo) {
  WaveletFilter haar = WaveletFilter::Make(WaveletKind::kHaar);
  std::vector<double> signal(12, 1.0);
  EXPECT_FALSE(ForwardDwt(haar, signal).ok());
  EXPECT_FALSE(InverseDwt(haar, signal).ok());
}

TEST(DwtBasics, PartialLevels) {
  WaveletFilter db2 = WaveletFilter::Make(WaveletKind::kDb2);
  Rng rng(11);
  std::vector<double> signal = RandomSignal(64, &rng);
  for (int levels = 1; levels <= 6; ++levels) {
    auto coeffs = ForwardDwt(db2, signal, levels);
    ASSERT_TRUE(coeffs.ok());
    auto back = InverseDwt(db2, coeffs.ValueOrDie(), levels);
    ASSERT_TRUE(back.ok());
    EXPECT_LT(MaxAbsDiff(signal, back.ValueOrDie()), 1e-9) << levels;
  }
  EXPECT_FALSE(ForwardDwt(db2, signal, 7).ok());
}

TEST(DwtBasics, IndexHelpers) {
  EXPECT_EQ(DetailIndex(16, 1, 0), 8u);
  EXPECT_EQ(DetailIndex(16, 1, 7), 15u);
  EXPECT_EQ(DetailIndex(16, 4, 0), 1u);
  EXPECT_EQ(ScalingIndex(16, 4, 0), 0u);
  EXPECT_EQ(MaxLevels(1024), 10);
  EXPECT_EQ(MaxLevels(1), 0);
  EXPECT_TRUE(IsPowerOfTwo(1));
  EXPECT_TRUE(IsPowerOfTwo(4096));
  EXPECT_FALSE(IsPowerOfTwo(0));
  EXPECT_FALSE(IsPowerOfTwo(48));
}

TEST(TensorDwtTest, RoundTrip2D) {
  WaveletFilter db2 = WaveletFilter::Make(WaveletKind::kDb2);
  TensorDwt transform(db2, {16, 8});
  Rng rng(21);
  std::vector<double> data = RandomSignal(16 * 8, &rng);
  std::vector<double> original = data;
  ASSERT_TRUE(transform.Forward(&data).ok());
  EXPECT_GT(MaxAbsDiff(original, data), 1e-6);  // it actually transformed
  ASSERT_TRUE(transform.Inverse(&data).ok());
  EXPECT_LT(MaxAbsDiff(original, data), 1e-9);
}

TEST(TensorDwtTest, RoundTrip3D) {
  WaveletFilter haar = WaveletFilter::Make(WaveletKind::kHaar);
  TensorDwt transform(haar, {8, 4, 16});
  Rng rng(22);
  std::vector<double> data = RandomSignal(8 * 4 * 16, &rng);
  std::vector<double> original = data;
  ASSERT_TRUE(transform.Forward(&data).ok());
  ASSERT_TRUE(transform.Inverse(&data).ok());
  EXPECT_LT(MaxAbsDiff(original, data), 1e-9);
}

TEST(TensorDwtTest, SeparableProductStructure) {
  // The transform of an outer product a(x)b(y) is the outer product of the
  // transforms.
  WaveletFilter haar = WaveletFilter::Make(WaveletKind::kHaar);
  Rng rng(23);
  std::vector<double> a = RandomSignal(8, &rng);
  std::vector<double> b = RandomSignal(4, &rng);
  std::vector<double> grid(8 * 4);
  for (size_t i = 0; i < 8; ++i) {
    for (size_t j = 0; j < 4; ++j) grid[i * 4 + j] = a[i] * b[j];
  }
  TensorDwt transform(haar, {8, 4});
  ASSERT_TRUE(transform.Forward(&grid).ok());
  auto ta = ForwardDwt(haar, a);
  auto tb = ForwardDwt(haar, b);
  ASSERT_TRUE(ta.ok() && tb.ok());
  for (size_t i = 0; i < 8; ++i) {
    for (size_t j = 0; j < 4; ++j) {
      EXPECT_NEAR(grid[i * 4 + j],
                  ta.ValueOrDie()[i] * tb.ValueOrDie()[j], 1e-9);
    }
  }
}

TEST(TensorDwtTest, SizeMismatchRejected) {
  WaveletFilter haar = WaveletFilter::Make(WaveletKind::kHaar);
  TensorDwt transform(haar, {8, 8});
  std::vector<double> wrong(32, 0.0);
  EXPECT_FALSE(transform.Forward(&wrong).ok());
  EXPECT_FALSE(transform.Inverse(&wrong).ok());
}

TEST(StreamingHaarTest, MatchesBatchTransform) {
  WaveletFilter haar = WaveletFilter::Make(WaveletKind::kHaar);
  Rng rng(31);
  const size_t n = 128;
  std::vector<double> signal = RandomSignal(n, &rng);
  StreamingHaarDwt streaming;
  std::vector<StreamingHaarDwt::Emitted> emitted;
  for (double x : signal) streaming.Push(x, &emitted);
  streaming.Finish(&emitted);

  auto batch = ForwardDwt(haar, signal);
  ASSERT_TRUE(batch.ok());
  const std::vector<double>& expected = batch.ValueOrDie();
  // Collect emitted coefficients into the pyramid layout.
  std::vector<double> collected(n, 0.0);
  size_t scalings = 0;
  for (const auto& e : emitted) {
    if (e.is_scaling) {
      collected[0] = e.value;
      ++scalings;
    } else {
      collected[DetailIndex(n, e.level, e.index)] = e.value;
    }
  }
  EXPECT_EQ(scalings, 1u);  // power-of-two stream: single overall summary
  EXPECT_LT(MaxAbsDiff(expected, collected), 1e-9);
}

TEST(StreamingHaarTest, EmitsIncrementally) {
  StreamingHaarDwt streaming;
  std::vector<StreamingHaarDwt::Emitted> emitted;
  streaming.Push(1.0, &emitted);
  EXPECT_TRUE(emitted.empty());
  streaming.Push(3.0, &emitted);
  ASSERT_EQ(emitted.size(), 1u);  // first level-1 detail complete
  EXPECT_EQ(emitted[0].level, 1);
  EXPECT_NEAR(emitted[0].value, (1.0 - 3.0) / std::sqrt(2.0), 1e-12);
  streaming.Push(5.0, &emitted);
  EXPECT_EQ(emitted.size(), 1u);
  streaming.Push(5.0, &emitted);
  // Completes the second level-1 pair AND the level-2 detail.
  EXPECT_EQ(emitted.size(), 3u);
}

class StreamingDwtTest : public ::testing::TestWithParam<WaveletKind> {};

TEST_P(StreamingDwtTest, MatchesLinearCascadeReference) {
  WaveletFilter filter = WaveletFilter::Make(GetParam());
  Rng rng(41);
  const size_t n = 500;  // deliberately not a power of two
  std::vector<double> signal = RandomSignal(n, &rng);
  const int levels = 4;
  StreamingDwt streaming(filter, levels);
  std::vector<StreamingDwt::Emitted> emitted;
  for (double x : signal) streaming.Push(x, &emitted);

  std::vector<std::vector<double>> expected_details;
  std::vector<double> expected_scaling;
  LinearDwtReference(filter, signal, levels, &expected_details,
                     &expected_scaling);
  // Collect emissions per level.
  std::vector<std::vector<double>> details(levels);
  std::vector<double> scaling;
  for (const auto& e : emitted) {
    if (e.is_scaling) {
      ASSERT_EQ(e.level, levels);
      ASSERT_EQ(e.index, scaling.size());
      scaling.push_back(e.value);
    } else {
      auto& level_details = details[static_cast<size_t>(e.level - 1)];
      ASSERT_EQ(e.index, level_details.size()) << "level " << e.level;
      level_details.push_back(e.value);
    }
  }
  for (int l = 0; l < levels; ++l) {
    ASSERT_EQ(details[static_cast<size_t>(l)].size(),
              expected_details[static_cast<size_t>(l)].size())
        << "level " << l + 1;
    EXPECT_LT(MaxAbsDiff(details[static_cast<size_t>(l)],
                         expected_details[static_cast<size_t>(l)]),
              1e-10);
  }
  ASSERT_EQ(scaling.size(), expected_scaling.size());
  EXPECT_LT(MaxAbsDiff(scaling, expected_scaling), 1e-10);
}

TEST_P(StreamingDwtTest, EmitsAsSoonAsWindowsComplete) {
  WaveletFilter filter = WaveletFilter::Make(GetParam());
  StreamingDwt streaming(filter, 2);
  std::vector<StreamingDwt::Emitted> emitted;
  // The first level-1 coefficient appears exactly when sample L arrives.
  for (size_t i = 0; i + 1 < filter.length(); ++i) {
    streaming.Push(1.0, &emitted);
    EXPECT_TRUE(emitted.empty()) << "after sample " << i + 1;
  }
  streaming.Push(1.0, &emitted);
  EXPECT_FALSE(emitted.empty());
}

INSTANTIATE_TEST_SUITE_P(Filters, StreamingDwtTest,
                         ::testing::Values(WaveletKind::kHaar,
                                           WaveletKind::kDb2,
                                           WaveletKind::kDb4),
                         [](const auto& info) {
                           return WaveletKindName(info.param);
                         });

TEST(StreamingDwtBounds, WindowStaysBounded) {
  // The per-level buffer must not grow with the stream: it retains at most
  // ~L + 1 samples.
  WaveletFilter db4 = WaveletFilter::Make(WaveletKind::kDb4);
  StreamingDwt streaming(db4, 6);
  std::vector<StreamingDwt::Emitted> emitted;
  for (int i = 0; i < 100000; ++i) {
    streaming.Push(static_cast<double>(i % 37), &emitted);
    if (i % 4096 == 0) emitted.clear();  // keep the test light
  }
  EXPECT_EQ(streaming.samples_seen(), 100000u);
}

TEST(StreamingHaarTest, AmortizedConstantWork) {
  // Total emissions for n samples are n-1 details plus summaries.
  StreamingHaarDwt streaming;
  std::vector<StreamingHaarDwt::Emitted> emitted;
  const size_t n = 1 << 12;
  for (size_t i = 0; i < n; ++i) {
    streaming.Push(static_cast<double>(i % 17), &emitted);
  }
  EXPECT_EQ(emitted.size(), n - 1);
  streaming.Finish(&emitted);
  EXPECT_EQ(emitted.size(), n);
}

// ---- Bit-identity against the modulo reference -------------------------
//
// The transform kernels skip the periodic wrap for outputs whose filter
// window stays inside the input. These references take `% n` on every
// tap, as the kernels originally did; the fast kernels must reproduce
// their results bit for bit (same products, same summation order).

void ModuloDwtStep(const WaveletFilter& filter, const std::vector<double>& in,
                   std::vector<double>* scaling, std::vector<double>* detail) {
  const size_t n = in.size();
  const size_t half = n / 2;
  scaling->assign(half, 0.0);
  detail->assign(half, 0.0);
  for (size_t j = 0; j < half; ++j) {
    double s = 0.0, d = 0.0;
    for (size_t t = 0; t < filter.length(); ++t) {
      const double x = in[(2 * j + t) % n];
      s += filter.lowpass()[t] * x;
      d += filter.highpass()[t] * x;
    }
    (*scaling)[j] = s;
    (*detail)[j] = d;
  }
}

void ModuloIdwtStep(const WaveletFilter& filter,
                    const std::vector<double>& scaling,
                    const std::vector<double>& detail,
                    std::vector<double>* out) {
  const size_t n = 2 * scaling.size();
  out->assign(n, 0.0);
  for (size_t j = 0; j < scaling.size(); ++j) {
    for (size_t t = 0; t < filter.length(); ++t) {
      (*out)[(2 * j + t) % n] +=
          filter.lowpass()[t] * scaling[j] + filter.highpass()[t] * detail[j];
    }
  }
}

std::vector<double> ModuloForwardDwt(const WaveletFilter& filter,
                                     const std::vector<double>& signal) {
  std::vector<double> out = signal;
  std::vector<double> current = signal;
  std::vector<double> s, d;
  for (size_t span = signal.size() / 2; span >= 1; span /= 2) {
    ModuloDwtStep(filter, current, &s, &d);
    for (size_t k = 0; k < span; ++k) {
      out[k] = s[k];
      out[span + k] = d[k];
    }
    current = s;
  }
  return out;
}

std::vector<double> ModuloInverseDwt(const WaveletFilter& filter,
                                     const std::vector<double>& coeffs) {
  std::vector<double> out = coeffs;
  std::vector<double> merged;
  for (size_t span = 1; 2 * span <= coeffs.size(); span *= 2) {
    const std::vector<double> s(out.begin(), out.begin() + span);
    const std::vector<double> d(out.begin() + span, out.begin() + 2 * span);
    ModuloIdwtStep(filter, s, d, &merged);
    std::copy(merged.begin(), merged.end(), out.begin());
  }
  return out;
}

bool BitIdentical(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

/// Values spanning 16 decades, so any change in summation order shows up
/// in the low bits.
std::vector<double> WideRangeSignal(size_t n, Rng* rng) {
  std::vector<double> v(n);
  for (double& x : v) {
    x = rng->Uniform(-1.0, 1.0) * std::pow(10.0, rng->UniformInt(-8, 8));
  }
  return v;
}

constexpr WaveletKind kAllKinds[] = {WaveletKind::kHaar, WaveletKind::kDb2,
                                     WaveletKind::kDb3, WaveletKind::kDb4};

TEST(DwtModuloReferenceTest, StepsMatchBitForBit) {
  // n = 2 and 4 lie below the db3/db4 filter lengths: every output wraps,
  // some windows more than once.
  for (WaveletKind kind : kAllKinds) {
    const WaveletFilter filter = WaveletFilter::Make(kind);
    Rng rng(11 + static_cast<uint64_t>(kind));
    for (size_t n = 2; n <= 4096; n *= 2) {
      const std::vector<double> x = WideRangeSignal(n, &rng);
      std::vector<double> s, d, ref_s, ref_d;
      DwtStep(filter, x, &s, &d);
      ModuloDwtStep(filter, x, &ref_s, &ref_d);
      EXPECT_TRUE(BitIdentical(s, ref_s)) << filter.name() << " n=" << n;
      EXPECT_TRUE(BitIdentical(d, ref_d)) << filter.name() << " n=" << n;

      const std::vector<double> hi = WideRangeSignal(n / 2, &rng);
      const std::vector<double> lo = WideRangeSignal(n / 2, &rng);
      std::vector<double> out, ref_out;
      IdwtStep(filter, lo, hi, &out);
      ModuloIdwtStep(filter, lo, hi, &ref_out);
      EXPECT_TRUE(BitIdentical(out, ref_out)) << filter.name() << " n=" << n;
    }
  }
}

TEST(DwtModuloReferenceTest, ForwardAndInverseMatchBitForBit) {
  for (WaveletKind kind : kAllKinds) {
    const WaveletFilter filter = WaveletFilter::Make(kind);
    Rng rng(23 + static_cast<uint64_t>(kind));
    for (size_t n = 2; n <= 4096; n *= 2) {
      const std::vector<double> x = WideRangeSignal(n, &rng);
      Result<std::vector<double>> coeffs = ForwardDwt(filter, x);
      ASSERT_TRUE(coeffs.ok());
      EXPECT_TRUE(BitIdentical(*coeffs, ModuloForwardDwt(filter, x)))
          << filter.name() << " n=" << n;
      Result<std::vector<double>> back = InverseDwt(filter, *coeffs);
      ASSERT_TRUE(back.ok());
      EXPECT_TRUE(BitIdentical(*back, ModuloInverseDwt(filter, *coeffs)))
          << filter.name() << " n=" << n;
    }
  }
}

TEST(DwtModuloReferenceTest, WaveletPacketTreeMatchesBitForBit) {
  for (WaveletKind kind : kAllKinds) {
    const WaveletFilter filter = WaveletFilter::Make(kind);
    Rng rng(37 + static_cast<uint64_t>(kind));
    for (size_t n = 2; n <= 4096; n *= 2) {
      const std::vector<double> x = WideRangeSignal(n, &rng);
      Result<WaveletPacketTree> tree = WaveletPacketTree::Build(filter, x);
      ASSERT_TRUE(tree.ok());
      // Every node against the reference split of its reference parent.
      std::vector<std::vector<std::vector<double>>> ref(
          static_cast<size_t>(tree->depth()) + 1);
      ref[0] = {x};
      for (int level = 0; level < tree->depth(); ++level) {
        for (const std::vector<double>& parent : ref[level]) {
          std::vector<double> low, high;
          ModuloDwtStep(filter, parent, &low, &high);
          ref[level + 1].push_back(std::move(low));
          ref[level + 1].push_back(std::move(high));
        }
      }
      for (int level = 0; level <= tree->depth(); ++level) {
        for (size_t b = 0; b < ref[level].size(); ++b) {
          EXPECT_TRUE(BitIdentical(tree->NodeCoefficients({level, b}),
                                   ref[level][b]))
              << filter.name() << " n=" << n << " node (" << level << ","
              << b << ")";
        }
      }
      // Reconstruction from the best basis merges siblings bottom-up; the
      // reference merges the same nodes with the modulo synthesis step.
      const std::vector<PacketNode> basis =
          tree->BestBasis(BasisCost::kShannonEntropy);
      Result<std::vector<double>> rebuilt =
          tree->Reconstruct(basis, tree->BasisCoefficients(basis));
      ASSERT_TRUE(rebuilt.ok());
      std::vector<std::vector<std::vector<double>>> scratch(ref.size());
      for (size_t level = 0; level < ref.size(); ++level) {
        scratch[level].resize(ref[level].size());
      }
      for (const PacketNode& node : basis) {
        scratch[node.level][node.block] = ref[node.level][node.block];
      }
      for (int level = tree->depth(); level >= 1; --level) {
        for (size_t b = 0; b < scratch[level].size(); b += 2) {
          if (scratch[level][b].empty()) continue;
          ModuloIdwtStep(filter, scratch[level][b], scratch[level][b + 1],
                         &scratch[level - 1][b / 2]);
        }
      }
      EXPECT_TRUE(BitIdentical(*rebuilt, scratch[0][0]))
          << filter.name() << " n=" << n;
    }
  }
}

}  // namespace
}  // namespace aims::signal
