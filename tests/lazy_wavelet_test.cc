#include "signal/lazy_wavelet.h"

#include <cmath>
#include <cstring>
#include <map>
#include <set>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "signal/dwt.h"
#include "test_util.h"

namespace aims::signal {
namespace {

using ::aims::testutil::RandomSignal;

double MaxEntryDiff(const SparseCoefficients& a, const SparseCoefficients& b) {
  std::map<size_t, double> merged;
  for (const auto& [i, v] : a.entries) merged[i] += v;
  for (const auto& [i, v] : b.entries) merged[i] -= v;
  double m = 0.0;
  for (const auto& [i, v] : merged) {
    (void)i;
    m = std::max(m, std::fabs(v));
  }
  return m;
}

struct LazyCase {
  WaveletKind kind;
  size_t n;
  int degree;
};

class LazyWaveletTest : public ::testing::TestWithParam<LazyCase> {};

TEST_P(LazyWaveletTest, MatchesDenseTransformOnRandomRanges) {
  const LazyCase& c = GetParam();
  WaveletFilter filter = WaveletFilter::Make(c.kind);
  Rng rng(static_cast<uint64_t>(c.n) * 7 + static_cast<uint64_t>(c.degree));
  Polynomial poly = Polynomial::Monomial(c.degree);
  for (int trial = 0; trial < 8; ++trial) {
    size_t a = static_cast<size_t>(
        rng.UniformInt(0, static_cast<int64_t>(c.n) - 1));
    size_t b = static_cast<size_t>(
        rng.UniformInt(0, static_cast<int64_t>(c.n) - 1));
    size_t lo = std::min(a, b), hi = std::max(a, b);
    auto lazy = LazyWaveletTransform(filter, c.n, lo, hi, poly);
    ASSERT_TRUE(lazy.ok()) << lazy.status().ToString();
    auto dense = DenseQueryTransform(filter, c.n, lo, hi, poly, 1e-7);
    ASSERT_TRUE(dense.ok());
    // Tolerance scales with coefficient magnitude (x^k queries grow large).
    double scale = 1.0;
    for (const auto& [i, v] : dense.ValueOrDie().entries) {
      (void)i;
      scale = std::max(scale, std::fabs(v));
    }
    EXPECT_LT(MaxEntryDiff(lazy.ValueOrDie(), dense.ValueOrDie()),
              1e-7 * scale)
        << "range [" << lo << "," << hi << "]";
  }
}

TEST_P(LazyWaveletTest, RangeSumViaParsevalMatchesDirectSum) {
  const LazyCase& c = GetParam();
  WaveletFilter filter = WaveletFilter::Make(c.kind);
  Rng rng(static_cast<uint64_t>(c.n) * 13 + 1);
  std::vector<double> data = RandomSignal(c.n, &rng);
  auto transformed = ForwardDwt(filter, data);
  ASSERT_TRUE(transformed.ok());
  Polynomial poly = Polynomial::Monomial(c.degree);
  size_t lo = c.n / 8, hi = c.n - c.n / 8 - 1;
  auto lazy = LazyWaveletTransform(filter, c.n, lo, hi, poly);
  ASSERT_TRUE(lazy.ok());
  double via_wavelets = lazy.ValueOrDie().Dot(transformed.ValueOrDie());
  double direct = 0.0;
  for (size_t i = lo; i <= hi; ++i) {
    direct += poly.Eval(static_cast<double>(i)) * data[i];
  }
  EXPECT_NEAR(via_wavelets, direct,
              1e-7 * std::max(1.0, std::fabs(direct)));
}

TEST_P(LazyWaveletTest, SparsityIsPolylogarithmic) {
  const LazyCase& c = GetParam();
  WaveletFilter filter = WaveletFilter::Make(c.kind);
  Polynomial poly = Polynomial::Monomial(c.degree);
  size_t lo = 3, hi = c.n - 5;
  auto lazy = LazyWaveletTransform(filter, c.n, lo, hi, poly);
  ASSERT_TRUE(lazy.ok());
  double lg = std::log2(static_cast<double>(c.n));
  // Generous constant: ~4 boundary coefficients per filter tap per level.
  double bound = 4.0 * static_cast<double>(filter.length()) * lg + 16.0;
  EXPECT_LE(static_cast<double>(lazy.ValueOrDie().size()), bound)
      << "n=" << c.n << " filter=" << filter.name();
}

INSTANTIATE_TEST_SUITE_P(
    Cases, LazyWaveletTest,
    ::testing::Values(LazyCase{WaveletKind::kHaar, 64, 0},
                      LazyCase{WaveletKind::kHaar, 1024, 0},
                      LazyCase{WaveletKind::kDb2, 64, 0},
                      LazyCase{WaveletKind::kDb2, 256, 1},
                      LazyCase{WaveletKind::kDb2, 1024, 1},
                      LazyCase{WaveletKind::kDb3, 256, 2},
                      LazyCase{WaveletKind::kDb3, 1024, 2},
                      LazyCase{WaveletKind::kDb4, 256, 3},
                      LazyCase{WaveletKind::kDb4, 4096, 2}),
    [](const auto& info) {
      return std::string(WaveletKindName(info.param.kind)) + "_n" +
             std::to_string(info.param.n) + "_deg" +
             std::to_string(info.param.degree);
    });

TEST(LazyWaveletEdge, PointQuery) {
  WaveletFilter filter = WaveletFilter::Make(WaveletKind::kDb2);
  const size_t n = 256;
  auto lazy = LazyWaveletTransform(filter, n, 100, 100,
                                   Polynomial::Constant(1.0));
  ASSERT_TRUE(lazy.ok());
  auto dense =
      DenseQueryTransform(filter, n, 100, 100, Polynomial::Constant(1.0));
  ASSERT_TRUE(dense.ok());
  EXPECT_LT(MaxEntryDiff(lazy.ValueOrDie(), dense.ValueOrDie()), 1e-9);
}

TEST(LazyWaveletEdge, FullDomainConstantIsSingleCoefficient) {
  WaveletFilter haar = WaveletFilter::Make(WaveletKind::kHaar);
  const size_t n = 512;
  auto lazy =
      LazyWaveletTransform(haar, n, 0, n - 1, Polynomial::Constant(1.0));
  ASSERT_TRUE(lazy.ok());
  // The constant function is pure scaling: only index 0 survives.
  ASSERT_EQ(lazy.ValueOrDie().size(), 1u);
  EXPECT_EQ(lazy.ValueOrDie().entries[0].first, 0u);
  EXPECT_NEAR(lazy.ValueOrDie().entries[0].second,
              std::sqrt(static_cast<double>(n)), 1e-9);
}

TEST(LazyWaveletEdge, BoundaryRanges) {
  WaveletFilter db2 = WaveletFilter::Make(WaveletKind::kDb2);
  const size_t n = 128;
  for (auto [lo, hi] : std::vector<std::pair<size_t, size_t>>{
           {0, 0}, {n - 1, n - 1}, {0, n - 1}, {0, 63}, {64, n - 1}}) {
    auto lazy =
        LazyWaveletTransform(db2, n, lo, hi, Polynomial::Monomial(1));
    ASSERT_TRUE(lazy.ok());
    auto dense = DenseQueryTransform(db2, n, lo, hi, Polynomial::Monomial(1));
    ASSERT_TRUE(dense.ok());
    double scale = 1.0;
    for (const auto& [i, v] : dense.ValueOrDie().entries) {
      (void)i;
      scale = std::max(scale, std::fabs(v));
    }
    EXPECT_LT(MaxEntryDiff(lazy.ValueOrDie(), dense.ValueOrDie()),
              1e-8 * scale)
        << lo << ".." << hi;
  }
}

TEST(LazyWaveletEdge, DegreeTooHighForFilterFails) {
  WaveletFilter haar = WaveletFilter::Make(WaveletKind::kHaar);
  auto result =
      LazyWaveletTransform(haar, 64, 0, 31, Polynomial::Monomial(1));
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

TEST(LazyWaveletEdge, BadArgumentsFail) {
  WaveletFilter db2 = WaveletFilter::Make(WaveletKind::kDb2);
  EXPECT_FALSE(
      LazyWaveletTransform(db2, 100, 0, 10, Polynomial::Constant(1)).ok());
  EXPECT_FALSE(
      LazyWaveletTransform(db2, 64, 10, 5, Polynomial::Constant(1)).ok());
  EXPECT_FALSE(
      LazyWaveletTransform(db2, 64, 0, 64, Polynomial::Constant(1)).ok());
}

// ---------------------------------------------------------------------------
// The map/set transform the flat one replaced, kept as the bit-for-bit
// reference (as dwt_test keeps the `% n` convolution for DwtStep): each
// level's explicit values in a std::map, its candidate outputs in a
// std::set, and the interior as a heap Polynomial composed per tap.

struct ReferenceLevel {
  size_t n = 0;
  bool has_interior = false;
  size_t interior_lo = 0;
  size_t interior_hi = 0;
  Polynomial poly;
  std::map<size_t, double> explicit_values;

  double ValueAt(size_t i) const {
    auto it = explicit_values.find(i);
    if (it != explicit_values.end()) return it->second;
    if (has_interior && i >= interior_lo && i <= interior_hi) {
      return poly.Eval(static_cast<double>(i));
    }
    return 0.0;
  }

  void MaterializeInterior() {
    if (!has_interior) return;
    for (size_t i = interior_lo; i <= interior_hi; ++i) {
      explicit_values[i] = poly.Eval(static_cast<double>(i));
    }
    has_interior = false;
  }
};

double ReferenceMaxAbsCoeff(const Polynomial& p) {
  double m = 0.0;
  for (double c : p.coeffs()) m = std::max(m, std::fabs(c));
  return m;
}

Result<SparseCoefficients> ReferenceLazyTransform(const WaveletFilter& filter,
                                                  size_t n, size_t lo,
                                                  size_t hi,
                                                  const Polynomial& poly) {
  if (!IsPowerOfTwo(n) || lo > hi || hi >= n ||
      poly.degree() >= filter.vanishing_moments()) {
    return Status::InvalidArgument("reference: bad arguments");
  }
  const auto& h = filter.lowpass();
  const auto& g = filter.highpass();
  const size_t L = filter.length();
  const int levels = MaxLevels(n);

  SparseCoefficients result;
  ReferenceLevel state;
  state.n = n;
  state.has_interior = true;
  state.interior_lo = lo;
  state.interior_hi = hi;
  state.poly = poly;

  for (int level = 1; level <= levels; ++level) {
    const size_t n_cur = state.n;
    const size_t n_half = n_cur / 2;
    if (state.has_interior && n_cur <= std::max<size_t>(4 * L, 8)) {
      state.MaterializeInterior();
    }
    bool out_has_interior = false;
    size_t out_lo = 0, out_hi = 0;
    Polynomial out_poly;
    if (state.has_interior) {
      size_t jlo = (state.interior_lo + 1) / 2;
      if (state.interior_hi + 1 >= L) {
        size_t jhi = (state.interior_hi - (L - 1)) / 2;
        if (jlo <= jhi && jhi < n_half) {
          out_has_interior = true;
          out_lo = jlo;
          out_hi = jhi;
        }
      }
      if (!out_has_interior) state.MaterializeInterior();
    }
    if (out_has_interior) {
      Polynomial detail_poly;
      for (size_t t = 0; t < L; ++t) {
        Polynomial shifted =
            state.poly.ComposeAffine(2.0, static_cast<double>(t));
        out_poly.AddScaled(shifted, h[t]);
        detail_poly.AddScaled(shifted, g[t]);
      }
      double scale = std::max(1.0, ReferenceMaxAbsCoeff(out_poly));
      if (ReferenceMaxAbsCoeff(detail_poly) > 1e-6 * scale) {
        return Status::Internal("reference: interior details did not vanish");
      }
    }
    std::set<size_t> touched_inputs;
    for (const auto& [i, v] : state.explicit_values) {
      (void)v;
      touched_inputs.insert(i);
    }
    if (state.has_interior) {
      size_t zone = L;
      size_t lo_end = std::min(state.interior_lo + zone, state.interior_hi);
      for (size_t i = state.interior_lo; i <= lo_end; ++i) {
        touched_inputs.insert(i);
      }
      size_t hi_start = state.interior_hi >= zone
                            ? std::max(state.interior_hi - zone,
                                       state.interior_lo)
                            : state.interior_lo;
      for (size_t i = hi_start; i <= state.interior_hi; ++i) {
        touched_inputs.insert(i);
      }
    }
    std::set<size_t> candidates;
    for (size_t i : touched_inputs) {
      for (size_t t = 0; t < L; ++t) {
        size_t m = (i + n_cur - t % n_cur) % n_cur;
        if (m % 2 == 0) {
          size_t j = m / 2;
          if (j < n_half) candidates.insert(j);
        }
      }
    }
    ReferenceLevel next;
    next.n = n_half;
    next.has_interior = out_has_interior;
    next.interior_lo = out_lo;
    next.interior_hi = out_hi;
    next.poly = out_poly;
    for (size_t j : candidates) {
      if (out_has_interior && j >= out_lo && j <= out_hi) continue;
      double s = 0.0, d = 0.0;
      for (size_t t = 0; t < L; ++t) {
        double v = state.ValueAt((2 * j + t) % n_cur);
        s += h[t] * v;
        d += g[t] * v;
      }
      if (std::fabs(d) > 1e-12) {
        result.entries.emplace_back(DetailIndex(n, level, j), d);
      }
      if (std::fabs(s) > 1e-14) next.explicit_values[j] = s;
    }
    state = std::move(next);
  }
  double root = state.ValueAt(0);
  if (std::fabs(root) > 1e-12) result.entries.emplace_back(0, root);
  std::sort(result.entries.begin(), result.entries.end());
  return result;
}

bool BitIdentical(const SparseCoefficients& a, const SparseCoefficients& b) {
  if (a.entries.size() != b.entries.size()) return false;
  for (size_t k = 0; k < a.entries.size(); ++k) {
    if (a.entries[k].first != b.entries[k].first ||
        std::memcmp(&a.entries[k].second, &b.entries[k].second,
                    sizeof(double)) != 0) {
      return false;
    }
  }
  return true;
}

constexpr WaveletKind kAllKinds[] = {WaveletKind::kHaar, WaveletKind::kDb2,
                                     WaveletKind::kDb3, WaveletKind::kDb4};

/// The polynomials a degree is exercised with: the monomial, a seeded
/// polynomial with coefficients spanning 8 decades, and (degree >= 1) one
/// whose leading coefficient sits below the interior's trim threshold.
std::vector<Polynomial> PolynomialsOfDegree(int degree, Rng* rng) {
  std::vector<Polynomial> out = {Polynomial::Monomial(degree)};
  std::vector<double> wide(static_cast<size_t>(degree) + 1);
  for (double& c : wide) {
    c = rng->Uniform(-1.0, 1.0) * std::pow(10.0, rng->UniformInt(-4, 4));
  }
  out.emplace_back(wide);
  if (degree >= 1) {
    std::vector<double> tiny_lead(static_cast<size_t>(degree) + 1, 0.5);
    tiny_lead.back() = 3e-13;
    out.emplace_back(tiny_lead);
  }
  return out;
}

TEST(LazyWaveletReferenceTest, MatchesMapSetTransformBitForBit) {
  size_t transforms = 0;
  for (WaveletKind kind : kAllKinds) {
    const WaveletFilter filter = WaveletFilter::Make(kind);
    Rng rng(101 + static_cast<uint64_t>(kind));
    for (size_t n = 8; n <= 65536; n *= 2) {
      // Point ranges at both ends and inside, the full domain, then
      // seeded ranges of log-uniform width.
      std::vector<std::pair<size_t, size_t>> ranges = {
          {0, 0}, {n - 1, n - 1}, {n / 2, n / 2}, {0, n - 1}};
      for (int r = 0; r < 24; ++r) {
        const double log_width =
            rng.Uniform(0.0, std::log2(static_cast<double>(n)));
        const size_t width =
            std::min(n, static_cast<size_t>(std::exp2(log_width)));
        const size_t lo = static_cast<size_t>(
            rng.UniformInt(0, static_cast<int64_t>(n - width)));
        ranges.emplace_back(lo, lo + width - 1);
      }
      for (int degree = 0; degree < filter.vanishing_moments(); ++degree) {
        for (const Polynomial& poly : PolynomialsOfDegree(degree, &rng)) {
          for (const auto& [lo, hi] : ranges) {
            auto flat = LazyWaveletTransform(filter, n, lo, hi, poly);
            auto reference = ReferenceLazyTransform(filter, n, lo, hi, poly);
            ASSERT_EQ(flat.ok(), reference.ok())
                << filter.name() << " n=" << n << " [" << lo << "," << hi
                << "] degree " << degree;
            if (!flat.ok()) {
              EXPECT_EQ(flat.status().code(), reference.status().code());
              continue;
            }
            EXPECT_TRUE(BitIdentical(*flat, *reference))
                << filter.name() << " n=" << n << " [" << lo << "," << hi
                << "] degree " << degree;
            ++transforms;
          }
        }
      }
    }
  }
  EXPECT_GT(transforms, 10000u);
}

TEST(SparseCoefficientsTest, ByMagnitudeAndEnergy) {
  SparseCoefficients sparse;
  sparse.entries = {{0, 1.0}, {3, -5.0}, {7, 2.0}};
  auto sorted = sparse.ByMagnitude();
  ASSERT_EQ(sorted.size(), 3u);
  EXPECT_EQ(sorted[0].first, 3u);
  EXPECT_EQ(sorted[1].first, 7u);
  EXPECT_EQ(sorted[2].first, 0u);
  EXPECT_NEAR(sparse.EnergySquared(), 1.0 + 25.0 + 4.0, 1e-12);
  std::vector<double> dense(8, 1.0);
  EXPECT_NEAR(sparse.Dot(dense), -2.0, 1e-12);
}

}  // namespace
}  // namespace aims::signal
