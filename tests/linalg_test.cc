#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "linalg/eigen.h"
#include "linalg/matrix.h"
#include "recognition/incremental.h"
#include "recognition_parity.h"

namespace aims::linalg {
namespace {

Matrix RandomMatrix(size_t rows, size_t cols, Rng* rng) {
  Matrix m(rows, cols);
  for (double& x : m.data()) x = rng->Uniform(-1.0, 1.0);
  return m;
}

TEST(MatrixTest, BasicAccessAndShape) {
  Matrix m(2, 3);
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.cols(), 3u);
  EXPECT_FALSE(m.empty());
  m.At(1, 2) = 5.0;
  EXPECT_DOUBLE_EQ(m(1, 2), 5.0);
  EXPECT_DOUBLE_EQ(m(0, 0), 0.0);
}

TEST(MatrixTest, RowColSetRow) {
  Matrix m(2, 3, {1, 2, 3, 4, 5, 6});
  EXPECT_EQ(m.Row(1), (std::vector<double>{4, 5, 6}));
  EXPECT_EQ(m.Col(2), (std::vector<double>{3, 6}));
  m.SetRow(0, {7, 8, 9});
  EXPECT_EQ(m.Row(0), (std::vector<double>{7, 8, 9}));
}

TEST(MatrixTest, TransposeAndMultiply) {
  Matrix a(2, 3, {1, 2, 3, 4, 5, 6});
  Matrix at = a.Transpose();
  EXPECT_EQ(at.rows(), 3u);
  EXPECT_DOUBLE_EQ(at(2, 1), 6.0);
  Matrix b(3, 2, {7, 8, 9, 10, 11, 12});
  Matrix c = a.Multiply(b);
  EXPECT_EQ(c.rows(), 2u);
  EXPECT_EQ(c.cols(), 2u);
  EXPECT_DOUBLE_EQ(c(0, 0), 1 * 7 + 2 * 9 + 3 * 11);
  EXPECT_DOUBLE_EQ(c(1, 1), 4 * 8 + 5 * 10 + 6 * 12);
}

TEST(MatrixTest, GramEqualsTransposeTimesSelf) {
  Rng rng(1);
  Matrix a = RandomMatrix(5, 3, &rng);
  Matrix gram = a.Gram();
  Matrix expected = a.Transpose().Multiply(a);
  for (size_t i = 0; i < 3; ++i) {
    for (size_t j = 0; j < 3; ++j) {
      EXPECT_NEAR(gram(i, j), expected(i, j), 1e-12);
    }
  }
}

TEST(MatrixTest, CenterColumnsZeroesMeans) {
  Rng rng(2);
  Matrix a = RandomMatrix(10, 4, &rng);
  Matrix centered = a.CenterColumns();
  for (size_t c = 0; c < 4; ++c) {
    double mean = 0.0;
    for (size_t r = 0; r < 10; ++r) mean += centered(r, c);
    EXPECT_NEAR(mean / 10.0, 0.0, 1e-12);
  }
}

TEST(MatrixTest, ColumnCovarianceMatchesDefinition) {
  Matrix a(4, 2, {1, 10, 2, 20, 3, 30, 4, 40});
  Matrix cov = a.ColumnCovariance();
  // var(x) with x = 1..4 (sample): 5/3; cov(x, 10x) = 10 * var(x).
  EXPECT_NEAR(cov(0, 0), 5.0 / 3.0, 1e-12);
  EXPECT_NEAR(cov(0, 1), 50.0 / 3.0, 1e-12);
  EXPECT_NEAR(cov(1, 1), 500.0 / 3.0, 1e-12);
  EXPECT_DOUBLE_EQ(cov(0, 1), cov(1, 0));
}

TEST(MatrixTest, VectorHelpers) {
  std::vector<double> a = {3.0, 4.0};
  std::vector<double> b = {1.0, 0.0};
  EXPECT_DOUBLE_EQ(Dot(a, b), 3.0);
  EXPECT_DOUBLE_EQ(Norm(a), 5.0);
  EXPECT_DOUBLE_EQ(EuclideanDistance(a, b), std::sqrt(4.0 + 16.0));
}

TEST(EigenTest, DiagonalMatrix) {
  Matrix d(3, 3);
  d(0, 0) = 1.0;
  d(1, 1) = 5.0;
  d(2, 2) = 3.0;
  auto eig = SymmetricEigen(d);
  ASSERT_TRUE(eig.ok());
  const auto& e = eig.ValueOrDie();
  EXPECT_NEAR(e.values[0], 5.0, 1e-10);
  EXPECT_NEAR(e.values[1], 3.0, 1e-10);
  EXPECT_NEAR(e.values[2], 1.0, 1e-10);
}

TEST(EigenTest, KnownTwoByTwo) {
  // [[2, 1], [1, 2]] has eigenvalues 3 and 1.
  Matrix a(2, 2, {2, 1, 1, 2});
  auto eig = SymmetricEigen(a);
  ASSERT_TRUE(eig.ok());
  EXPECT_NEAR(eig.ValueOrDie().values[0], 3.0, 1e-10);
  EXPECT_NEAR(eig.ValueOrDie().values[1], 1.0, 1e-10);
}

TEST(EigenTest, EigenvectorsOrthonormalAndReconstruct) {
  Rng rng(3);
  Matrix base = RandomMatrix(20, 6, &rng);
  Matrix cov = base.ColumnCovariance();
  auto eig = SymmetricEigen(cov);
  ASSERT_TRUE(eig.ok());
  const auto& e = eig.ValueOrDie();
  // V^T V = I.
  for (size_t i = 0; i < 6; ++i) {
    for (size_t j = 0; j < 6; ++j) {
      double dot = 0.0;
      for (size_t r = 0; r < 6; ++r) {
        dot += e.vectors(r, i) * e.vectors(r, j);
      }
      EXPECT_NEAR(dot, i == j ? 1.0 : 0.0, 1e-9);
    }
  }
  // V diag(w) V^T == cov.
  for (size_t i = 0; i < 6; ++i) {
    for (size_t j = 0; j < 6; ++j) {
      double sum = 0.0;
      for (size_t k = 0; k < 6; ++k) {
        sum += e.values[k] * e.vectors(i, k) * e.vectors(j, k);
      }
      EXPECT_NEAR(sum, cov(i, j), 1e-9);
    }
  }
}

TEST(EigenTest, PsdMatrixHasNonNegativeEigenvalues) {
  Rng rng(4);
  Matrix base = RandomMatrix(30, 5, &rng);
  auto eig = SymmetricEigen(base.Gram());
  ASSERT_TRUE(eig.ok());
  for (double v : eig.ValueOrDie().values) {
    EXPECT_GE(v, -1e-9);
  }
}

TEST(EigenTest, RejectsNonSquare) {
  EXPECT_FALSE(SymmetricEigen(Matrix(2, 3)).ok());
}

TEST(SvdTest, ReconstructsMatrix) {
  Rng rng(5);
  Matrix a = RandomMatrix(8, 4, &rng);
  auto svd = Svd(a);
  ASSERT_TRUE(svd.ok());
  const auto& s = svd.ValueOrDie();
  // A == U diag(s) V^T.
  for (size_t i = 0; i < 8; ++i) {
    for (size_t j = 0; j < 4; ++j) {
      double sum = 0.0;
      for (size_t k = 0; k < 4; ++k) {
        sum += s.u(i, k) * s.values[k] * s.v(j, k);
      }
      EXPECT_NEAR(sum, a(i, j), 1e-8);
    }
  }
  // Singular values sorted descending and non-negative.
  for (size_t k = 1; k < s.values.size(); ++k) {
    EXPECT_LE(s.values[k], s.values[k - 1] + 1e-12);
    EXPECT_GE(s.values[k], 0.0);
  }
}

TEST(SvdTest, RankDeficientMatrix) {
  // Two identical columns: one singular value must be ~0.
  Matrix a(4, 2, {1, 1, 2, 2, 3, 3, 4, 4});
  auto svd = Svd(a);
  ASSERT_TRUE(svd.ok());
  EXPECT_GT(svd.ValueOrDie().values[0], 1.0);
  EXPECT_NEAR(svd.ValueOrDie().values[1], 0.0, 1e-9);
}

// ---- Hostile input ---------------------------------------------------------

TEST(EigenTest, NonFiniteEntriesAreInvalidArgument) {
  Rng rng(6);
  Matrix base = RandomMatrix(28, 28, &rng);
  base = base.Transpose().Multiply(base);
  for (double bad : {std::numeric_limits<double>::quiet_NaN(),
                     std::numeric_limits<double>::infinity(),
                     -std::numeric_limits<double>::infinity()}) {
    Matrix a = base;
    a(3, 5) = bad;
    a(5, 3) = bad;
    auto eig = SymmetricEigen(a);
    ASSERT_FALSE(eig.ok()) << bad;
    EXPECT_EQ(eig.status().code(), StatusCode::kInvalidArgument) << bad;
    // One triangle alone is refused too.
    Matrix lower = base;
    lower(5, 3) = bad;
    EXPECT_EQ(SymmetricEigen(lower).status().code(),
              StatusCode::kInvalidArgument)
        << bad;
  }
}

TEST(EigenTest, EigenvalueBeyondTheDoubleRangeIsOutOfRange) {
  const double big = std::numeric_limits<double>::max();
  auto eig = SymmetricEigen(Matrix(2, 2, {big, big, big, big}));
  ASSERT_FALSE(eig.ok());
  EXPECT_EQ(eig.status().code(), StatusCode::kOutOfRange);
}

// ---- The QL solver against the cyclic Jacobi it replaced -------------------

/// The cyclic Jacobi eigendecomposition SymmetricEigen ran before it
/// tridiagonalized: rotations until the off-diagonal norm is below 1e-12 of
/// the Frobenius norm, at most 64 sweeps. The reference the QL solver is
/// checked against.
EigenDecomposition JacobiReference(const Matrix& a) {
  const size_t n = a.rows();
  Matrix m = a;
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < i; ++j) {
      double avg = 0.5 * (m.At(i, j) + m.At(j, i));
      m.At(i, j) = avg;
      m.At(j, i) = avg;
    }
  }
  Matrix v = Matrix::Identity(n);
  auto off_diagonal_norm = [&]() {
    double acc = 0.0;
    for (size_t i = 0; i < n; ++i) {
      for (size_t j = i + 1; j < n; ++j) acc += m.At(i, j) * m.At(i, j);
    }
    return std::sqrt(acc);
  };
  const double scale = std::max(m.FrobeniusNorm(), 1e-300);
  for (int sweep = 0; sweep < 64; ++sweep) {
    if (off_diagonal_norm() <= 1e-12 * scale) break;
    for (size_t p = 0; p < n; ++p) {
      for (size_t q = p + 1; q < n; ++q) {
        double apq = m.At(p, q);
        if (std::fabs(apq) <= 1e-300) continue;
        double app = m.At(p, p);
        double aqq = m.At(q, q);
        double theta = (aqq - app) / (2.0 * apq);
        double t = (theta >= 0 ? 1.0 : -1.0) /
                   (std::fabs(theta) + std::sqrt(theta * theta + 1.0));
        double c = 1.0 / std::sqrt(t * t + 1.0);
        double s = t * c;
        for (size_t k = 0; k < n; ++k) {
          double mkp = m.At(k, p);
          double mkq = m.At(k, q);
          m.At(k, p) = c * mkp - s * mkq;
          m.At(k, q) = s * mkp + c * mkq;
        }
        for (size_t k = 0; k < n; ++k) {
          double mpk = m.At(p, k);
          double mqk = m.At(q, k);
          m.At(p, k) = c * mpk - s * mqk;
          m.At(q, k) = s * mpk + c * mqk;
        }
        for (size_t k = 0; k < n; ++k) {
          double vkp = v.At(k, p);
          double vkq = v.At(k, q);
          v.At(k, p) = c * vkp - s * vkq;
          v.At(k, q) = s * vkp + c * vkq;
        }
      }
    }
  }
  EigenDecomposition out;
  out.values.resize(n);
  std::vector<size_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  std::vector<double> diag(n);
  for (size_t i = 0; i < n; ++i) diag[i] = m.At(i, i);
  std::sort(order.begin(), order.end(),
            [&](size_t x, size_t y) { return diag[x] > diag[y]; });
  out.vectors = Matrix(n, n);
  for (size_t c = 0; c < n; ++c) {
    out.values[c] = diag[order[c]];
    for (size_t r = 0; r < n; ++r) out.vectors.At(r, c) = v.At(r, order[c]);
  }
  return out;
}

/// The largest |entry| of \p a.
double Largest(const Matrix& a) {
  double largest = 0.0;
  for (double x : a.data()) largest = std::max(largest, std::fabs(x));
  return largest;
}

/// The Frobenius norm of \p a, summed over a / Largest(a) so no square
/// overflows.
double SafeFrobenius(const Matrix& a) {
  const double largest = Largest(a);
  if (largest == 0.0) return 0.0;
  double acc = 0.0;
  for (double x : a.data()) acc += (x / largest) * (x / largest);
  return largest * std::sqrt(acc);
}

/// Checks \p got, the decomposition of \p a, on its own: eigenvalues
/// descending, each residual |A v - lambda v| within 64 n eps |A|_F, and V
/// orthonormal within 64 n eps. Every quantity is formed over a / |a|_max,
/// so a matrix near the double range checks like any other.
void ExpectDecomposes(const Matrix& a, const EigenDecomposition& got,
                      const std::string& what) {
  const size_t n = a.rows();
  const double eps = std::numeric_limits<double>::epsilon();
  ASSERT_EQ(got.values.size(), n) << what;
  ASSERT_EQ(got.vectors.rows(), n) << what;
  ASSERT_EQ(got.vectors.cols(), n) << what;
  for (size_t i = 1; i < n; ++i) {
    EXPECT_GE(got.values[i - 1], got.values[i]) << what << " at " << i;
  }
  const double unit = Largest(a) > 0.0 ? Largest(a) : 1.0;
  const double norm = SafeFrobenius(a) / unit;
  double worst_residual = 0.0, worst_orthogonality = 0.0;
  for (size_t i = 0; i < n; ++i) {
    double acc = 0.0;
    for (size_t r = 0; r < n; ++r) {
      double av = 0.0;
      for (size_t k = 0; k < n; ++k) {
        av += (0.5 * a(r, k) / unit + 0.5 * a(k, r) / unit) *
              got.vectors(k, i);
      }
      const double diff = av - got.values[i] / unit * got.vectors(r, i);
      acc += diff * diff;
    }
    worst_residual = std::max(worst_residual, std::sqrt(acc));
    for (size_t j = 0; j < n; ++j) {
      double dot = 0.0;
      for (size_t r = 0; r < n; ++r) dot += got.vectors(r, i) * got.vectors(r, j);
      worst_orthogonality =
          std::max(worst_orthogonality, std::fabs(dot - (i == j ? 1.0 : 0.0)));
    }
  }
  const double bound = 64.0 * static_cast<double>(n) * eps;
  EXPECT_LE(worst_residual, bound * norm) << what;
  EXPECT_LE(worst_orthogonality, bound) << what;
}

/// Checks SymmetricEigen(a) against the Jacobi reference: eigenvalues within
/// 1e-12 |A|_F, and every eigenvector whose eigenvalue stands more than
/// 1e-3 |A|_F from every other equal to the reference's up to sign within
/// 1e-8 (the reference's own error is about its 1e-12 |A|_F stopping norm
/// over that gap).
void ExpectMatchesReference(const Matrix& a, const std::string& what) {
  auto eig = SymmetricEigen(a);
  ASSERT_TRUE(eig.ok()) << what << ": " << eig.status().ToString();
  const EigenDecomposition& got = eig.ValueOrDie();
  ExpectDecomposes(a, got, what);
  if (::testing::Test::HasFailure()) return;
  const EigenDecomposition want = JacobiReference(a);
  const size_t n = a.rows();
  const double norm = SafeFrobenius(a);
  for (size_t i = 0; i < n; ++i) {
    EXPECT_NEAR(got.values[i], want.values[i], 1e-12 * norm)
        << what << " eigenvalue " << i;
    double gap = std::numeric_limits<double>::infinity();
    for (size_t j = 0; j < n; ++j) {
      if (j != i) gap = std::min(gap, std::fabs(want.values[i] - want.values[j]));
    }
    if (gap <= 1e-3 * norm) continue;
    double dot = 0.0;
    for (size_t r = 0; r < n; ++r) dot += got.vectors(r, i) * want.vectors(r, i);
    const double sign = dot < 0.0 ? -1.0 : 1.0;
    for (size_t r = 0; r < n; ++r) {
      EXPECT_NEAR(got.vectors(r, i), sign * want.vectors(r, i), 1e-8)
          << what << " eigenvector " << i << " entry " << r;
    }
  }
}

constexpr size_t kSizes[] = {1, 2, 3, 4, 7, 16, 28, 40};

Matrix GaussianSymmetric(size_t n, Rng* rng) {
  Matrix a(n, n);
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j <= i; ++j) {
      a(i, j) = rng->Gaussian();
      a(j, i) = a(i, j);
    }
  }
  return a;
}

TEST(SymmetricEigenReferenceTest, GaussianSymmetricMatrices) {
  Rng rng(2026);
  for (size_t n : kSizes) {
    for (int trial = 0; trial < 4; ++trial) {
      ExpectMatchesReference(GaussianSymmetric(n, &rng),
                             "n " + std::to_string(n) + " trial " +
                                 std::to_string(trial));
      if (HasFailure()) return;
    }
  }
}

TEST(SymmetricEigenReferenceTest, RankDeficientCovariances) {
  // Fewer rows than columns: the covariance has rank rows - 1 at most, so
  // most eigenvalues are zero up to rounding.
  Rng rng(7);
  for (size_t n : kSizes) {
    const size_t rows = std::max<size_t>(2, n / 2);
    Matrix base(rows, n);
    for (double& x : base.data()) x = rng.Gaussian(3.0, 2.0);
    ExpectMatchesReference(base.ColumnCovariance(),
                           "n " + std::to_string(n) + " rows " +
                               std::to_string(rows));
    if (HasFailure()) return;
  }
}

TEST(SymmetricEigenReferenceTest, StructuredMatrices) {
  Rng rng(11);
  for (size_t n : kSizes) {
    const std::string at = "n " + std::to_string(n);
    // Diagonal with repeated values.
    Matrix diagonal(n, n);
    for (size_t i = 0; i < n; ++i) diagonal(i, i) = static_cast<double>((i * 7) % 3);
    ExpectMatchesReference(diagonal, at + " diagonal");
    ExpectMatchesReference(Matrix(n, n), at + " zero");
    ExpectMatchesReference(Matrix::Identity(n), at + " identity");
    // Negative definite: -(B^T B + I).
    Matrix b = RandomMatrix(n + 3, n, &rng);
    Matrix negative = b.Gram();
    for (size_t i = 0; i < n; ++i) {
      for (size_t j = 0; j < n; ++j) {
        negative(i, j) = -negative(i, j) - (i == j ? 1.0 : 0.0);
      }
    }
    ExpectMatchesReference(negative, at + " negative definite");
    // Already tridiagonal.
    Matrix tridiagonal(n, n);
    for (size_t i = 0; i < n; ++i) {
      tridiagonal(i, i) = rng.Gaussian();
      if (i + 1 < n) {
        tridiagonal(i, i + 1) = rng.Gaussian();
        tridiagonal(i + 1, i) = tridiagonal(i, i + 1);
      }
    }
    ExpectMatchesReference(tridiagonal, at + " tridiagonal");
    // Block diagonal: a diagonal with an exact 2 x 2 block [[2, 1], [1, 2]]
    // (eigenvalues 3 and 1) in its middle.
    if (n >= 2) {
      Matrix block(n, n);
      for (size_t i = 0; i < n; ++i) block(i, i) = 10.0 + static_cast<double>(i);
      const size_t at_row = (n - 2) / 2;
      block(at_row, at_row) = 2.0;
      block(at_row + 1, at_row + 1) = 2.0;
      block(at_row, at_row + 1) = 1.0;
      block(at_row + 1, at_row) = 1.0;
      ExpectMatchesReference(block, at + " block diagonal");
    }
    if (HasFailure()) return;
  }
}

TEST(SymmetricEigenReferenceTest, SingularTwoByTwoBlockGivesAnExactZero) {
  // [[c, c], [c, c]] has eigenvalues 2c and exactly 0; the closed-form 2 x 2
  // step must not leave a rounding residue where the zero is.
  for (double c : {1.0, 30.0, 0.1, 1e-200, 1e200}) {
    auto eig = SymmetricEigen(Matrix(2, 2, {c, c, c, c}));
    ASSERT_TRUE(eig.ok());
    EXPECT_DOUBLE_EQ(eig->values[0], 2.0 * c) << c;
    EXPECT_EQ(eig->values[1], 0.0) << c;
  }
}

/// The open segment's covariance at every evaluation the recognizer makes
/// on \p stream, replayed beside it with the same accumulator: a segment
/// opens back-dated to the activity window's start, and each evaluation
/// covers every frame through the one just pushed.
std::vector<Matrix> EvaluatedCovariances(const parity::ParityStream& stream) {
  recognition::WeightedSvdSimilarity measure;
  recognition::StreamRecognizer recognizer(&stream.vocabulary, &measure,
                                           stream.config);
  const std::vector<streams::Frame>& frames = stream.recording.frames;
  recognition::IncrementalCovariance covariance(stream.recording.num_channels());
  std::vector<Matrix> out;
  bool open = false;
  size_t evaluations = 0;
  auto take = [&]() {
    if (recognizer.evaluations() == evaluations) return;
    evaluations = recognizer.evaluations();
    out.push_back(covariance.Covariance().ValueOrDie());
  };
  for (size_t f = 0; f < frames.size(); ++f) {
    EXPECT_TRUE(recognizer.Push(frames[f]).ok());
    if (!open && recognizer.segment_open()) {
      open = true;
      const size_t window = std::min(f + 1, stream.config.activity_window);
      covariance.Reset();
      for (size_t i = f + 1 - window; i <= f; ++i) covariance.Add(frames[i].values);
    } else if (open) {
      covariance.Add(frames[f].values);
    }
    take();
    open = recognizer.segment_open();
  }
  EXPECT_TRUE(recognizer.Finish().ok());
  take();
  EXPECT_EQ(out.size(), recognizer.evaluations());
  return out;
}

TEST(SymmetricEigenReferenceTest, ParityStreamEvaluations) {
  // The E8 streams at the glove's 100 Hz: every covariance the recognizer
  // diagonalizes on them.
  size_t checked = 0;
  for (size_t index = 0; index < parity::kNumStreams / 2; ++index) {
    const parity::ParityStream stream = parity::MakeParityStream(index);
    const std::vector<Matrix> covariances = EvaluatedCovariances(stream);
    EXPECT_FALSE(covariances.empty()) << stream.name;
    for (size_t e = 0; e < covariances.size(); ++e) {
      ASSERT_EQ(covariances[e].rows(), 28u);
      ExpectMatchesReference(covariances[e],
                             stream.name + " evaluation " + std::to_string(e));
      if (HasFailure()) return;
    }
    checked += covariances.size();
  }
  EXPECT_GT(checked, 100u);
}

TEST(SymmetricEigenReferenceTest, PowerOfTwoScalingIsExact) {
  // 2^k A decomposes as A does: eigenvalues times 2^k, the same
  // eigenvectors. Where every entry of 2^k A is exact, so is the result,
  // bit for bit.
  Rng rng(13);
  size_t exact_cases = 0;
  for (size_t n : {2, 7, 28}) {
    const Matrix a = GaussianSymmetric(n, &rng);
    const EigenDecomposition base = SymmetricEigen(a).ValueOrDie();
    for (int k : {-1000, -600, 600, 1000}) {
      const std::string what = "n " + std::to_string(n) + " k " + std::to_string(k);
      Matrix scaled = a;
      bool exact = true;
      for (double& x : scaled.data()) {
        const double original = x;
        x = std::ldexp(x, k);
        exact = exact && std::ldexp(x, -k) == original;
      }
      auto eig = SymmetricEigen(scaled);
      ASSERT_TRUE(eig.ok()) << what;
      ExpectDecomposes(scaled, *eig, what);
      for (size_t i = 0; i < n; ++i) {
        const double want = std::ldexp(base.values[i], k);
        EXPECT_NEAR(eig->values[i], want, 1e-13 * std::fabs(want)) << what;
        double dot = 0.0;
        for (size_t r = 0; r < n; ++r) dot += eig->vectors(r, i) * base.vectors(r, i);
        EXPECT_NEAR(std::fabs(dot), 1.0, 1e-12) << what << " vector " << i;
      }
      if (exact) {
        ++exact_cases;
        for (size_t i = 0; i < n; ++i) {
          EXPECT_EQ(eig->values[i], std::ldexp(base.values[i], k)) << what;
        }
        EXPECT_EQ(eig->vectors.data(), base.vectors.data()) << what;
      }
    }
  }
  EXPECT_GE(exact_cases, 10u);
}

TEST(SymmetricEigenReferenceTest, HugeFiniteEntryDecomposes) {
  // One entry of 1e300: its square overflows, so an unscaled norm is
  // infinite. The decomposition must still meet the residual and
  // orthogonality bounds.
  Rng rng(17);
  for (size_t n : {2, 7, 28}) {
    Matrix a = GaussianSymmetric(n, &rng);
    a(0, n - 1) = 1e300;
    a(n - 1, 0) = 1e300;
    auto eig = SymmetricEigen(a);
    ASSERT_TRUE(eig.ok()) << eig.status().ToString();
    ExpectDecomposes(a, *eig, "n " + std::to_string(n));
    EXPECT_NEAR(eig->values.front(), 1e300, 1e-12 * 1e300);
    EXPECT_NEAR(eig->values.back(), -1e300, 1e-12 * 1e300);
  }
}

TEST(SymmetricEigenReferenceTest, ScaledFramesScaleTheSpectrum) {
  // Frames times 2^500: the covariance is times 2^1000 and still finite.
  // Its spectrum is the unscaled one, with eigenvalues times 2^1000.
  Rng rng(19);
  recognition::IncrementalCovariance plain(6), scaled(6);
  for (int f = 0; f < 40; ++f) {
    std::vector<double> values(6);
    for (double& x : values) x = rng.Gaussian();
    plain.Add(values);
    for (double& x : values) x = std::ldexp(x, 500);
    scaled.Add(values);
  }
  const EigenDecomposition want = plain.Spectrum().ValueOrDie();
  auto got = scaled.Spectrum();
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  for (size_t i = 0; i < 6; ++i) {
    const double expected = std::ldexp(want.values[i], 1000);
    EXPECT_NEAR(got->values[i], expected, 1e-12 * std::fabs(expected));
    double dot = 0.0;
    for (size_t r = 0; r < 6; ++r) dot += got->vectors(r, i) * want.vectors(r, i);
    EXPECT_NEAR(std::fabs(dot), 1.0, 1e-12);
  }
}

}  // namespace
}  // namespace aims::linalg
