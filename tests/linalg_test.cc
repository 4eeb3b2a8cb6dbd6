#include <cmath>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "linalg/eigen.h"
#include "linalg/matrix.h"

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

}  // namespace
}  // namespace aims::linalg
