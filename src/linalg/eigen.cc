#include "linalg/eigen.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "common/macros.h"

namespace aims::linalg {

Result<EigenDecomposition> SymmetricEigen(const Matrix& a, int max_sweeps,
                                          double tol) {
  if (a.rows() != a.cols()) {
    return Status::InvalidArgument("SymmetricEigen: matrix must be square");
  }
  const size_t n = a.rows();
  Matrix m = a;
  // Symmetrize defensively (callers pass covariance/Gram matrices).
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

  double scale = std::max(m.FrobeniusNorm(), 1e-300);
  for (int sweep = 0; sweep < max_sweeps; ++sweep) {
    if (off_diagonal_norm() <= tol * scale) break;
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
        // Apply the rotation J(p, q, theta) on both sides of m.
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

Result<SvdDecomposition> Svd(const Matrix& a) {
  if (a.empty()) return Status::InvalidArgument("Svd: empty matrix");
  const size_t n = a.cols();
  Matrix gram = a.Gram();  // n x n
  AIMS_ASSIGN_OR_RETURN(EigenDecomposition eig, SymmetricEigen(gram));
  SvdDecomposition out;
  out.values.resize(n);
  for (size_t i = 0; i < n; ++i) {
    out.values[i] = std::sqrt(std::max(eig.values[i], 0.0));
  }
  out.v = eig.vectors;
  // U = A V S^{-1} for nonzero singular values; zero columns otherwise.
  out.u = Matrix(a.rows(), n);
  Matrix av = a.Multiply(out.v);
  for (size_t c = 0; c < n; ++c) {
    double s = out.values[c];
    if (s > 1e-12) {
      for (size_t r = 0; r < a.rows(); ++r) out.u.At(r, c) = av.At(r, c) / s;
    }
  }
  return out;
}

}  // namespace aims::linalg
