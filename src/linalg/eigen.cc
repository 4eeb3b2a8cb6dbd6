#include "linalg/eigen.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>

#include "common/macros.h"

namespace aims::linalg {

namespace {

/// The eigenvalues of the symmetric 2 x 2 block [[a, b], [b, c]] in closed
/// form (LAPACK's dlaev2): \p rt1 is the one of larger magnitude and
/// (\p cs, \p sn) its unit eigenvector; (-sn, cs) belongs to \p rt2.
/// rt2 is det / rt1, formed as (larger / rt1) smaller - (b / rt1) b rather
/// than as a difference of roots, so a singular block such as
/// [[c, c], [c, c]] gives exactly 0.
void SymmetricTwoByTwo(double a, double b, double c, double* rt1, double* rt2,
                       double* cs, double* sn) {
  const double sum = a + c;
  const double diff = a - c;
  const double adiff = std::fabs(diff);
  const double twob = b + b;
  const double atwob = std::fabs(twob);
  const double larger = std::fabs(a) > std::fabs(c) ? a : c;
  const double smaller = std::fabs(a) > std::fabs(c) ? c : a;
  double root = atwob * std::sqrt(2.0);  // |a - c| = |2b|
  if (adiff > atwob) {
    root = adiff * std::sqrt(1.0 + (atwob / adiff) * (atwob / adiff));
  } else if (adiff < atwob) {
    root = atwob * std::sqrt(1.0 + (adiff / atwob) * (adiff / atwob));
  }
  bool rt1_negative = false;
  if (sum < 0.0) {
    *rt1 = 0.5 * (sum - root);
    rt1_negative = true;
    *rt2 = (larger / *rt1) * smaller - (b / *rt1) * b;
  } else if (sum > 0.0) {
    *rt1 = 0.5 * (sum + root);
    *rt2 = (larger / *rt1) * smaller - (b / *rt1) * b;
  } else {
    *rt1 = 0.5 * root;
    *rt2 = -0.5 * root;
  }
  const double t = diff >= 0.0 ? diff + root : diff - root;
  if (std::fabs(t) > atwob) {
    const double ct = -twob / t;
    *sn = 1.0 / std::sqrt(1.0 + ct * ct);
    *cs = ct * *sn;
  } else if (atwob == 0.0) {
    *cs = 1.0;
    *sn = 0.0;
  } else {
    const double tn = -t / twob;
    *cs = 1.0 / std::sqrt(1.0 + tn * tn);
    *sn = tn * *cs;
  }
  if (rt1_negative == (diff < 0.0)) {
    const double swap = *cs;
    *cs = -*sn;
    *sn = swap;
  }
}

/// Householder reduction of the symmetric n x n matrix \p z (row-major) to
/// tridiagonal T = Q^T A Q, EISPACK's tred2. The textbook algorithm works
/// down the columns of A and Q; A is symmetric, so it runs here on the
/// transposed storage, where each inner loop walks a row. Leaves T's
/// diagonal in \p d, its subdiagonal in e[1..n-1] (e[0] = 0), and Q^T in
/// \p z: row i of z is column i of Q.
void Tridiagonalize(size_t n, double* z, double* d, double* e) {
  auto row = [z, n](size_t i) { return z + i * n; };
  for (size_t j = 0; j < n; ++j) d[j] = row(n - 1)[j];
  for (size_t i = n - 1; i > 0; --i) {
    // d[0..i) holds row i of the part still to reduce.
    double scale = 0.0;
    double h = 0.0;
    for (size_t k = 0; k < i; ++k) scale += std::fabs(d[k]);
    if (scale == 0.0) {
      e[i] = d[i - 1];
      for (size_t j = 0; j < i; ++j) {
        d[j] = row(j)[i - 1];
        row(j)[i] = 0.0;
        row(i)[j] = 0.0;
      }
    } else {
      // The Householder vector u = d - g e_{i-1}, scaled to dodge
      // underflow in h = |u|^2 / 2.
      for (size_t k = 0; k < i; ++k) {
        d[k] /= scale;
        h += d[k] * d[k];
      }
      double f = d[i - 1];
      double g = std::sqrt(h);
      if (f > 0.0) g = -g;
      e[i] = scale * g;
      h -= f * g;
      d[i - 1] = f - g;
      // p = A u / h into e, kept in row i of z beside it.
      for (size_t j = 0; j < i; ++j) e[j] = 0.0;
      for (size_t j = 0; j < i; ++j) {
        double* zj = row(j);
        f = d[j];
        row(i)[j] = f;
        g = e[j] + zj[j] * f;
        for (size_t k = j + 1; k < i; ++k) {
          g += zj[k] * d[k];
          e[k] += zj[k] * f;
        }
        e[j] = g;
      }
      f = 0.0;
      for (size_t j = 0; j < i; ++j) {
        e[j] /= h;
        f += e[j] * d[j];
      }
      // q = p - (u^T p / 2h) u; A -= u q^T + q u^T.
      const double hh = f / (h + h);
      for (size_t j = 0; j < i; ++j) e[j] -= hh * d[j];
      for (size_t j = 0; j < i; ++j) {
        double* zj = row(j);
        f = d[j];
        g = e[j];
        for (size_t k = j; k < i; ++k) zj[k] -= f * e[k] + g * d[k];
        d[j] = zj[i - 1];
        zj[i] = 0.0;
      }
    }
    d[i] = h;
  }
  // Accumulate Q^T from the Householder vectors in the rows below the
  // diagonal, last reflector first.
  for (size_t i = 0; i + 1 < n; ++i) {
    row(i)[n - 1] = row(i)[i];
    row(i)[i] = 1.0;
    const double h = d[i + 1];
    double* u = row(i + 1);
    if (h != 0.0) {
      for (size_t k = 0; k <= i; ++k) d[k] = u[k] / h;
      for (size_t j = 0; j <= i; ++j) {
        double* zj = row(j);
        double g = 0.0;
        for (size_t k = 0; k <= i; ++k) g += u[k] * zj[k];
        for (size_t k = 0; k <= i; ++k) zj[k] -= g * d[k];
      }
    }
    for (size_t k = 0; k <= i; ++k) u[k] = 0.0;
  }
  for (size_t j = 0; j < n; ++j) {
    d[j] = row(j)[n - 1];
    row(j)[n - 1] = 0.0;
  }
  row(n - 1)[n - 1] = 1.0;
  e[0] = 0.0;
}

/// Diagonalizes the tridiagonal (d, e) of Tridiagonalize by implicit-shift
/// QL, EISPACK's tql2, rotating z's rows alongside: each rotation combines
/// two contiguous rows. An unreduced 2 x 2 block is closed in closed form
/// (LAPACK's dsteqr), which also keeps a singular block's zero exact. On
/// return d holds the eigenvalues and row i of z the unit eigenvector of
/// d[i]. Internal after LAPACK's 30 iterations per eigenvalue.
Status DiagonalizeTridiagonal(size_t n, double* z, double* d, double* e) {
  for (size_t i = 1; i < n; ++i) e[i - 1] = e[i];
  e[n - 1] = 0.0;
  // One threshold for the whole matrix: an off-diagonal below eps |T| is
  // negligible. The caller scaled |T| near 1, so every e[i] still in play
  // is far from underflow and no hypot is needed.
  double norm = 0.0;
  for (size_t i = 0; i < n; ++i) {
    norm = std::max(norm, std::fabs(d[i]) + std::fabs(e[i]));
  }
  const double negligible = std::numeric_limits<double>::epsilon() * norm;
  auto rotate = [z, n](size_t i, double c, double s) {
    // (row i, row i + 1) <- (c row_i - s row_{i+1}, s row_i + c row_{i+1}).
    double* zi = z + i * n;
    double* zi1 = zi + n;
    for (size_t k = 0; k < n; ++k) {
      const double t = zi1[k];
      zi1[k] = s * zi[k] + c * t;
      zi[k] = c * zi[k] - s * t;
    }
  };
  size_t iterations_left = 30 * n;
  // Shifts are applied to every d[i >= l] and accumulated in f.
  double f = 0.0;
  for (size_t l = 0; l < n; ++l) {
    for (;;) {
      size_t m = l;
      while (m + 1 < n && std::fabs(e[m]) > negligible) ++m;
      if (m == l) break;
      if (iterations_left-- == 0) {
        return Status::Internal("SymmetricEigen: QL did not converge");
      }
      if (m == l + 1) {
        double rt1 = 0.0, rt2 = 0.0, cs = 1.0, sn = 0.0;
        SymmetricTwoByTwo(d[l], e[l], d[l + 1], &rt1, &rt2, &cs, &sn);
        d[l] = rt1;
        d[l + 1] = rt2;
        e[l] = 0.0;
        rotate(l, cs, -sn);
        break;
      }
      // Wilkinson-style shift from the leading 2 x 2 of the block.
      double g = d[l];
      double p = (d[l + 1] - g) / (2.0 * e[l]);
      double r = std::sqrt(p * p + 1.0);
      if (p < 0.0) r = -r;
      d[l] = e[l] / (p + r);
      d[l + 1] = e[l] * (p + r);
      const double dl1 = d[l + 1];
      double h = g - d[l];
      for (size_t i = l + 2; i < n; ++i) d[i] -= h;
      f += h;
      // One implicit QL sweep from the bottom of the block up.
      p = d[m];
      double c = 1.0, c2 = 1.0, c3 = 1.0;
      double s = 0.0, s2 = 0.0;
      const double el1 = e[l + 1];
      for (size_t i = m; i-- > l;) {
        c3 = c2;
        c2 = c;
        s2 = s;
        g = c * e[i];
        h = c * p;
        r = std::sqrt(p * p + e[i] * e[i]);
        e[i + 1] = s * r;
        s = e[i] / r;
        c = p / r;
        p = c * d[i] - s * g;
        d[i + 1] = h + s * (c * g + s * d[i]);
        rotate(i, c, s);
      }
      p = -s * s2 * c3 * el1 * e[l] / dl1;
      e[l] = s * p;
      d[l] = c * p;
    }
    d[l] += f;
    e[l] = 0.0;
  }
  return Status::OK();
}

}  // namespace

Result<EigenDecomposition> SymmetricEigen(const Matrix& a) {
  if (a.rows() != a.cols()) {
    return Status::InvalidArgument("SymmetricEigen: matrix must be square");
  }
  if (!std::all_of(a.data().begin(), a.data().end(),
                   [](double x) { return std::isfinite(x); })) {
    return Status::InvalidArgument(
        "SymmetricEigen: matrix holds a NaN or infinite entry");
  }
  const size_t n = a.rows();
  EigenDecomposition out;
  if (n == 0) return out;

  // Symmetrize defensively (callers pass covariance/Gram matrices); halves
  // first, so no finite pair overflows.
  std::vector<double> z(n * n);
  double largest = 0.0;
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < n; ++j) {
      const double x = 0.5 * a.At(i, j) + 0.5 * a.At(j, i);
      z[i * n + j] = x;
      largest = std::max(largest, std::fabs(x));
    }
  }
  // Scale by 2^-exponent so the largest entry lies in [0.5, 1): no square
  // overflows, QL's negligible threshold stays far from underflow, and a
  // power of two scales exactly. The factor is split in two so neither half
  // leaves the normal range.
  int exponent = 0;
  (void)std::frexp(largest, &exponent);
  const double down_a = std::ldexp(1.0, -exponent / 2);
  const double down_b = std::ldexp(1.0, -exponent - (-exponent / 2));
  for (double& x : z) x = x * down_a * down_b;

  std::vector<double> d(n);
  std::vector<double> e(n);
  Tridiagonalize(n, z.data(), d.data(), e.data());
  AIMS_RETURN_NOT_OK(DiagonalizeTridiagonal(n, z.data(), d.data(), e.data()));

  std::vector<size_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(),
            [&](size_t x, size_t y) { return d[x] > d[y]; });
  out.values.resize(n);
  out.vectors = Matrix(n, n);
  for (size_t c = 0; c < n; ++c) {
    const double value = std::ldexp(d[order[c]], exponent);
    if (!std::isfinite(value)) {
      return Status::OutOfRange(
          "SymmetricEigen: an eigenvalue exceeds the double range");
    }
    out.values[c] = value;
    const double* vector = &z[order[c] * n];
    for (size_t r = 0; r < n; ++r) out.vectors.At(r, c) = vector[r];
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
