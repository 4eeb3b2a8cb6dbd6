#pragma once

#include <vector>

#include "common/status.h"
#include "linalg/matrix.h"

/// \file eigen.h
/// \brief Symmetric eigendecomposition (cyclic Jacobi) and the SVD built on
/// it. The recognition subsystem needs the spectra of 28x28 covariance
/// matrices, for which Jacobi is simple, accurate, and fast.

namespace aims::linalg {

/// \brief Eigen-decomposition of a symmetric matrix: A = V diag(w) V^T.
struct EigenDecomposition {
  /// Eigenvalues, sorted descending.
  std::vector<double> values;
  /// Eigenvectors as matrix columns, matching `values` order.
  Matrix vectors;
};

/// \brief Cyclic Jacobi eigendecomposition of symmetric \p a.
/// Fails if \p a is not square (symmetry is assumed, the strictly lower
/// triangle is ignored).
Result<EigenDecomposition> SymmetricEigen(const Matrix& a,
                                          int max_sweeps = 64,
                                          double tol = 1e-12);

/// \brief Thin singular value decomposition A (m x n, m >= n or not):
/// A = U diag(s) V^T with s sorted descending.
struct SvdDecomposition {
  Matrix u;                    ///< m x r
  std::vector<double> values;  ///< r singular values, descending
  Matrix v;                    ///< n x r (right singular vectors as columns)
};

/// \brief SVD via eigendecomposition of the Gram matrix A^T A (adequate for
/// the well-conditioned low-rank use in pattern similarity).
Result<SvdDecomposition> Svd(const Matrix& a);

}  // namespace aims::linalg
