#pragma once

#include <vector>

#include "common/status.h"
#include "linalg/matrix.h"

/// \file eigen.h
/// \brief Symmetric eigendecomposition (Householder tridiagonalization, then
/// implicit-shift QL) and the SVD built on it. The recognition subsystem
/// needs the spectrum of a 28x28 covariance at every evaluation, so the
/// solve is the recognizer's main cost: about 9 n^3 flops, with every inner
/// loop walking a contiguous row.

namespace aims::linalg {

/// \brief Eigen-decomposition of a symmetric matrix: A = V diag(w) V^T.
struct EigenDecomposition {
  /// Eigenvalues, sorted descending.
  std::vector<double> values;
  /// Eigenvectors as matrix columns, matching `values` order.
  Matrix vectors;
};

/// \brief Eigendecomposition of symmetric \p a: EISPACK's tred2 and tql2
/// (Golub & Van Loan, Matrix Computations, Sec. 8.3), each unreduced 2x2
/// block closed in closed form as LAPACK's dsteqr does. \p a is
/// symmetrized as (a + a^T) / 2 and scaled by a power of two that brings
/// its largest entry into [0.5, 1), so any finite matrix decomposes without
/// overflow or underflow, and 2^k a yields 2^k times a's eigenvalues with
/// the same eigenvectors. InvalidArgument if \p a is not square or holds a
/// NaN or infinite entry; OutOfRange if an eigenvalue's magnitude exceeds
/// the largest double; Internal if QL does not converge within 30
/// iterations per eigenvalue.
Result<EigenDecomposition> SymmetricEigen(const Matrix& a);

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
