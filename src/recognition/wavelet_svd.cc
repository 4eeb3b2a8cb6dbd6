#include "recognition/wavelet_svd.h"

#include <algorithm>
#include <numeric>

#include "common/macros.h"
#include "linalg/eigen.h"
#include "recognition/similarity.h"
#include "signal/dwt.h"

namespace aims::recognition {

Result<linalg::Matrix> TransformSegment(const signal::WaveletFilter& filter,
                                        const linalg::Matrix& segment) {
  if (segment.rows() < 2) {
    return Status::InvalidArgument("TransformSegment: need >= 2 frames");
  }
  size_t padded = 1;
  while (padded < segment.rows()) padded <<= 1;
  linalg::Matrix out(padded, segment.cols());
  for (size_t c = 0; c < segment.cols(); ++c) {
    std::vector<double> channel = segment.Col(c);
    double mean = 0.0;
    for (double v : channel) mean += v;
    mean /= static_cast<double>(channel.size());
    std::vector<double> padded_channel(padded, 0.0);
    for (size_t r = 0; r < channel.size(); ++r) {
      padded_channel[r] = channel[r] - mean;
    }
    AIMS_ASSIGN_OR_RETURN(std::vector<double> transformed,
                          signal::ForwardDwt(filter, padded_channel));
    for (size_t r = 0; r < padded; ++r) out.At(r, c) = transformed[r];
  }
  return out;
}

Result<linalg::Matrix> CovarianceFromWavelets(const linalg::Matrix& transformed,
                                              size_t keep_top_k) {
  if (transformed.rows() < 2) {
    return Status::InvalidArgument("CovarianceFromWavelets: too few rows");
  }
  const size_t rows = transformed.rows();
  const size_t cols = transformed.cols();
  std::vector<size_t> selected(rows);
  std::iota(selected.begin(), selected.end(), 0);
  if (keep_top_k > 0 && keep_top_k < rows) {
    // Global magnitude: L2 energy of the coefficient row across channels.
    std::vector<double> energy(rows, 0.0);
    for (size_t r = 0; r < rows; ++r) {
      for (size_t c = 0; c < cols; ++c) {
        energy[r] += transformed.At(r, c) * transformed.At(r, c);
      }
    }
    std::sort(selected.begin(), selected.end(),
              [&](size_t a, size_t b) { return energy[a] > energy[b]; });
    selected.resize(keep_top_k);
  }
  // Channels were mean-centered before transformation, so the covariance is
  // just the (possibly truncated) Gram of the coefficients. The divisor
  // uses the retained coefficient count; any consistent scale cancels in
  // the eigenvector-based similarity.
  linalg::Matrix cov(cols, cols);
  for (size_t r : selected) {
    for (size_t i = 0; i < cols; ++i) {
      double a = transformed.At(r, i);
      if (a == 0.0) continue;
      for (size_t j = i; j < cols; ++j) {
        cov.At(i, j) += a * transformed.At(r, j);
      }
    }
  }
  double scale = 1.0 / static_cast<double>(rows - 1);
  for (size_t i = 0; i < cols; ++i) {
    for (size_t j = i; j < cols; ++j) {
      cov.At(i, j) *= scale;
      cov.At(j, i) = cov.At(i, j);
    }
  }
  return cov;
}

Result<double> WaveletDomainSimilarity(const signal::WaveletFilter& filter,
                                       const linalg::Matrix& segment_a,
                                       const linalg::Matrix& segment_b,
                                       size_t rank, size_t keep_top_k) {
  if (segment_a.cols() != segment_b.cols()) {
    return Status::InvalidArgument(
        "WaveletDomainSimilarity: channel count mismatch");
  }
  AIMS_ASSIGN_OR_RETURN(linalg::Matrix ta, TransformSegment(filter, segment_a));
  AIMS_ASSIGN_OR_RETURN(linalg::Matrix tb, TransformSegment(filter, segment_b));
  AIMS_ASSIGN_OR_RETURN(linalg::Matrix ca,
                        CovarianceFromWavelets(ta, keep_top_k));
  AIMS_ASSIGN_OR_RETURN(linalg::Matrix cb,
                        CovarianceFromWavelets(tb, keep_top_k));
  AIMS_ASSIGN_OR_RETURN(linalg::EigenDecomposition ea,
                        linalg::SymmetricEigen(ca));
  AIMS_ASSIGN_OR_RETURN(linalg::EigenDecomposition eb,
                        linalg::SymmetricEigen(cb));
  return WeightedSvdSimilarity::SpectraSimilarity(ea, eb, rank);
}

}  // namespace aims::recognition
