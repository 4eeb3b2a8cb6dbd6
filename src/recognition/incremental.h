#pragma once

#include <vector>

#include "common/status.h"
#include "linalg/eigen.h"
#include "linalg/matrix.h"

/// \file incremental.h
/// \brief Incremental SVD for the online recognizer (Sec. 3.4.1): "we would
/// like to explore techniques for computing SVD incrementally, i.e.,
/// computation of SVD utilizing results that have already been computed in
/// the earlier steps thus reducing the overall computation cost
/// considerably."
///
/// IncrementalCovariance maintains the running mean and co-moments of the
/// open segment, so the covariance after every new frame costs O(k^2)
/// instead of O(frames * k^2) and the recognizer keeps no frames. With the
/// template spectra cached per vocabulary (Vocabulary::SpectraScores), a
/// periodic evaluation costs one eigen-decomposition of the segment
/// covariance plus O(|vocab| * k^2) dot products, independent of the
/// segment length.

namespace aims::recognition {

/// \brief Streaming covariance over k channels (Welford co-moment update).
///
/// The update runs on the values minus the first frame: covariance is
/// shift-invariant, and the small differences keep the update accurate to
/// a few ulps whatever offset the signals carry, where the one-pass
/// (sum x x^T - n mean mean^T) form cancels catastrophically.
class IncrementalCovariance {
 public:
  explicit IncrementalCovariance(size_t channels);

  /// Adds one frame (O(k^2)). \p values must have channels() entries.
  void Add(const std::vector<double>& values);

  size_t count() const { return count_; }
  size_t channels() const { return channels_; }

  /// Sample covariance of everything added so far. Requires count() >= 2.
  Result<linalg::Matrix> Covariance() const;

  /// Eigen-decomposition of the covariance (recomputed on demand).
  Result<linalg::EigenDecomposition> Spectrum() const;

  /// Clears the accumulator; with \p channels != 0, also resizes it.
  void Reset(size_t channels = 0);

 private:
  size_t channels_;
  size_t count_ = 0;
  std::vector<double> shift_;     ///< The first frame added.
  std::vector<double> mean_;      ///< Running mean of (x - shift).
  std::vector<double> delta_;     ///< Scratch: (x - shift) - previous mean.
  std::vector<double> residual_;  ///< Scratch: (x - shift) - updated mean.
  linalg::Matrix comoment_;       ///< Upper triangle of sum of products of
                                  ///< deviations from the mean.
};

}  // namespace aims::recognition
