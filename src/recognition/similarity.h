#pragma once

#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "linalg/eigen.h"
#include "linalg/matrix.h"

/// \file similarity.h
/// \brief Similarity measures between multi-sensor segments (Sec. 3.4).
/// A segment is a (frames x channels) matrix. The paper's measure is the
/// *weighted-sum SVD*: compare corresponding eigenvectors of the two
/// segments' covariance structures, weighted by their eigenvalues. It
/// "works directly on an aggregation of several sensor streams", performs
/// dimension reduction, and — because covariance is length-normalized — it
/// compares sequences of different durations, which Euclidean distance
/// cannot.

namespace aims::recognition {

/// \brief Interface: similarity in [0, 1], higher = more alike.
class SimilarityMeasure {
 public:
  virtual ~SimilarityMeasure() = default;
  virtual const char* name() const = 0;
  /// \param a,b segments with equal channel counts (rows may differ).
  virtual Result<double> Similarity(const linalg::Matrix& a,
                                    const linalg::Matrix& b) const = 0;
};

/// \brief The paper's weighted-sum SVD measure.
///
/// sim(A, B) = sum_i w_i |u_i . v_i|, where u_i, v_i are the i-th
/// eigenvectors of the two column covariance matrices and
/// w_i = (lambda^A_i + lambda^B_i) / (sum lambda^A + sum lambda^B).
/// Eigenvector dot products lie in [-1, 1]; the absolute value makes the
/// measure sign-invariant (eigenvectors have arbitrary sign).
class WeightedSvdSimilarity : public SimilarityMeasure {
 public:
  /// \param rank compare only the top `rank` eigenvectors (0 = all):
  /// the measure's built-in dimensionality reduction.
  explicit WeightedSvdSimilarity(size_t rank = 0) : rank_(rank) {}
  const char* name() const override { return "weighted-svd"; }
  Result<double> Similarity(const linalg::Matrix& a,
                            const linalg::Matrix& b) const override;
  size_t rank() const { return rank_; }

  /// The eigen-decomposition a segment contributes (exposed so callers can
  /// cache it per vocabulary entry).
  static Result<linalg::EigenDecomposition> SegmentSpectrum(
      const linalg::Matrix& segment);

  /// Similarity from two precomputed spectra.
  static double SpectraSimilarity(const linalg::EigenDecomposition& a,
                                  const linalg::EigenDecomposition& b,
                                  size_t rank);

 private:
  size_t rank_;
};

/// \brief Euclidean baseline: both segments are resampled to a fixed frame
/// count (the measure *requires* equal lengths — the drawback the paper
/// calls out), flattened, and compared by L2 distance mapped to (0, 1].
class EuclideanSimilarity : public SimilarityMeasure {
 public:
  explicit EuclideanSimilarity(size_t resample_frames = 32)
      : resample_frames_(resample_frames) {}
  const char* name() const override { return "euclidean"; }
  Result<double> Similarity(const linalg::Matrix& a,
                            const linalg::Matrix& b) const override;

 private:
  size_t resample_frames_;
};

/// \brief DFT baseline (Agrawal/Faloutsos/Swami): per-channel magnitudes of
/// the first k Fourier coefficients, compared by L2 distance.
class DftSimilarity : public SimilarityMeasure {
 public:
  explicit DftSimilarity(size_t coefficients_per_channel = 4)
      : k_(coefficients_per_channel) {}
  const char* name() const override { return "dft"; }
  Result<double> Similarity(const linalg::Matrix& a,
                            const linalg::Matrix& b) const override;

 private:
  size_t k_;
};

/// \brief DWT baseline (Chan/Fu): per-channel leading Haar coefficients of
/// the resampled series, compared by L2 distance.
class DwtSimilarity : public SimilarityMeasure {
 public:
  explicit DwtSimilarity(size_t coefficients_per_channel = 8,
                         size_t resample_frames = 32)
      : k_(coefficients_per_channel), resample_frames_(resample_frames) {}
  const char* name() const override { return "dwt"; }
  Result<double> Similarity(const linalg::Matrix& a,
                            const linalg::Matrix& b) const override;

 private:
  size_t k_;
  size_t resample_frames_;
};

/// \brief Resamples a segment to a fixed number of rows by per-channel
/// linear interpolation (shared by the fixed-length baselines).
linalg::Matrix ResampleRows(const linalg::Matrix& segment, size_t rows);

}  // namespace aims::recognition
