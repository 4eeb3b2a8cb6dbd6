#pragma once

#include <algorithm>
#include <cstddef>
#include <vector>

/// \file stats.h
/// \brief Streaming statistics and error metrics shared by the acquisition,
/// query, and benchmark code.

namespace aims {

/// \brief Welford single-pass accumulator for mean/variance/min/max.
class RunningStats {
 public:
  /// Adds one observation.
  void Add(double x) {
    if (count_ == 0) {
      min_ = max_ = x;
    } else {
      min_ = std::min(min_, x);
      max_ = std::max(max_, x);
    }
    ++count_;
    sum_ += x;
    double delta = x - mean_;
    mean_ += delta / static_cast<double>(count_);
    m2_ += delta * (x - mean_);
  }

  size_t count() const { return count_; }
  double mean() const { return count_ ? mean_ : 0.0; }
  /// Population variance (divides by n).
  double variance() const { return count_ ? m2_ / static_cast<double>(count_) : 0.0; }
  /// Sample variance (divides by n-1); 0 when fewer than two observations.
  double sample_variance() const {
    return count_ > 1 ? m2_ / static_cast<double>(count_ - 1) : 0.0;
  }
  double stddev() const;
  double min() const { return count_ ? min_ : 0.0; }
  double max() const { return count_ ? max_ : 0.0; }
  double sum() const { return sum_; }

  /// Merges another accumulator into this one (parallel Welford).
  void Merge(const RunningStats& other);

 private:
  size_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
  double sum_ = 0.0;
};

/// \brief Mean squared error between two equal-length series.
double MeanSquaredError(const std::vector<double>& a, const std::vector<double>& b);

/// \brief MSE normalized by the variance of \p reference (a.k.a. NMSE).
/// Returns 0 for an exact match; 1 means "no better than predicting the mean".
double NormalizedMse(const std::vector<double>& reference,
                     const std::vector<double>& approx);

/// \brief |approx - exact| / max(|exact|, eps).
double RelativeError(double exact, double approx, double eps = 1e-12);

/// \brief Pearson correlation of two equal-length series (0 if degenerate).
double PearsonCorrelation(const std::vector<double>& a, const std::vector<double>& b);

/// \brief p-th percentile (0..100) of a copy of \p values by linear
/// interpolation; 0 for an empty input.
double Percentile(std::vector<double> values, double p);

}  // namespace aims
