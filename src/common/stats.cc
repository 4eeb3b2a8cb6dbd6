#include "common/stats.h"

#include <algorithm>
#include <cmath>

#include "common/macros.h"

namespace aims {

double RunningStats::stddev() const { return std::sqrt(variance()); }

void RunningStats::Merge(const RunningStats& other) {
  if (other.count_ == 0) return;
  if (count_ == 0) {
    *this = other;
    return;
  }
  size_t n = count_ + other.count_;
  double delta = other.mean_ - mean_;
  double mean = mean_ + delta * static_cast<double>(other.count_) /
                            static_cast<double>(n);
  m2_ = m2_ + other.m2_ +
        delta * delta * static_cast<double>(count_) *
            static_cast<double>(other.count_) / static_cast<double>(n);
  mean_ = mean;
  count_ = n;
  sum_ += other.sum_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
}

double MeanSquaredError(const std::vector<double>& a,
                        const std::vector<double>& b) {
  AIMS_CHECK(a.size() == b.size());
  if (a.empty()) return 0.0;
  double acc = 0.0;
  for (size_t i = 0; i < a.size(); ++i) {
    double d = a[i] - b[i];
    acc += d * d;
  }
  return acc / static_cast<double>(a.size());
}

double NormalizedMse(const std::vector<double>& reference,
                     const std::vector<double>& approx) {
  RunningStats stats;
  for (double x : reference) stats.Add(x);
  double var = stats.variance();
  double mse = MeanSquaredError(reference, approx);
  if (var <= 1e-20) {
    // Constant reference: call the match perfect when the error is at
    // floating-point noise level relative to the signal magnitude.
    double scale = stats.mean() * stats.mean() + 1.0;
    return mse <= 1e-20 * scale ? 0.0 : 1.0;
  }
  return mse / var;
}

double RelativeError(double exact, double approx, double eps) {
  double denom = std::max(std::fabs(exact), eps);
  return std::fabs(approx - exact) / denom;
}

double PearsonCorrelation(const std::vector<double>& a,
                          const std::vector<double>& b) {
  AIMS_CHECK(a.size() == b.size());
  if (a.size() < 2) return 0.0;
  RunningStats sa, sb;
  for (double x : a) sa.Add(x);
  for (double x : b) sb.Add(x);
  double cov = 0.0;
  for (size_t i = 0; i < a.size(); ++i) {
    cov += (a[i] - sa.mean()) * (b[i] - sb.mean());
  }
  cov /= static_cast<double>(a.size());
  double denom = sa.stddev() * sb.stddev();
  if (denom <= 0.0) return 0.0;
  return cov / denom;
}

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  if (values.size() == 1) return values[0];
  double rank = p / 100.0 * static_cast<double>(values.size() - 1);
  size_t lo = static_cast<size_t>(std::floor(rank));
  size_t hi = std::min(lo + 1, values.size() - 1);
  double frac = rank - static_cast<double>(lo);
  return values[lo] * (1.0 - frac) + values[hi] * frac;
}

}  // namespace aims
