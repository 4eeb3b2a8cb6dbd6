#include "recognition/incremental.h"

#include "common/macros.h"

namespace aims::recognition {

IncrementalCovariance::IncrementalCovariance(size_t channels)
    : channels_(channels) {
  Reset();
}

void IncrementalCovariance::Add(const std::vector<double>& values) {
  AIMS_CHECK(values.size() == channels_);
  if (count_ == 0) shift_ = values;
  ++count_;
  const double n = static_cast<double>(count_);
  for (size_t i = 0; i < channels_; ++i) {
    const double y = values[i] - shift_[i];
    delta_[i] = y - mean_[i];
    mean_[i] += delta_[i] / n;
    residual_[i] = y - mean_[i];
  }
  for (size_t i = 0; i < channels_; ++i) {
    double* row = &comoment_.At(i, 0);
    for (size_t j = i; j < channels_; ++j) row[j] += delta_[i] * residual_[j];
  }
}

Result<linalg::Matrix> IncrementalCovariance::Covariance() const {
  if (count_ < 2) {
    return Status::FailedPrecondition(
        "IncrementalCovariance: need at least 2 frames");
  }
  const double denom = static_cast<double>(count_ - 1);
  linalg::Matrix cov(channels_, channels_);
  for (size_t i = 0; i < channels_; ++i) {
    for (size_t j = i; j < channels_; ++j) {
      const double value = comoment_.At(i, j) / denom;
      cov.At(i, j) = value;
      cov.At(j, i) = value;
    }
  }
  return cov;
}

Result<linalg::EigenDecomposition> IncrementalCovariance::Spectrum() const {
  AIMS_ASSIGN_OR_RETURN(linalg::Matrix cov, Covariance());
  return linalg::SymmetricEigen(cov);
}

void IncrementalCovariance::Reset(size_t channels) {
  if (channels != 0) channels_ = channels;
  count_ = 0;
  shift_.assign(channels_, 0.0);
  mean_.assign(channels_, 0.0);
  delta_.assign(channels_, 0.0);
  residual_.assign(channels_, 0.0);
  comoment_ = linalg::Matrix(channels_, channels_);
}

}  // namespace aims::recognition
