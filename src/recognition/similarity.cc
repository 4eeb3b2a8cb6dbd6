#include "recognition/similarity.h"

#include <algorithm>
#include <cmath>

#include "common/macros.h"
#include "signal/dft.h"
#include "signal/dwt.h"
#include "signal/wavelet_filter.h"

namespace aims::recognition {

namespace {
Status CheckSegments(const linalg::Matrix& a, const linalg::Matrix& b) {
  if (a.empty() || b.empty()) {
    return Status::InvalidArgument("Similarity: empty segment");
  }
  if (a.cols() != b.cols()) {
    return Status::InvalidArgument("Similarity: channel count mismatch");
  }
  return Status::OK();
}
}  // namespace

linalg::Matrix ResampleRows(const linalg::Matrix& segment, size_t rows) {
  AIMS_CHECK(rows >= 2);
  linalg::Matrix out(rows, segment.cols());
  if (segment.rows() == 0) return out;
  for (size_t r = 0; r < rows; ++r) {
    double pos = static_cast<double>(r) *
                 static_cast<double>(segment.rows() - 1) /
                 static_cast<double>(rows - 1);
    size_t lo = static_cast<size_t>(pos);
    size_t hi = std::min(lo + 1, segment.rows() - 1);
    double frac = pos - static_cast<double>(lo);
    for (size_t c = 0; c < segment.cols(); ++c) {
      out.At(r, c) =
          segment.At(lo, c) * (1.0 - frac) + segment.At(hi, c) * frac;
    }
  }
  return out;
}

Result<linalg::EigenDecomposition> WeightedSvdSimilarity::SegmentSpectrum(
    const linalg::Matrix& segment) {
  if (segment.rows() < 2) {
    return Status::InvalidArgument("SegmentSpectrum: need at least 2 frames");
  }
  return linalg::SymmetricEigen(segment.ColumnCovariance());
}

double WeightedSvdSimilarity::SpectraSimilarity(
    const linalg::EigenDecomposition& a, const linalg::EigenDecomposition& b,
    size_t rank) {
  const size_t n = a.values.size();
  AIMS_CHECK(b.values.size() == n);
  size_t limit = rank == 0 ? n : std::min(rank, n);
  double total_a = 0.0, total_b = 0.0;
  for (double v : a.values) total_a += std::max(v, 0.0);
  for (double v : b.values) total_b += std::max(v, 0.0);
  double denom = total_a + total_b;
  if (denom <= 1e-300) return 1.0;  // Both segments are constant: identical.
  double sim = 0.0;
  for (size_t i = 0; i < limit; ++i) {
    double weight =
        (std::max(a.values[i], 0.0) + std::max(b.values[i], 0.0)) / denom;
    double dot = 0.0;
    for (size_t r = 0; r < n; ++r) {
      dot += a.vectors.At(r, i) * b.vectors.At(r, i);
    }
    sim += weight * std::fabs(dot);
  }
  return std::clamp(sim, 0.0, 1.0);
}

Result<double> WeightedSvdSimilarity::Similarity(
    const linalg::Matrix& a, const linalg::Matrix& b) const {
  AIMS_RETURN_NOT_OK(CheckSegments(a, b));
  AIMS_ASSIGN_OR_RETURN(linalg::EigenDecomposition ea, SegmentSpectrum(a));
  AIMS_ASSIGN_OR_RETURN(linalg::EigenDecomposition eb, SegmentSpectrum(b));
  return SpectraSimilarity(ea, eb, rank_);
}

Result<double> EuclideanSimilarity::Similarity(const linalg::Matrix& a,
                                               const linalg::Matrix& b) const {
  AIMS_RETURN_NOT_OK(CheckSegments(a, b));
  linalg::Matrix ra = ResampleRows(a, resample_frames_);
  linalg::Matrix rb = ResampleRows(b, resample_frames_);
  double dist = linalg::EuclideanDistance(ra.data(), rb.data());
  // Normalize by the number of entries so the score does not depend on the
  // resample resolution, then map distance to (0, 1].
  dist /= std::sqrt(static_cast<double>(ra.data().size()));
  return 1.0 / (1.0 + dist);
}

Result<double> DftSimilarity::Similarity(const linalg::Matrix& a,
                                         const linalg::Matrix& b) const {
  AIMS_RETURN_NOT_OK(CheckSegments(a, b));
  std::vector<double> fa, fb;
  for (size_t c = 0; c < a.cols(); ++c) {
    std::vector<double> feat_a = signal::DftFeatures(a.Col(c), k_);
    std::vector<double> feat_b = signal::DftFeatures(b.Col(c), k_);
    fa.insert(fa.end(), feat_a.begin(), feat_a.end());
    fb.insert(fb.end(), feat_b.begin(), feat_b.end());
  }
  double dist = linalg::EuclideanDistance(fa, fb) /
                std::sqrt(static_cast<double>(fa.size()));
  return 1.0 / (1.0 + dist);
}

Result<double> DwtSimilarity::Similarity(const linalg::Matrix& a,
                                         const linalg::Matrix& b) const {
  AIMS_RETURN_NOT_OK(CheckSegments(a, b));
  const signal::WaveletFilter haar =
      signal::WaveletFilter::Make(signal::WaveletKind::kHaar);
  linalg::Matrix ra = ResampleRows(a, resample_frames_);
  linalg::Matrix rb = ResampleRows(b, resample_frames_);
  std::vector<double> fa, fb;
  for (size_t c = 0; c < ra.cols(); ++c) {
    AIMS_ASSIGN_OR_RETURN(std::vector<double> ta,
                          signal::ForwardDwt(haar, ra.Col(c)));
    AIMS_ASSIGN_OR_RETURN(std::vector<double> tb,
                          signal::ForwardDwt(haar, rb.Col(c)));
    size_t keep = std::min(k_, ta.size());
    fa.insert(fa.end(), ta.begin(), ta.begin() + static_cast<ptrdiff_t>(keep));
    fb.insert(fb.end(), tb.begin(), tb.begin() + static_cast<ptrdiff_t>(keep));
  }
  double dist = linalg::EuclideanDistance(fa, fb) /
                std::sqrt(static_cast<double>(fa.size()));
  return 1.0 / (1.0 + dist);
}

}  // namespace aims::recognition
