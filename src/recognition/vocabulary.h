#pragma once

#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/status.h"
#include "linalg/eigen.h"
#include "linalg/matrix.h"
#include "recognition/similarity.h"

/// \file vocabulary.h
/// \brief The "library of known motions, termed vocabulary" (Sec. 2.2):
/// labelled template segments plus nearest-template classification under a
/// pluggable similarity measure.

namespace aims::recognition {

/// \brief One labelled template.
struct VocabularyEntry {
  std::string label;
  linalg::Matrix segment;  ///< frames x channels exemplar.
};

/// \brief Classification outcome.
struct Classification {
  std::string label;
  double score = 0.0;        ///< Similarity to the winning template.
  double runner_up = 0.0;    ///< Best score among other labels.

  /// Margin between the winner and the best other label; small margins
  /// flag ambiguous inputs.
  double margin() const { return score - runner_up; }
};

/// \brief A labelled template library with nearest-template queries.
class Vocabulary {
 public:
  /// Adds a template (multiple exemplars per label are allowed); aborts on
  /// one whose shape ValidateEntry rejects.
  void Add(std::string label, linalg::Matrix segment);

  /// \brief The rule for a valid template: InvalidArgument when it is
  /// empty, has fewer than 2 frames (its covariance is undefined), holds a
  /// NaN or infinite value, or its channel count differs from the
  /// registered templates'. Templates from outside the program are checked
  /// here before Add, which enforces only the shape, so the values are
  /// scanned once.
  Status ValidateEntry(const linalg::Matrix& segment) const;

  size_t size() const { return entries_.size(); }
  /// Channels per frame of every template (0 while empty).
  size_t channels() const {
    return entries_.empty() ? 0 : entries_.front().segment.cols();
  }
  const std::vector<VocabularyEntry>& entries() const { return entries_; }
  /// Distinct labels, in insertion order.
  std::vector<std::string> Labels() const;

  /// \brief Classifies \p segment by the highest-similarity template.
  Result<Classification> Classify(const linalg::Matrix& segment,
                                  const SimilarityMeasure& measure) const;

  /// \brief Similarity of \p segment to every entry, recomputing both
  /// sides of every pair (the per-pair baseline of E7/E8/E15).
  Result<std::vector<double>> Scores(const linalg::Matrix& segment,
                                     const SimilarityMeasure& measure) const;

  /// \brief Weighted-SVD similarity of a segment spectrum to every entry,
  /// bit-identical to Scores(segment, measure) for the segment the
  /// spectrum came from. The template spectra are computed once, at the
  /// first call, and shared by every caller and every copy of this
  /// vocabulary (thread-safe); Add discards them.
  Result<std::vector<double>> SpectraScores(
      const linalg::EigenDecomposition& segment,
      const WeightedSvdSimilarity& measure) const;

 private:
  struct TemplateSpectra {
    std::once_flag once;
    Status status;
    std::vector<linalg::EigenDecomposition> spectra;
  };

  /// The shape half of ValidateEntry.
  Status ValidateShape(const linalg::Matrix& segment) const;

  std::vector<VocabularyEntry> entries_;
  std::shared_ptr<TemplateSpectra> spectra_ =
      std::make_shared<TemplateSpectra>();
};

}  // namespace aims::recognition
