#include "recognition/vocabulary.h"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <map>

#include "common/macros.h"

namespace aims::recognition {

namespace {

/// Whether every value is finite, in one branch-free pass that vectorizes
/// (it runs over every template value at registration): v * 0 is +-0 for
/// a finite v and NaN otherwise, and the bits of +-0 never set an exponent
/// bit, so the OR of all products has the all-ones exponent of a NaN
/// exactly when some value is not finite.
bool AllFinite(const std::vector<double>& values) {
  uint64_t bits = 0;
  for (double v : values) bits |= std::bit_cast<uint64_t>(v * 0.0);
  constexpr uint64_t kExponent = 0x7ff0000000000000;
  return (bits & kExponent) != kExponent;
}

}  // namespace

void Vocabulary::Add(std::string label, linalg::Matrix segment) {
  AIMS_CHECK(ValidateShape(segment).ok());
  entries_.push_back(VocabularyEntry{std::move(label), std::move(segment)});
  spectra_ = std::make_shared<TemplateSpectra>();
}

Status Vocabulary::ValidateShape(const linalg::Matrix& segment) const {
  if (segment.rows() < 2 || segment.cols() == 0) {
    return Status::InvalidArgument(
        "vocabulary template needs at least 2 frames of at least 1 channel");
  }
  if (!entries_.empty() && segment.cols() != channels()) {
    return Status::InvalidArgument(
        "vocabulary template has " + std::to_string(segment.cols()) +
        " channels, the registered templates " + std::to_string(channels()));
  }
  return Status::OK();
}

Status Vocabulary::ValidateEntry(const linalg::Matrix& segment) const {
  AIMS_RETURN_NOT_OK(ValidateShape(segment));
  if (!AllFinite(segment.data())) {
    return Status::InvalidArgument(
        "vocabulary template holds a NaN or infinite value");
  }
  return Status::OK();
}

std::vector<std::string> Vocabulary::Labels() const {
  std::vector<std::string> labels;
  for (const VocabularyEntry& e : entries_) {
    if (std::find(labels.begin(), labels.end(), e.label) == labels.end()) {
      labels.push_back(e.label);
    }
  }
  return labels;
}

Result<std::vector<double>> Vocabulary::Scores(
    const linalg::Matrix& segment, const SimilarityMeasure& measure) const {
  if (entries_.empty()) {
    return Status::FailedPrecondition("Vocabulary::Scores: empty vocabulary");
  }
  std::vector<double> scores(entries_.size());
  for (size_t i = 0; i < entries_.size(); ++i) {
    AIMS_ASSIGN_OR_RETURN(scores[i],
                          measure.Similarity(segment, entries_[i].segment));
  }
  return scores;
}

Result<std::vector<double>> Vocabulary::SpectraScores(
    const linalg::EigenDecomposition& segment,
    const WeightedSvdSimilarity& measure) const {
  if (entries_.empty()) {
    return Status::FailedPrecondition(
        "Vocabulary::SpectraScores: empty vocabulary");
  }
  if (segment.values.size() != channels()) {
    return Status::InvalidArgument(
        "Vocabulary::SpectraScores: channel count mismatch");
  }
  TemplateSpectra& cache = *spectra_;
  std::call_once(cache.once, [&] {
    for (const VocabularyEntry& entry : entries_) {
      auto spectrum = WeightedSvdSimilarity::SegmentSpectrum(entry.segment);
      if (!spectrum.ok()) {
        cache.status = spectrum.status();
        cache.spectra.clear();
        return;
      }
      cache.spectra.push_back(spectrum.MoveValueUnsafe());
    }
  });
  AIMS_RETURN_NOT_OK(cache.status);
  std::vector<double> scores(cache.spectra.size());
  for (size_t i = 0; i < scores.size(); ++i) {
    scores[i] = WeightedSvdSimilarity::SpectraSimilarity(
        segment, cache.spectra[i], measure.rank());
  }
  return scores;
}

Result<Classification> Vocabulary::Classify(
    const linalg::Matrix& segment, const SimilarityMeasure& measure) const {
  AIMS_ASSIGN_OR_RETURN(std::vector<double> scores, Scores(segment, measure));
  // Best score per label (multiple exemplars vote by their maximum).
  std::map<std::string, double> per_label;
  for (size_t i = 0; i < entries_.size(); ++i) {
    auto [it, inserted] = per_label.try_emplace(entries_[i].label, scores[i]);
    if (!inserted) it->second = std::max(it->second, scores[i]);
  }
  Classification out;
  out.score = -1.0;
  for (const auto& [label, score] : per_label) {
    if (score > out.score) {
      out.runner_up = out.score;
      out.score = score;
      out.label = label;
    } else {
      out.runner_up = std::max(out.runner_up, score);
    }
  }
  return out;
}

}  // namespace aims::recognition
