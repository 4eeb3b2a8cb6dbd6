#include "recognition/isolator.h"

#include <algorithm>
#include <cmath>

#include "common/macros.h"
#include "common/stats.h"

namespace aims::recognition {

StreamRecognizer::StreamRecognizer(const Vocabulary* vocabulary,
                                   const WeightedSvdSimilarity* measure,
                                   StreamRecognizerConfig config)
    : vocabulary_(vocabulary),
      measure_(measure),
      config_(config),
      covariance_(1) {
  AIMS_CHECK(vocabulary_ != nullptr && measure_ != nullptr);
  AIMS_CHECK(config_.activity_window >= 2);
  AIMS_CHECK(config_.evaluation_stride >= 1);
}

double StreamRecognizer::CurrentActivity() const {
  if (recent_.size() < 2) return 0.0;
  // Mean rolling standard deviation of the top-k most active channels, in
  // one frame-major pass over the window.
  const size_t channels = recent_.front().values.size();
  std::vector<RunningStats> stats(channels);
  for (const streams::Frame& f : recent_) {
    for (size_t c = 0; c < channels; ++c) stats[c].Add(f.values[c]);
  }
  std::vector<double> stddevs(channels);
  for (size_t c = 0; c < channels; ++c) stddevs[c] = stats[c].stddev();
  size_t k = std::min(std::max<size_t>(config_.activity_top_k, 1), channels);
  std::partial_sort(stddevs.begin(),
                    stddevs.begin() + static_cast<ptrdiff_t>(k),
                    stddevs.end(), std::greater<double>());
  double total = 0.0;
  for (size_t i = 0; i < k; ++i) total += stddevs[i];
  return total / static_cast<double>(k);
}

Status StreamRecognizer::AccumulateEvidence() {
  AIMS_ASSIGN_OR_RETURN(linalg::EigenDecomposition spectrum,
                        covariance_.Spectrum());
  AIMS_ASSIGN_OR_RETURN(std::vector<double> scores,
                        vocabulary_->SpectraScores(spectrum, *measure_));
  double mean = 0.0;
  for (double s : scores) mean += s;
  mean /= static_cast<double>(scores.size());
  for (size_t i = 0; i < scores.size(); ++i) {
    evidence_[i] += scores[i] - mean;
  }
  ++evaluations_;
  return Status::OK();
}

Result<std::optional<RecognitionEvent>> StreamRecognizer::Push(
    const streams::Frame& frame) {
  if (frame.values.size() != vocabulary_->channels()) {
    return Status::InvalidArgument(
        "StreamRecognizer: frame has " + std::to_string(frame.values.size()) +
        " channels, the vocabulary " +
        std::to_string(vocabulary_->channels()));
  }
  ++frames_seen_;
  recent_.push_back(frame);
  if (recent_.size() > config_.activity_window) recent_.pop_front();

  double activity = CurrentActivity();
  std::optional<RecognitionEvent> event;

  if (!in_segment_) {
    if (activity >= config_.activity_on) {
      in_segment_ = true;
      // Back-date the segment start to the window start: the onset frames
      // are already inside the activity window.
      segment_start_ = frames_seen_ - recent_.size();
      covariance_.Reset(frame.values.size());
      for (const streams::Frame& f : recent_) covariance_.Add(f.values);
      evidence_.assign(vocabulary_->size(), 0.0);
      frames_since_eval_ = 0;
      low_activity_run_ = 0;
    }
    return event;
  }

  covariance_.Add(frame.values);
  ++frames_since_eval_;

  // Periodic evidence accumulation: similarity of the segment so far to
  // every vocabulary member; the present pattern accrues positive
  // information, absent ones negative.
  if (frames_since_eval_ >= config_.evaluation_stride &&
      covariance_.count() >= config_.min_segment_frames) {
    frames_since_eval_ = 0;
    AIMS_RETURN_NOT_OK(AccumulateEvidence());
  }

  if (activity <= config_.activity_off) {
    ++low_activity_run_;
    if (low_activity_run_ >= config_.off_debounce_frames) {
      return CloseSegment();
    }
  } else {
    low_activity_run_ = 0;
  }
  return event;
}

Result<std::optional<RecognitionEvent>> StreamRecognizer::CloseSegment() {
  in_segment_ = false;
  if (covariance_.count() < config_.min_segment_frames) {
    evidence_.clear();
    return std::optional<RecognitionEvent>{};
  }
  // If the segment closed before any periodic evaluation fired, evaluate
  // once now so short-but-valid patterns are still recognized.
  if (std::all_of(evidence_.begin(), evidence_.end(),
                  [](double e) { return e == 0.0; })) {
    AIMS_RETURN_NOT_OK(AccumulateEvidence());
  }
  std::vector<double> evidence;
  evidence.swap(evidence_);

  size_t best = 0;
  for (size_t i = 1; i < evidence.size(); ++i) {
    if (evidence[i] > evidence[best]) best = i;
  }
  // Confidence: the winner's share of the positive evidence mass.
  double positive = 0.0;
  for (double e : evidence) {
    if (e > 0.0) positive += e;
  }
  double confidence = positive > 0.0 ? evidence[best] / positive : 0.0;
  if (confidence < config_.min_confidence || evidence[best] <= 0.0) {
    return std::optional<RecognitionEvent>{};
  }
  RecognitionEvent event;
  event.label = vocabulary_->entries()[best].label;
  event.start_frame = segment_start_;
  event.end_frame = frames_seen_;
  event.confidence = confidence;
  return std::optional<RecognitionEvent>{event};
}

Result<std::optional<RecognitionEvent>> StreamRecognizer::Finish() {
  if (!in_segment_) return std::optional<RecognitionEvent>{};
  return CloseSegment();
}

}  // namespace aims::recognition
