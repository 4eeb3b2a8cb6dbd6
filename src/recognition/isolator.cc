#include "recognition/isolator.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/macros.h"

namespace aims::recognition {

ActivityWindow::ActivityWindow(size_t window, size_t top_k)
    : window_(window),
      top_k_(std::max<size_t>(top_k, 1)),
      // Each of the ~window additions and removals a sum takes between
      // rebuilds rounds by up to epsilon of the sum, whose terms are at
      // most largest_sq_: the variance carries up to about window *
      // epsilon * largest_sq_ of rounding, which must stay under 2^-26 of
      // it.
      stale_share_(static_cast<double>(window) *
                   std::numeric_limits<double>::epsilon() * 0x1p26) {
  AIMS_CHECK(window_ >= 1);
}

void ActivityWindow::Push(const std::vector<double>& values) {
  if (channels_ == 0) {
    channels_ = values.size();
    ring_.assign(window_ * channels_, 0.0);
    anchor_ = values;
    sum_.assign(channels_, 0.0);
    sum_sq_.assign(channels_, 0.0);
    largest_sq_.assign(channels_, 0.0);
    stddev_.assign(channels_, 0.0);
  }
  AIMS_CHECK(values.size() == channels_);
  double* slot = &ring_[(oldest_ + size_) % window_ * channels_];
  if (size_ == window_) {
    // Full: the new frame takes the oldest frame's slot.
    AddToSums(slot, -1.0);
    oldest_ = (oldest_ + 1) % window_;
  } else {
    ++size_;
  }
  std::copy(values.begin(), values.end(), slot);
  AddToSums(slot, 1.0);
  if (++pushes_since_rebuild_ == window_) Rebuild();
  activity_ = Score();
}

void ActivityWindow::AddToSums(const double* values, double sign) {
  for (size_t c = 0; c < channels_; ++c) {
    const double d = sign * (values[c] - anchor_[c]);
    sum_[c] += d;
    sum_sq_[c] += sign * d * d;
    if (sign > 0.0) largest_sq_[c] = std::max(largest_sq_[c], d * d);
  }
}

void ActivityWindow::Rebuild() {
  pushes_since_rebuild_ = 0;
  const double* oldest = frame(0);
  anchor_.assign(oldest, oldest + channels_);
  std::fill(sum_.begin(), sum_.end(), 0.0);
  std::fill(sum_sq_.begin(), sum_sq_.end(), 0.0);
  std::fill(largest_sq_.begin(), largest_sq_.end(), 0.0);
  for (size_t i = 0; i < size_; ++i) AddToSums(frame(i), 1.0);
}

bool ActivityWindow::StdDevs() {
  const double n = static_cast<double>(size_);
  bool clear = true;
  for (size_t c = 0; c < channels_; ++c) {
    const double mean = sum_[c] / n;
    // Population variance; rounding can leave a constant channel's a hair
    // below zero. A channel that never moved since the rebuild took in
    // only zero terms, so its sums are exact and it is always clear.
    const double variance = sum_sq_[c] / n - mean * mean;
    if (variance < stale_share_ * largest_sq_[c]) clear = false;
    stddev_[c] = variance > 0.0 ? std::sqrt(variance) : 0.0;
  }
  return clear;
}

double ActivityWindow::Score() {
  if (size_ < 2) return 0.0;
  if (!StdDevs()) {
    // Fresh sums are anchored inside the window, so their rounding is
    // small against any variance the window holds.
    ++early_rebuilds_;
    Rebuild();
    (void)StdDevs();
  }
  const size_t k = std::min(top_k_, channels_);
  std::partial_sort(stddev_.begin(), stddev_.begin() + static_cast<ptrdiff_t>(k),
                    stddev_.end(), std::greater<double>());
  double total = 0.0;
  for (size_t i = 0; i < k; ++i) total += stddev_[i];
  return total / static_cast<double>(k);
}

StreamRecognizer::StreamRecognizer(const Vocabulary* vocabulary,
                                   const WeightedSvdSimilarity* measure,
                                   StreamRecognizerConfig config)
    : vocabulary_(vocabulary),
      measure_(measure),
      config_(config),
      activity_(config.activity_window, config.activity_top_k),
      covariance_(1) {
  AIMS_CHECK(vocabulary_ != nullptr && measure_ != nullptr);
  AIMS_CHECK(config_.activity_window >= 2);
  AIMS_CHECK(config_.evaluation_stride >= 1);
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
  if (!std::all_of(frame.values.begin(), frame.values.end(),
                   [](double v) { return std::isfinite(v); })) {
    return Status::InvalidArgument(
        "StreamRecognizer: frame holds a NaN or infinite value");
  }
  ++frames_seen_;
  activity_.Push(frame.values);
  const double activity = activity_.activity();
  std::optional<RecognitionEvent> event;

  if (!in_segment_) {
    if (activity >= config_.activity_on) {
      in_segment_ = true;
      // Back-date the segment start to the window start: the onset frames
      // are already inside the activity window.
      segment_start_ = frames_seen_ - activity_.size();
      covariance_.Reset(frame.values.size());
      std::vector<double> values(frame.values.size());
      for (size_t i = 0; i < activity_.size(); ++i) {
        std::copy_n(activity_.frame(i), values.size(), values.begin());
        covariance_.Add(values);
      }
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
