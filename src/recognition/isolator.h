#pragma once

#include <deque>
#include <optional>
#include <string>
#include <vector>

#include "common/status.h"
#include "recognition/incremental.h"
#include "recognition/similarity.h"
#include "recognition/vocabulary.h"
#include "streams/sample.h"

/// \file isolator.h
/// \brief Real-time pattern isolation + recognition over a continuous
/// multi-sensor stream (Sec. 3.4). The chicken-and-egg problem: a pattern
/// must be isolated before it can be recognized, but recognizing it is how
/// one knows where it ends. The paper's approach: "periodically compare
/// sensor streams with each member of the vocabulary using the weighted-SVD
/// measure, maintain the accumulated similarity values", and a heuristic
/// that "in real-time investigates the accumulated values and
/// simultaneously recognizes and isolates the input patterns" — the stream
/// accumulates positive information about the present pattern and negative
/// information about absent ones.
///
/// This implementation realizes that design: an activity detector opens and
/// closes candidate segments (signing motion vs rest), while within a
/// candidate segment the per-label accumulated evidence
///    acc_m += (sim_m - mean_over_labels(sim))
/// grows for the present pattern and shrinks for absent ones; at the
/// segment close the recognizer emits the evidence argmax, provided the
/// evidence passes a confidence threshold.
///
/// The weighted-SVD comparison is computed incrementally (Sec. 3.4.1): the
/// open segment is a running covariance rather than a frame buffer, and the
/// template spectra are computed once per vocabulary, so an evaluation costs
/// one eigen-decomposition whatever the segment's length.

namespace aims::recognition {

/// \brief A recognized, isolated pattern.
struct RecognitionEvent {
  std::string label;
  size_t start_frame = 0;  ///< Inclusive.
  size_t end_frame = 0;    ///< Exclusive.
  double confidence = 0.0; ///< Winning accumulated evidence share.
};

/// \brief Tuning knobs for the stream recognizer.
struct StreamRecognizerConfig {
  /// Frames between similarity evaluations (the paper's "periodically").
  size_t evaluation_stride = 8;
  /// Activity detector: rolling window length in frames.
  size_t activity_window = 12;
  /// Activity is the mean rolling standard deviation of the most active
  /// `activity_top_k` channels — a motion that drives only a few of the 28
  /// sensors (e.g. a wrist twist) must still register.
  size_t activity_top_k = 4;
  /// Hysteresis thresholds on that activity score.
  double activity_on = 4.0;
  double activity_off = 2.5;
  /// The segment only closes after this many *consecutive* frames below
  /// activity_off — momentary dips inside a motion (and the short lull
  /// between a motion's end and the hand's return to rest) must not split
  /// it. At the glove's 100 Hz clock this is a quarter second.
  size_t off_debounce_frames = 25;
  /// Segments shorter than this many frames are discarded as glitches.
  size_t min_segment_frames = 20;
  /// Minimum winning-evidence share (0..1) to emit an event.
  double min_confidence = 0.0;
};

/// \brief Online recognizer: feed frames, receive recognition events.
class StreamRecognizer {
 public:
  /// \param vocabulary template library (not owned, immutable while the
  /// recognizer lives; its template spectra are computed at the first
  /// evaluation and shared with every other recognizer on it).
  /// \param measure the weighted-SVD measure (not owned).
  StreamRecognizer(const Vocabulary* vocabulary,
                   const WeightedSvdSimilarity* measure,
                   StreamRecognizerConfig config);

  /// Pushes one frame; returns an event when a pattern was just isolated
  /// and recognized. InvalidArgument, with no state change, when the
  /// frame's channel count differs from the vocabulary's.
  Result<std::optional<RecognitionEvent>> Push(const streams::Frame& frame);

  /// Closes any open segment (end of stream).
  Result<std::optional<RecognitionEvent>> Finish();

  /// Accumulated per-entry evidence of the currently open segment (empty
  /// when idle) — the trajectory the paper's information-theoretic
  /// heuristic inspects.
  const std::vector<double>& accumulated_evidence() const {
    return evidence_;
  }
  bool segment_open() const { return in_segment_; }
  size_t frames_seen() const { return frames_seen_; }
  /// Similarity evaluations made so far, periodic and at segment close;
  /// each is one eigen-decomposition of the open segment's covariance.
  size_t evaluations() const { return evaluations_; }

 private:
  double CurrentActivity() const;
  /// Adds (scores - mean score) of the open segment to the evidence.
  Status AccumulateEvidence();
  Result<std::optional<RecognitionEvent>> CloseSegment();

  const Vocabulary* vocabulary_;
  const WeightedSvdSimilarity* measure_;
  StreamRecognizerConfig config_;

  std::deque<streams::Frame> recent_;  ///< Activity-detector window.
  IncrementalCovariance covariance_;   ///< Of the open segment's frames.
  std::vector<double> evidence_;
  bool in_segment_ = false;
  size_t segment_start_ = 0;
  size_t frames_seen_ = 0;
  size_t frames_since_eval_ = 0;
  size_t low_activity_run_ = 0;
  size_t evaluations_ = 0;
};

}  // namespace aims::recognition
