#pragma once

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
/// Both halves run incrementally (Sec. 3.4.1): the activity detector keeps
/// running sums over its window, so a frame costs O(channels), amortized,
/// whatever the window's length; the weighted-SVD comparison runs on a running
/// covariance of the open segment rather than a frame buffer, and the
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

/// \brief The activity detector: the last `window` frames and their score,
/// the mean population standard deviation of the `top_k` most active
/// channels over those frames.
///
/// The frames sit in one flat ring. Beside it, per-channel sums of
/// (x - anchor) and (x - anchor)^2 take in each new frame and give back the
/// one it evicts, so a push costs O(channels), not a pass over the window.
/// Once every `window` pushes the sums are rebuilt from the ring, anchored
/// at its oldest frame: the anchor keeps the differences small whatever
/// offset a channel carries. The sums carry the rounding of the largest
/// term they took in since the rebuild, so after a level step of many
/// times a channel's noise leaves the window, that rounding can outweigh
/// the channel's variance; a score that finds it no longer small against
/// some channel's variance rebuilds the sums early and rescores.
class ActivityWindow {
 public:
  ActivityWindow(size_t window, size_t top_k);

  /// Appends \p values as the newest frame, evicting the oldest once the
  /// window is full, and rescores. The first push fixes the channel count
  /// and sizes every buffer; later pushes must have that many values.
  void Push(const std::vector<double>& values);

  /// The score after the last push; 0 while fewer than 2 frames are in.
  double activity() const { return activity_; }
  /// Frames in the window (at most `window`).
  size_t size() const { return size_; }
  /// The \p i-th oldest frame in the window (0 is the oldest), as many
  /// values as every frame pushed.
  const double* frame(size_t i) const {
    return &ring_[(oldest_ + i) % window_ * channels_];
  }
  /// Rebuilds made ahead of the scheduled one because the rounding the
  /// sums carried was no longer small against a channel's variance.
  size_t early_rebuilds() const { return early_rebuilds_; }

 private:
  /// Adds (\p sign 1) or takes away (-1) one frame's terms of the sums.
  void AddToSums(const double* values, double sign);
  /// Re-anchors the sums at the oldest frame and recomputes them.
  void Rebuild();
  /// Fills stddev_ from the sums. False when some channel's variance is
  /// not clear of the rounding its sums carry.
  bool StdDevs();
  double Score();

  size_t window_;
  size_t top_k_;
  size_t channels_ = 0;
  std::vector<double> ring_;  ///< window_ x channels_, frame-major.
  size_t oldest_ = 0;         ///< Ring slot of the oldest frame.
  size_t size_ = 0;
  size_t pushes_since_rebuild_ = 0;
  size_t early_rebuilds_ = 0;
  /// A variance below this share of a channel's largest_sq_ is not clear
  /// of the rounding its sums carry (see StdDevs).
  double stale_share_;
  std::vector<double> anchor_;
  std::vector<double> sum_;     ///< Of (x - anchor) over the window.
  std::vector<double> sum_sq_;  ///< Of (x - anchor)^2 over the window.
  /// The largest (x - anchor)^2 the sums took in since the rebuild.
  std::vector<double> largest_sq_;
  std::vector<double> stddev_;  ///< Scratch for the top-k selection.
  double activity_ = 0.0;
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
  /// frame's channel count differs from the vocabulary's or a value is NaN
  /// or infinite. A finite segment whose co-moments overflow to infinity
  /// (amplitudes near 1e154) gets the eigen solve's InvalidArgument from
  /// the evaluation, not an event.
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
  /// Adds (scores - mean score) of the open segment to the evidence.
  Status AccumulateEvidence();
  Result<std::optional<RecognitionEvent>> CloseSegment();

  const Vocabulary* vocabulary_;
  const WeightedSvdSimilarity* measure_;
  StreamRecognizerConfig config_;

  ActivityWindow activity_;
  IncrementalCovariance covariance_;  ///< Of the open segment's frames.
  std::vector<double> evidence_;
  bool in_segment_ = false;
  size_t segment_start_ = 0;
  size_t frames_seen_ = 0;
  size_t frames_since_eval_ = 0;
  size_t low_activity_run_ = 0;
  size_t evaluations_ = 0;
};

}  // namespace aims::recognition
