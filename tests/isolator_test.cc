#include "recognition/isolator.h"

#include <algorithm>
#include <cmath>
#include <deque>
#include <functional>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "common/stats.h"
#include "recognition/similarity.h"
#include "recognition_parity.h"
#include "synth/cyberglove.h"

namespace aims::recognition {
namespace {

linalg::Matrix ToMatrix(const streams::Recording& rec) {
  linalg::Matrix m(rec.num_frames(), rec.num_channels());
  for (size_t r = 0; r < rec.num_frames(); ++r) {
    m.SetRow(r, rec.frames[r].values);
  }
  return m;
}

class IsolatorFixture : public ::testing::Test {
 protected:
  IsolatorFixture() : sim_(synth::DefaultAslVocabulary(), 31, /*noise=*/0.5) {
    // Build a template vocabulary from a reference subject. Use the motion
    // signs, whose covariance structure is distinctive.
    synth::SubjectProfile reference = sim_.MakeSubject();
    for (size_t sign : kSigns) {
      vocab_.Add(sim_.vocabulary()[sign].name,
                 ToMatrix(sim_.GenerateSign(sign, reference).ValueOrDie()));
    }
  }

  static constexpr size_t kSigns[4] = {12, 13, 16, 17};

  synth::CyberGloveSimulator sim_;
  Vocabulary vocab_;
  WeightedSvdSimilarity measure_;
};

constexpr size_t IsolatorFixture::kSigns[4];

TEST_F(IsolatorFixture, IsolatesAndRecognizesSequence) {
  synth::SubjectProfile subject = sim_.MakeSubject();
  std::vector<size_t> script = {12, 16, 13, 17, 12};
  std::vector<synth::SignSegment> truth;
  auto recording =
      sim_.GenerateSequence(script, subject, /*rest=*/1.0, &truth);
  ASSERT_TRUE(recording.ok());

  StreamRecognizerConfig config;
  StreamRecognizer recognizer(&vocab_, &measure_, config);
  std::vector<RecognitionEvent> events;
  for (const streams::Frame& frame : recording.ValueOrDie().frames) {
    auto event = recognizer.Push(frame);
    ASSERT_TRUE(event.ok());
    if (event.ValueOrDie().has_value()) {
      events.push_back(*event.ValueOrDie());
    }
  }
  auto last = recognizer.Finish();
  ASSERT_TRUE(last.ok());
  if (last.ValueOrDie().has_value()) events.push_back(*last.ValueOrDie());

  // Every scripted sign should be isolated (an event overlapping its true
  // boundaries) and most should be recognized correctly; renditions are
  // time-warped so allow one spurious split.
  ASSERT_GE(events.size(), script.size());
  EXPECT_LE(events.size(), script.size() + 1);
  size_t isolated = 0, correct = 0;
  std::vector<bool> used(events.size(), false);
  for (size_t t = 0; t < truth.size(); ++t) {
    for (size_t e = 0; e < events.size(); ++e) {
      if (used[e]) continue;
      bool overlaps = events[e].start_frame < truth[t].end_frame &&
                      events[e].end_frame > truth[t].start_frame;
      if (!overlaps) continue;
      used[e] = true;
      ++isolated;
      if (events[e].label == sim_.vocabulary()[script[t]].name) ++correct;
      break;
    }
  }
  EXPECT_GE(isolated, 5u);
  EXPECT_GE(correct, 4u) << "only " << correct << "/5 recognized";
}

TEST_F(IsolatorFixture, QuietStreamEmitsNothing) {
  StreamRecognizerConfig config;
  StreamRecognizer recognizer(&vocab_, &measure_, config);
  streams::Frame frame;
  frame.values.assign(synth::kHandChannels, 0.0);
  for (int i = 0; i < 500; ++i) {
    frame.timestamp = i * 0.01;
    auto event = recognizer.Push(frame);
    ASSERT_TRUE(event.ok());
    EXPECT_FALSE(event.ValueOrDie().has_value());
  }
  EXPECT_FALSE(recognizer.segment_open());
  auto last = recognizer.Finish();
  ASSERT_TRUE(last.ok());
  EXPECT_FALSE(last.ValueOrDie().has_value());
}

TEST_F(IsolatorFixture, GlitchesShorterThanMinSegmentIgnored) {
  StreamRecognizerConfig config;
  config.min_segment_frames = 50;
  config.off_debounce_frames = 10;  // close quickly so the glitch stays short
  StreamRecognizer recognizer(&vocab_, &measure_, config);
  // 10 frames of wild motion, then quiet.
  for (int i = 0; i < 200; ++i) {
    streams::Frame frame;
    frame.timestamp = i * 0.01;
    frame.values.assign(synth::kHandChannels,
                        (i >= 50 && i < 60) ? (i % 2 ? 50.0 : -50.0) : 0.0);
    auto event = recognizer.Push(frame);
    ASSERT_TRUE(event.ok());
    EXPECT_FALSE(event.ValueOrDie().has_value()) << "frame " << i;
  }
  // The glitch's segment was discarded before any evaluation.
  EXPECT_EQ(recognizer.evaluations(), 0u);
}

TEST_F(IsolatorFixture, FrameOfOtherWidthRejectedWithoutStateChange) {
  synth::SubjectProfile subject = sim_.MakeSubject();
  auto recording = sim_.GenerateSequence({12, 16}, subject, 1.0, nullptr);
  ASSERT_TRUE(recording.ok());
  StreamRecognizerConfig config;
  StreamRecognizer recognizer(&vocab_, &measure_, config);
  StreamRecognizer reference(&vocab_, &measure_, config);
  std::vector<RecognitionEvent> events, expected;
  const std::vector<streams::Frame>& frames = recording.ValueOrDie().frames;
  for (size_t i = 0; i < frames.size(); ++i) {
    if (i == 40 || i == 200) {
      for (size_t width : {size_t{0}, size_t{20}, synth::kHandChannels + 1}) {
        streams::Frame bad;
        bad.values.assign(width, 1.0);
        EXPECT_EQ(recognizer.Push(bad).status().code(),
                  StatusCode::kInvalidArgument);
      }
      // Full width, one NaN or infinite channel.
      for (double value : {std::numeric_limits<double>::quiet_NaN(),
                           std::numeric_limits<double>::infinity(),
                           -std::numeric_limits<double>::infinity()}) {
        streams::Frame bad = frames[i];
        bad.values[3] = value;
        EXPECT_EQ(recognizer.Push(bad).status().code(),
                  StatusCode::kInvalidArgument);
      }
    }
    auto event = recognizer.Push(frames[i]);
    ASSERT_TRUE(event.ok());
    if (event->has_value()) events.push_back(**event);
    auto ref = reference.Push(frames[i]);
    ASSERT_TRUE(ref.ok());
    if (ref->has_value()) expected.push_back(**ref);
  }
  EXPECT_EQ(recognizer.frames_seen(), frames.size());
  ASSERT_FALSE(expected.empty());
  ASSERT_EQ(events.size(), expected.size());
  for (size_t e = 0; e < events.size(); ++e) {
    EXPECT_EQ(events[e].label, expected[e].label);
    EXPECT_EQ(events[e].start_frame, expected[e].start_frame);
    EXPECT_EQ(events[e].end_frame, expected[e].end_frame);
  }
}

TEST_F(IsolatorFixture, EvidenceAccumulatesForPresentPattern) {
  // The information-theoretic intuition: during a GREEN sign, GREEN's
  // accumulated evidence should end up the largest. Use a well-articulated
  // subject (no warp, full amplitude) — this tests the accumulation
  // mechanism, not cross-subject robustness (E7/E8 cover that).
  synth::SubjectProfile subject = sim_.MakeSubject();
  subject.warp = 0.0;
  subject.amplitude_factor = 1.0;
  subject.pose_offset.assign(synth::kGloveSensors, 0.0);
  auto recording = sim_.GenerateSign(12, subject);  // GREEN
  ASSERT_TRUE(recording.ok());
  StreamRecognizerConfig config;
  StreamRecognizer recognizer(&vocab_, &measure_, config);
  for (const streams::Frame& frame : recording.ValueOrDie().frames) {
    ASSERT_TRUE(recognizer.Push(frame).ok());
  }
  ASSERT_TRUE(recognizer.segment_open());
  EXPECT_GT(recognizer.evaluations(), 0u);
  const std::vector<double>& evidence = recognizer.accumulated_evidence();
  ASSERT_EQ(evidence.size(), vocab_.size());
  size_t best = 0;
  for (size_t i = 1; i < evidence.size(); ++i) {
    if (evidence[i] > evidence[best]) best = i;
  }
  EXPECT_EQ(vocab_.entries()[best].label, "GREEN");
}

/// The activity detector as it was before its running sums: a Welford
/// pass (one RunningStats per channel) over every frame of the window at
/// every push, then the mean of the top_k population standard deviations.
double WindowedPassActivity(const std::deque<std::vector<double>>& window,
                            size_t top_k) {
  if (window.size() < 2) return 0.0;
  const size_t channels = window.front().size();
  std::vector<RunningStats> stats(channels);
  for (const std::vector<double>& frame : window) {
    for (size_t c = 0; c < channels; ++c) stats[c].Add(frame[c]);
  }
  std::vector<double> stddevs(channels);
  for (size_t c = 0; c < channels; ++c) stddevs[c] = stats[c].stddev();
  const size_t k = std::min(std::max<size_t>(top_k, 1), channels);
  std::partial_sort(stddevs.begin(),
                    stddevs.begin() + static_cast<ptrdiff_t>(k),
                    stddevs.end(), std::greater<double>());
  double total = 0.0;
  for (size_t i = 0; i < k; ++i) total += stddevs[i];
  return total / static_cast<double>(k);
}

/// Frame i of a stream, drawn in order.
using FrameAt = std::function<std::vector<double>(size_t)>;

/// Pushes frames 0 .. \p n - 1 of \p frame_at into an ActivityWindow and
/// into the windowed pass; after every push the scores agree within 1e-6
/// and the window holds the same frames, oldest first. With \p exact_zero,
/// the score is exactly 0 wherever the windowed pass reads 0. Returns the
/// largest difference.
double CompareWithWindowedPass(size_t n, const FrameAt& frame_at,
                               size_t window, size_t top_k, bool exact_zero,
                               const std::string& what) {
  ActivityWindow detector(window, top_k);
  std::deque<std::vector<double>> reference;
  double largest = 0.0;
  for (size_t i = 0; i < n; ++i) {
    reference.push_back(frame_at(i));
    if (reference.size() > window) reference.pop_front();
    detector.Push(reference.back());
    const double want = WindowedPassActivity(reference, top_k);
    const double got = detector.activity();
    largest = std::max(largest, std::abs(got - want));
    if (std::abs(got - want) > 1e-6 ||
        (exact_zero && want == 0.0 && got != 0.0)) {
      ADD_FAILURE() << what << ": frame " << i << " scores " << got
                    << ", the windowed pass " << want;
      return largest;
    }
    if (i % 997 == 0 || i + 1 == n) {
      EXPECT_EQ(detector.size(), reference.size()) << what;
      for (size_t f = 0; f < reference.size(); ++f) {
        EXPECT_TRUE(std::equal(reference[f].begin(), reference[f].end(),
                               detector.frame(f)))
            << what << ": frame " << i << ", window slot " << f;
      }
    }
  }
  return largest;
}

FrameAt FramesOf(const streams::Recording& recording) {
  return [&recording](size_t i) { return recording.frames[i].values; };
}

/// Frames of \p channels channels, drawn in order: each channel a DC offset
/// that grows by \p drift per frame, plus Gaussian noise, with a level step
/// of up to +-50 noise sigmas every few hundred frames, and every fourth
/// channel holding still for stretches of a few hundred frames.
FrameAt SteppedFrames(size_t channels, double offset, double noise,
                      uint64_t seed, double drift = 0.0) {
  struct State {
    Rng rng;
    std::vector<double> level;
    bool still = false;
  };
  auto state = std::make_shared<State>(
      State{Rng(seed), std::vector<double>(channels, offset)});
  return [state, channels, offset, noise, drift](size_t i) {
    Rng& rng = state->rng;
    if (rng.Bernoulli(1.0 / 300)) state->still = !state->still;
    std::vector<double> frame(channels);
    for (size_t c = 0; c < channels; ++c) {
      double& level = state->level[c];
      if (rng.Bernoulli(1.0 / 400)) {
        level = offset + rng.Uniform(-50.0, 50.0) * noise;
      }
      frame[c] = drift * static_cast<double>(i) +
                 (state->still && c % 4 == 0
                      ? level
                      : level + rng.Gaussian(0.0, noise));
    }
    return frame;
  };
}

TEST(ActivityWindowReferenceTest, GloveStreamsMatchTheWindowedPass) {
  // A 100 Hz stream with the default config and its x8 upsample (800 Hz,
  // window 96), then the 100 Hz stream again under other windows.
  const parity::ParityStream glove = parity::MakeParityStream(0);
  const parity::ParityStream upsampled =
      parity::MakeParityStream(parity::kNumStreams / 2);
  ASSERT_EQ(upsampled.config.activity_window, 96u);
  for (const parity::ParityStream* stream : {&glove, &upsampled}) {
    CompareWithWindowedPass(stream->recording.num_frames(),
                            FramesOf(stream->recording),
                            stream->config.activity_window,
                            stream->config.activity_top_k, false,
                            stream->name);
  }
  for (size_t window : {2, 3, 12, 96}) {
    CompareWithWindowedPass(glove.recording.num_frames(),
                            FramesOf(glove.recording), window, 4, false,
                            glove.name + " window " + std::to_string(window));
  }
}

TEST(ActivityWindowReferenceTest, OffsetsNoiseAndStepsMatchTheWindowedPass) {
  for (double offset : {0.0, 1e3, 1e6}) {
    for (double noise : {1.0, 1e-3}) {
      for (size_t window : {2, 3, 12, 96}) {
        CompareWithWindowedPass(
            6000, SteppedFrames(28, offset, noise, 7), window, 4, false,
            "offset " + std::to_string(offset) + " noise " +
                std::to_string(noise) + " window " + std::to_string(window));
      }
    }
  }
}

TEST(ActivityWindowReferenceTest, ConstantChannelsScoreExactlyZero) {
  // All channels constant: 0 from the first frame on, whatever the value.
  for (double value : {0.0, -3.25, 1e6}) {
    for (size_t window : {2, 3, 12, 96}) {
      CompareWithWindowedPass(
          500, [value](size_t) { return std::vector<double>(28, value); },
          window, 4, true, "constant " + std::to_string(value));
    }
  }
  // Channels that never move score 0 beside the moving ones, so a top-k
  // that reaches them still matches.
  for (size_t window : {2, 3, 12, 96}) {
    FrameAt moving = SteppedFrames(6, 10.0, 1.0, 3);
    CompareWithWindowedPass(
        3000,
        [moving](size_t i) {
          std::vector<double> frame = moving(i);
          frame[1] = 42.0;
          frame[4] = -1e6;
          return frame;
        },
        window, 6, true, "two constant channels");
  }
}

TEST(ActivityWindowReferenceTest, AMillionFramesStayWithinTheBound) {
  // 31,250 rebuilds of a 32-frame window while the offset drifts from 10^3
  // to past 10^6: sums never re-anchored would cancel catastrophically.
  EXPECT_LE(CompareWithWindowedPass(1000000,
                                    SteppedFrames(4, 1e3, 1.0, 11, 1.0), 32,
                                    2, false, "long stream"),
            1e-6);
}

}  // namespace
}  // namespace aims::recognition
