#include "recognition/isolator.h"

#include <gtest/gtest.h>

#include "recognition/similarity.h"
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

}  // namespace
}  // namespace aims::recognition
