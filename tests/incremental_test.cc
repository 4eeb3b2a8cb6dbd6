#include "recognition/incremental.h"

#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.h"
#include "recognition/isolator.h"
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

TEST(IncrementalCovarianceTest, MatchesBatchCovariance) {
  // Offsets up to 1e8 (e.g. raw sensor counts or timestamps riding on a
  // channel): the one-pass sum-of-products form cancels catastrophically
  // there, the shifted Welford update must not.
  for (double offset : {0.0, 1e4, 1e6, 1e8}) {
    Rng rng(1);
    linalg::Matrix segment(50, 4);
    for (double& x : segment.data()) x = offset + rng.Uniform(-3.0, 3.0);
    IncrementalCovariance inc(4);
    for (size_t r = 0; r < 50; ++r) inc.Add(segment.Row(r));
    auto cov = inc.Covariance();
    ASSERT_TRUE(cov.ok());
    linalg::Matrix expected = segment.ColumnCovariance();
    for (size_t i = 0; i < 4; ++i) {
      for (size_t j = 0; j < 4; ++j) {
        EXPECT_NEAR(cov.ValueOrDie()(i, j), expected(i, j),
                    1e-9 * std::fabs(expected(i, j)))
            << "offset " << offset << " at (" << i << ", " << j << ")";
      }
    }
    EXPECT_EQ(inc.count(), 50u);
  }
}

TEST(IncrementalCovarianceTest, NeedsTwoFrames) {
  IncrementalCovariance inc(3);
  EXPECT_FALSE(inc.Covariance().ok());
  inc.Add({1.0, 2.0, 3.0});
  EXPECT_FALSE(inc.Covariance().ok());
  inc.Add({2.0, 1.0, 0.0});
  EXPECT_TRUE(inc.Covariance().ok());
}

TEST(IncrementalCovarianceTest, ResetAndResize) {
  IncrementalCovariance inc(2);
  inc.Add({1.0, 2.0});
  inc.Add({3.0, 4.0});
  inc.Reset();
  EXPECT_EQ(inc.count(), 0u);
  EXPECT_EQ(inc.channels(), 2u);
  inc.Reset(5);
  EXPECT_EQ(inc.channels(), 5u);
  inc.Add(std::vector<double>(5, 1.0));
  EXPECT_EQ(inc.count(), 1u);
}

TEST(IncrementalCovarianceTest, SpectrumMatchesDirectEigen) {
  Rng rng(2);
  linalg::Matrix segment(80, 5);
  for (double& x : segment.data()) x = rng.Gaussian(0.0, 2.0);
  IncrementalCovariance inc(5);
  for (size_t r = 0; r < 80; ++r) inc.Add(segment.Row(r));
  auto spectrum = inc.Spectrum();
  ASSERT_TRUE(spectrum.ok());
  auto expected = WeightedSvdSimilarity::SegmentSpectrum(segment);
  ASSERT_TRUE(expected.ok());
  for (size_t i = 0; i < 5; ++i) {
    EXPECT_NEAR(spectrum.ValueOrDie().values[i],
                expected.ValueOrDie().values[i], 1e-8);
  }
}

class IncrementalRecognizerFixture : public ::testing::Test {
 protected:
  IncrementalRecognizerFixture()
      : sim_(synth::DefaultAslVocabulary(), 31, 0.5) {
    synth::SubjectProfile reference = sim_.MakeSubject();
    for (size_t sign : {12u, 13u, 16u, 17u}) {
      vocab_.Add(sim_.vocabulary()[sign].name,
                 ToMatrix(sim_.GenerateSign(sign, reference).ValueOrDie()));
    }
  }

  synth::CyberGloveSimulator sim_;
  Vocabulary vocab_;
};

TEST_F(IncrementalRecognizerFixture, CachedSpectraScoresMatchPerPairScores) {
  // The recognizer's cached template spectra must score exactly as the
  // per-pair measure does, bit for bit, for every sign of several subjects.
  WeightedSvdSimilarity measure;
  WeightedSvdSimilarity measure_rank3(3);
  for (int subject_id = 0; subject_id < 3; ++subject_id) {
    synth::SubjectProfile subject = sim_.MakeSubject();
    for (size_t sign : {12u, 13u, 16u, 17u}) {
      linalg::Matrix segment =
          ToMatrix(sim_.GenerateSign(sign, subject).ValueOrDie());
      auto spectrum = WeightedSvdSimilarity::SegmentSpectrum(segment);
      ASSERT_TRUE(spectrum.ok());
      for (const WeightedSvdSimilarity* m : {&measure, &measure_rank3}) {
        std::vector<double> direct = vocab_.Scores(segment, *m).ValueOrDie();
        auto cached = vocab_.SpectraScores(spectrum.ValueOrDie(), *m);
        ASSERT_TRUE(cached.ok());
        EXPECT_EQ(cached.ValueOrDie(), direct);
      }
    }
  }
}

TEST_F(IncrementalRecognizerFixture, AddDiscardsCachedSpectra) {
  synth::SubjectProfile subject = sim_.MakeSubject();
  linalg::Matrix segment =
      ToMatrix(sim_.GenerateSign(14, subject).ValueOrDie());
  auto spectrum = WeightedSvdSimilarity::SegmentSpectrum(segment);
  ASSERT_TRUE(spectrum.ok());
  WeightedSvdSimilarity measure;
  Vocabulary copy = vocab_;
  ASSERT_EQ(vocab_.SpectraScores(spectrum.ValueOrDie(), measure)
                .ValueOrDie()
                .size(),
            4u);
  // The copy shared the computed spectra; growing it must not.
  copy.Add("BLUE", segment);
  auto grown = copy.SpectraScores(spectrum.ValueOrDie(), measure);
  ASSERT_TRUE(grown.ok());
  EXPECT_EQ(grown.ValueOrDie(), copy.Scores(segment, measure).ValueOrDie());
  EXPECT_EQ(vocab_.SpectraScores(spectrum.ValueOrDie(), measure)
                .ValueOrDie()
                .size(),
            4u);
}

TEST_F(IncrementalRecognizerFixture, EmptyVocabularyRejected) {
  Vocabulary empty;
  linalg::EigenDecomposition spectrum;
  EXPECT_EQ(empty.SpectraScores(spectrum, WeightedSvdSimilarity())
                .status()
                .code(),
            StatusCode::kFailedPrecondition);
}

TEST_F(IncrementalRecognizerFixture, RecognizesStreamLikeBaseline) {
  synth::SubjectProfile subject = sim_.MakeSubject();
  std::vector<size_t> script = {12, 16, 13};
  std::vector<synth::SignSegment> truth;
  auto recording =
      sim_.GenerateSequence(script, subject, 1.0, &truth).ValueOrDie();

  StreamRecognizerConfig config;
  WeightedSvdSimilarity measure;
  StreamRecognizer recognizer(&vocab_, &measure, config);
  std::vector<RecognitionEvent> events;
  for (const streams::Frame& frame : recording.frames) {
    auto event = recognizer.Push(frame);
    ASSERT_TRUE(event.ok());
    if (event.ValueOrDie().has_value()) events.push_back(*event.ValueOrDie());
  }
  auto last = recognizer.Finish();
  ASSERT_TRUE(last.ok());
  if (last.ValueOrDie().has_value()) events.push_back(*last.ValueOrDie());

  // All three signs isolated and labelled correctly (overlap matching).
  size_t correct = 0;
  std::vector<bool> used(events.size(), false);
  for (size_t t = 0; t < truth.size(); ++t) {
    for (size_t e = 0; e < events.size(); ++e) {
      if (used[e]) continue;
      if (events[e].start_frame < truth[t].end_frame &&
          events[e].end_frame > truth[t].start_frame) {
        used[e] = true;
        if (events[e].label == sim_.vocabulary()[script[t]].name) ++correct;
        break;
      }
    }
  }
  EXPECT_GE(correct, 2u) << "only " << correct << "/3 recognized";
}

TEST_F(IncrementalRecognizerFixture, QuietStreamStaysSilent) {
  StreamRecognizerConfig config;
  WeightedSvdSimilarity measure;
  StreamRecognizer recognizer(&vocab_, &measure, config);
  streams::Frame frame;
  frame.values.assign(synth::kHandChannels, 0.0);
  for (int i = 0; i < 300; ++i) {
    frame.timestamp = i * 0.01;
    auto event = recognizer.Push(frame);
    ASSERT_TRUE(event.ok());
    EXPECT_FALSE(event.ValueOrDie().has_value());
  }
  EXPECT_FALSE(recognizer.segment_open());
}

}  // namespace
}  // namespace aims::recognition
