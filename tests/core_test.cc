#include "core/aims.h"

#include <cmath>
#include <cstring>

#include <gtest/gtest.h>

#include "common/stats.h"
#include "synth/cyberglove.h"
#include "test_util.h"

namespace aims::core {
namespace {

streams::Recording GloveRecording(uint64_t seed, size_t sign = 12) {
  synth::CyberGloveSimulator sim(synth::DefaultAslVocabulary(), seed);
  synth::SubjectProfile subject = sim.MakeSubject();
  return sim.GenerateSign(sign, subject).ValueOrDie();
}

linalg::Matrix ToMatrix(const streams::Recording& rec) {
  linalg::Matrix m(rec.num_frames(), rec.num_channels());
  for (size_t r = 0; r < rec.num_frames(); ++r) {
    m.SetRow(r, rec.frames[r].values);
  }
  return m;
}

TEST(AimsSystemTest, IngestAndCatalog) {
  AimsSystem system;
  streams::Recording rec = GloveRecording(1);
  auto id = system.IngestRecording("session-1", rec);
  ASSERT_TRUE(id.ok());
  auto info = system.GetSession(id.ValueOrDie());
  ASSERT_TRUE(info.ok());
  EXPECT_EQ(info.ValueOrDie().name, "session-1");
  EXPECT_EQ(info.ValueOrDie().num_channels, synth::kHandChannels);
  EXPECT_EQ(info.ValueOrDie().num_frames, rec.num_frames());
  auto report = system.BestBasisReport(id.ValueOrDie());
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->size(), synth::kHandChannels);
  EXPECT_FALSE(system.BestBasisReport(99).ok());
  EXPECT_EQ(system.ListSessions().size(), 1u);
  EXPECT_FALSE(system.GetSession(99).ok());
}

TEST(AimsSystemTest, ReadChannelRoundTripsThroughStorage) {
  AimsSystem system;
  streams::Recording rec = GloveRecording(2);
  auto id = system.IngestRecording("rt", rec);
  ASSERT_TRUE(id.ok());
  for (size_t channel : {size_t{0}, size_t{10}, synth::kHandChannels - 1}) {
    auto read = system.ReadChannel(id.ValueOrDie(), channel);
    ASSERT_TRUE(read.ok());
    EXPECT_LT(testutil::MaxAbsDiff(read.ValueOrDie(), rec.Channel(channel)),
              1e-6);
  }
  EXPECT_FALSE(system.ReadChannel(id.ValueOrDie(), 999).ok());
}

TEST(AimsSystemTest, QueryRangeMatchesDirectAverage) {
  AimsSystem system;
  streams::Recording rec = GloveRecording(3);
  auto id = system.IngestRecording("qr", rec);
  ASSERT_TRUE(id.ok());
  const size_t channel = 5;
  const size_t first = 10, last = rec.num_frames() - 10;
  auto stats = system.QueryRange(id.ValueOrDie(), channel, first, last);
  ASSERT_TRUE(stats.ok());
  std::vector<double> values = rec.Channel(channel);
  double direct_sum = 0.0;
  for (size_t i = first; i <= last; ++i) direct_sum += values[i];
  EXPECT_NEAR(stats.ValueOrDie().sum, direct_sum,
              1e-6 * std::max(1.0, std::fabs(direct_sum)));
  EXPECT_NEAR(stats.ValueOrDie().mean,
              direct_sum / static_cast<double>(last - first + 1), 1e-6);
  EXPECT_EQ(stats.ValueOrDie().count, last - first + 1);
}

TEST(AimsSystemTest, QueryRangeReadsFarFewerBlocksThanFullScan) {
  AimsSystem system;
  // Long recording so the channel spans many blocks (a sequence of signs
  // runs a few thousand frames).
  synth::CyberGloveSimulator sim(synth::DefaultAslVocabulary(), 4);
  synth::SubjectProfile subject = sim.MakeSubject();
  auto rec =
      sim.GenerateSequence({0, 5, 12, 13, 16, 17, 2, 9, 12, 16}, subject,
                           /*rest=*/1.0, nullptr);
  ASSERT_TRUE(rec.ok());
  auto id = system.IngestRecording("io", rec.ValueOrDie());
  ASSERT_TRUE(id.ok());
  size_t frames = rec.ValueOrDie().num_frames();
  auto stats = system.QueryRange(id.ValueOrDie(), 0, 5, frames - 5);
  ASSERT_TRUE(stats.ok());
  // Full channel storage spans many blocks; the range query needs O(lg n).
  size_t padded = 1;
  while (padded < frames) padded <<= 1;
  size_t total_blocks = padded * sizeof(double) / 512;
  ASSERT_GE(total_blocks, 16u);
  EXPECT_LT(stats.ValueOrDie().blocks_read, total_blocks / 2);
  EXPECT_GT(stats.ValueOrDie().blocks_read, 0u);
}

TEST(AimsSystemTest, QueryRangeValidation) {
  AimsSystem system;
  auto id = system.IngestRecording("v", GloveRecording(5));
  ASSERT_TRUE(id.ok());
  EXPECT_FALSE(system.QueryRange(id.ValueOrDie(), 0, 10, 5).ok());
  EXPECT_FALSE(system.QueryRange(id.ValueOrDie(), 0, 0, 1u << 20).ok());
  EXPECT_FALSE(system.QueryRange(77, 0, 0, 5).ok());
}

TEST(AimsSystemTest, IngestRejectsDegenerateRecording) {
  AimsSystem system;
  streams::Recording tiny;
  tiny.sample_rate_hz = 100.0;
  tiny.Append(streams::Frame{0.0, {1.0}});
  EXPECT_FALSE(system.IngestRecording("tiny", tiny).ok());
}

TEST(AimsSystemTest, IngestRejectsRaggedRecording) {
  // Frames filled directly skip Recording::Append's width check; ingest
  // refuses them before doing any work instead of aborting in
  // Recording::Channel.
  AimsSystem system;
  streams::Recording good = GloveRecording(3);
  for (size_t width : {size_t{0}, size_t{5}, synth::kHandChannels + 1}) {
    streams::Recording ragged = good;
    ragged.frames[ragged.num_frames() / 2].values.assign(width, 0.5);
    auto id = system.IngestRecording("ragged", ragged);
    EXPECT_EQ(id.status().code(), StatusCode::kInvalidArgument)
        << "width " << width;
  }
  streams::Recording empty_frames;
  empty_frames.frames.resize(4);
  EXPECT_EQ(system.PrepareIngest("empty", empty_frames).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_TRUE(system.ListSessions().empty());
  EXPECT_EQ(system.device().num_blocks(), 0u);
  EXPECT_TRUE(system.IngestRecording("good", good).ok());
}

TEST(AimsSystemTest, OnlineRecognitionEndToEnd) {
  AimsSystem system;
  synth::CyberGloveSimulator sim(synth::DefaultAslVocabulary(), 6,
                                 /*noise=*/0.5);
  synth::SubjectProfile reference = sim.MakeSubject();
  for (size_t sign : {12u, 13u, 16u, 17u}) {
    system.AddVocabularyEntry(
        sim.vocabulary()[sign].name,
        ToMatrix(sim.GenerateSign(sign, reference).ValueOrDie()));
  }
  ASSERT_TRUE(system.StartRecognizer().ok());

  synth::SubjectProfile user = sim.MakeSubject();
  std::vector<synth::SignSegment> truth;
  auto stream = sim.GenerateSequence({13, 16}, user, 1.0, &truth);
  ASSERT_TRUE(stream.ok());
  std::vector<recognition::RecognitionEvent> events;
  for (const streams::Frame& frame : stream.ValueOrDie().frames) {
    auto event = system.PushLiveFrame(frame);
    ASSERT_TRUE(event.ok());
    if (event.ValueOrDie().has_value()) events.push_back(*event.ValueOrDie());
  }
  auto last = system.FinishLiveStream();
  ASSERT_TRUE(last.ok());
  if (last.ValueOrDie().has_value()) events.push_back(*last.ValueOrDie());
  // Time-warped renditions may split once; both scripted signs must be
  // found with the right labels, matched by boundary overlap.
  ASSERT_GE(events.size(), 2u);
  EXPECT_LE(events.size(), 3u);
  for (size_t t = 0; t < truth.size(); ++t) {
    bool found = false;
    for (const auto& event : events) {
      bool overlaps = event.start_frame < truth[t].end_frame &&
                      event.end_frame > truth[t].start_frame;
      if (overlaps &&
          event.label == sim.vocabulary()[truth[t].sign_index].name) {
        found = true;
        break;
      }
    }
    EXPECT_TRUE(found) << "sign " << t << " not recognized";
  }
}

TEST(AimsSystemTest, RecognizerRequiresVocabulary) {
  AimsSystem system;
  EXPECT_FALSE(system.StartRecognizer().ok());
  streams::Frame frame;
  frame.values.assign(4, 0.0);
  EXPECT_FALSE(system.PushLiveFrame(frame).ok());
  EXPECT_FALSE(system.FinishLiveStream().ok());
}

TEST(AimsSystemTest, MalformedTemplatesAndFramesRejected) {
  AimsSystem system;
  EXPECT_EQ(system.AddVocabularyEntry("empty", linalg::Matrix(0, 0)).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(system.AddVocabularyEntry("one-frame", linalg::Matrix(1, 4)).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(system.AddVocabularyEntry("no-channels", linalg::Matrix(8, 0))
                .code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(system.vocabulary().size(), 0u);
  ASSERT_TRUE(
      system.AddVocabularyEntry("glove", ToMatrix(GloveRecording(7))).ok());
  EXPECT_EQ(system.AddVocabularyEntry("narrow", linalg::Matrix(8, 20)).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(system.vocabulary().size(), 1u);

  ASSERT_TRUE(system.StartRecognizer().ok());
  for (size_t width : {size_t{0}, size_t{20}}) {
    streams::Frame frame;
    frame.values.assign(width, 1.0);
    EXPECT_EQ(system.PushLiveFrame(frame).status().code(),
              StatusCode::kInvalidArgument);
  }
  streams::Frame frame;
  frame.values.assign(synth::kHandChannels, 1.0);
  EXPECT_TRUE(system.PushLiveFrame(frame).ok());
}

TEST(AimsSystemTest, ProgressiveRangeQueryConvergesWithValidBounds) {
  AimsSystem system;
  synth::CyberGloveSimulator sim(synth::DefaultAslVocabulary(), 10);
  synth::SubjectProfile subject = sim.MakeSubject();
  auto rec = sim.GenerateSequence({12, 16, 13, 17}, subject, 1.0, nullptr);
  ASSERT_TRUE(rec.ok());
  auto id = system.IngestRecording("prog", rec.ValueOrDie());
  ASSERT_TRUE(id.ok());
  const size_t channel = 4;
  size_t first = 20, last = rec.ValueOrDie().num_frames() - 20;
  auto exact = system.QueryRange(id.ValueOrDie(), channel, first, last);
  ASSERT_TRUE(exact.ok());
  auto progressive =
      system.QueryRangeProgressive(id.ValueOrDie(), channel, first, last);
  ASSERT_TRUE(progressive.ok());
  const auto& steps = progressive.ValueOrDie().steps;
  ASSERT_FALSE(steps.empty());
  EXPECT_TRUE(progressive.ValueOrDie().complete);
  EXPECT_EQ(progressive.ValueOrDie().total_blocks_needed, steps.size());
  // Bounds hold at every step; the last step is exact.
  for (const ProgressiveRangeStep& step : steps) {
    EXPECT_LE(std::fabs(step.sum_estimate - exact.ValueOrDie().sum),
              step.sum_error_bound +
                  1e-6 * std::max(1.0, std::fabs(exact.ValueOrDie().sum)));
  }
  EXPECT_NEAR(steps.back().sum_estimate, exact.ValueOrDie().sum,
              1e-6 * std::max(1.0, std::fabs(exact.ValueOrDie().sum)));
  EXPECT_NEAR(steps.back().mean_estimate, exact.ValueOrDie().mean, 1e-6);
  // Block count matches the non-progressive query's I/O.
  EXPECT_EQ(steps.back().blocks_read, exact.ValueOrDie().blocks_read);
  // Validation.
  EXPECT_FALSE(system.QueryRangeProgressive(99, 0, 0, 5).ok());
  EXPECT_FALSE(
      system.QueryRangeProgressive(id.ValueOrDie(), channel, 10, 5).ok());
}

TEST(AimsSystemTest, BuildChannelCubeMatchesDirectStatistics) {
  AimsSystem system;
  std::vector<SessionId> ids;
  std::vector<streams::Recording> recordings;
  for (uint64_t seed : {11u, 12u, 13u}) {
    recordings.push_back(GloveRecording(seed));
    auto id = system.IngestRecording("s" + std::to_string(seed),
                                     recordings.back());
    ASSERT_TRUE(id.ok());
    ids.push_back(id.ValueOrDie());
  }
  AimsSystem::CubeSpec spec;
  spec.channel = 20;  // wrist flexion
  spec.time_buckets = 32;
  spec.value_buckets = 64;
  auto cube = system.BuildChannelCube(ids, spec);
  ASSERT_TRUE(cube.ok());
  // COUNT over everything equals the total frame count.
  propolyne::Evaluator evaluator(&cube.ValueOrDie());
  const auto& extents = cube.ValueOrDie().schema().extents;
  auto count = evaluator.Evaluate(propolyne::RangeSumQuery::Count(
      {0, 0, 0}, {extents[0] - 1, extents[1] - 1, extents[2] - 1}));
  ASSERT_TRUE(count.ok());
  size_t total_frames = 0;
  for (const auto& rec : recordings) total_frames += rec.num_frames();
  EXPECT_NEAR(count.ValueOrDie(), static_cast<double>(total_frames), 1e-6);
  // Per-session COUNT equals that session's frames.
  auto per_session = evaluator.Evaluate(propolyne::RangeSumQuery::Count(
      {1, 0, 0}, {1, extents[1] - 1, extents[2] - 1}));
  ASSERT_TRUE(per_session.ok());
  EXPECT_NEAR(per_session.ValueOrDie(),
              static_cast<double>(recordings[1].num_frames()), 1e-6);
  // VARIANCE over the value dimension is supported (db3 there).
  auto stats = propolyne::ComputeStatistics(
      evaluator, {0, 0, 0}, {extents[0] - 1, extents[1] - 1, extents[2] - 1},
      /*measure_dim=*/2);
  ASSERT_TRUE(stats.ok());
  EXPECT_GT(stats.ValueOrDie().Variance(), 0.0);
  // Validation.
  EXPECT_FALSE(system.BuildChannelCube({}, spec).ok());
  AimsSystem::CubeSpec bad = spec;
  bad.time_buckets = 33;
  EXPECT_FALSE(system.BuildChannelCube(ids, bad).ok());
}

TEST(AimsSystemTest, MultipleSessionsShareTheDevice) {
  AimsSystem system;
  auto id1 = system.IngestRecording("a", GloveRecording(7));
  auto id2 = system.IngestRecording("b", GloveRecording(8));
  ASSERT_TRUE(id1.ok() && id2.ok());
  EXPECT_NE(id1.ValueOrDie(), id2.ValueOrDie());
  EXPECT_EQ(system.ListSessions().size(), 2u);
  EXPECT_GT(system.device().num_blocks(), 0u);
}

/// FNV-1a over the exact bits of everything a query path reports, so a
/// change in any entry, value, block order or summation order moves it.
class BitDigest {
 public:
  void Add(uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      hash_ ^= (v >> (8 * i)) & 0xff;
      hash_ *= 0x100000001b3ull;
    }
  }
  void Add(double v) {
    uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof(bits));
    Add(bits);
  }
  uint64_t value() const { return hash_; }

 private:
  uint64_t hash_ = 0xcbf29ce484222325ull;
};

/// Random-walk channels: smooth enough to look like glove data, spread
/// wide enough that every block holds distinct bits.
streams::Recording RandomWalkRecording(size_t frames, size_t channels,
                                       Rng* rng) {
  streams::Recording rec;
  rec.sample_rate_hz = 100.0;
  std::vector<double> level(channels, 0.0);
  for (size_t f = 0; f < frames; ++f) {
    streams::Frame frame;
    frame.timestamp = static_cast<double>(f) / 100.0;
    frame.values.resize(channels);
    for (size_t c = 0; c < channels; ++c) {
      level[c] += rng->Gaussian(0.0, 1.0 + static_cast<double>(c));
      frame.values[c] = level[c];
    }
    rec.Append(std::move(frame));
  }
  return rec;
}

struct QueryPinCase {
  const char* name;
  signal::WaveletKind filter;
  size_t block_size_bytes;
  size_t cache_bytes;
  uint64_t digest;
};

void PrintTo(const QueryPinCase& c, std::ostream* os) { *os << c.name; }

class QueryPathPinTest : public ::testing::TestWithParam<QueryPinCase> {};

// Pins the bits of every PlanRangeQuery schedule, every
// QueryRangeProgressive step and every QueryRange answer over seeded
// sessions and ranges (point ranges, the full domain, log-uniform widths,
// every seventh progressive query stopped after two steps). With a cache
// the LRU state carries from query to query, so the plans' cached flags
// and the steps' cache_hits are pinned too. The digests were recorded
// from the map/set transform, per-coefficient schedule and pairwise
// block match that the flat versions replaced.
TEST_P(QueryPathPinTest, PlansStepsAndAnswersAreBitIdentical) {
  const QueryPinCase& c = GetParam();
  AimsConfig config;
  config.filter = c.filter;
  config.block_size_bytes = c.block_size_bytes;
  config.block_cache.capacity_bytes = c.cache_bytes;
  config.block_cache.num_shards = 4;
  AimsSystem system(config);
  Rng rng(2027);
  std::vector<std::pair<SessionId, size_t>> sessions;
  for (size_t frames : {size_t{37}, size_t{300}, size_t{1024}, size_t{2999}}) {
    auto id =
        system.IngestRecording("pin", RandomWalkRecording(frames, 6, &rng));
    ASSERT_TRUE(id.ok()) << id.status().ToString();
    sessions.emplace_back(*id, frames);
  }
  BitDigest digest;
  size_t queries = 0, steps = 0, hits = 0, stopped = 0;
  for (int round = 0; round < 150; ++round) {
    for (const auto& [id, frames] : sessions) {
      const size_t channel = static_cast<size_t>(rng.UniformInt(0, 5));
      size_t first = 0, last = frames - 1;
      if (round % 10 == 1) {
        first = last = static_cast<size_t>(
            rng.UniformInt(0, static_cast<int64_t>(frames) - 1));
      } else if (round % 10 != 0) {
        const double log_width =
            rng.Uniform(0.0, std::log2(static_cast<double>(frames)));
        const size_t width = std::min(
            frames, static_cast<size_t>(std::exp2(log_width)));
        first = static_cast<size_t>(
            rng.UniformInt(0, static_cast<int64_t>(frames - width)));
        last = first + width - 1;
      }
      auto plan = system.PlanRangeQuery(id, channel, first, last);
      ASSERT_TRUE(plan.ok()) << plan.status().ToString();
      digest.Add(uint64_t{plan->num_query_coefficients});
      for (size_t level : plan->wavelet_levels) digest.Add(uint64_t{level});
      digest.Add(uint64_t{plan->predicted_blocks});
      digest.Add(uint64_t{plan->predicted_cached_blocks});
      digest.Add(uint64_t{plan->predicted_cold_blocks});
      digest.Add(plan->predicted_io_ms);
      for (const QueryPlanBlockFetch& fetch : plan->schedule) {
        digest.Add(uint64_t{fetch.logical_block});
        digest.Add(uint64_t{fetch.num_coefficients});
        digest.Add(fetch.query_energy);
        digest.Add(uint64_t{fetch.cached});
      }
      const bool stop_early = queries % 7 == 3;
      auto progressive = system.QueryRangeProgressive(
          id, channel, first, last, [&](const ProgressiveRangeStep& step) {
            return stop_early && step.blocks_read >= 2 ? StepControl::kStop
                                                       : StepControl::kContinue;
          });
      ASSERT_TRUE(progressive.ok()) << progressive.status().ToString();
      digest.Add(uint64_t{progressive->complete});
      digest.Add(uint64_t{progressive->total_blocks_needed});
      if (!progressive->complete) ++stopped;
      steps += progressive->steps.size();
      hits += progressive->steps.back().cache_hits;
      for (const ProgressiveRangeStep& step : progressive->steps) {
        digest.Add(uint64_t{step.blocks_read});
        digest.Add(uint64_t{step.cache_hits});
        digest.Add(step.sum_estimate);
        digest.Add(step.mean_estimate);
        digest.Add(step.sum_error_bound);
      }
      auto exact = system.QueryRange(id, channel, first, last);
      ASSERT_TRUE(exact.ok()) << exact.status().ToString();
      digest.Add(exact->sum);
      digest.Add(exact->mean);
      digest.Add(uint64_t{exact->blocks_read});
      ++queries;
    }
  }
  EXPECT_EQ(queries, 600u);
  EXPECT_GT(stopped, 0u);
  // A cache that hit always or never would pin nothing about the LRU.
  if (c.cache_bytes == 0) {
    EXPECT_EQ(hits, 0u);
  } else {
    EXPECT_GT(hits, steps / 10);
    EXPECT_LT(hits, steps - steps / 10);
  }
  EXPECT_EQ(digest.value(), c.digest)
      << c.name << ": 0x" << std::hex << digest.value();
}

INSTANTIATE_TEST_SUITE_P(
    Configs, QueryPathPinTest,
    ::testing::Values(
        QueryPinCase{"db2_512_uncached", signal::WaveletKind::kDb2, 512, 0,
                     0x3564e9b6fb925c91ull},
        QueryPinCase{"db2_512_cached", signal::WaveletKind::kDb2, 512,
                     16 * 1024, 0xdfa3aa388fa24942ull},
        QueryPinCase{"db4_128_cached", signal::WaveletKind::kDb4, 128,
                     32 * 1024, 0xde65b377ebdc9d8cull},
        QueryPinCase{"haar_64_uncached", signal::WaveletKind::kHaar, 64, 0,
                     0xa9f3c4d71d22a634ull}),
    [](const auto& info) { return std::string(info.param.name); });

}  // namespace
}  // namespace aims::core
