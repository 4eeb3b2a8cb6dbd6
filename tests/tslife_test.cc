// The raw-sample storage lifecycle (storage/tslife.h + its core wiring):
// Gorilla segment building and bit-exact round trips, ADC-grade
// compression, NMSE-bounded downsampling, segment-op framing, retention
// sweeps (age tiers, byte budgets, per-session filters), standing-query
// maintenance at ingest, and durability of all of it across reopen.

#include "storage/tslife.h"

#include <unistd.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/aims.h"
#include "streams/sample.h"

namespace aims {
namespace {

using storage::tslife::BuildSegments;
using storage::tslife::DecodeSegmentOp;
using storage::tslife::DownsampleSegment;
using storage::tslife::EncodeSegmentOp;
using storage::tslife::RetentionPolicy;
using storage::tslife::Segment;
using storage::tslife::SegmentOp;
using storage::tslife::SegmentStore;
using storage::tslife::SweepStats;

// ---- Segment building + round trip ------------------------------------

std::vector<int64_t> RegularGridUs(size_t n, double rate_hz,
                                   int64_t t0_us = 0) {
  std::vector<int64_t> t(n);
  for (size_t i = 0; i < n; ++i) {
    t[i] = t0_us +
           static_cast<int64_t>(std::llround(static_cast<double>(i) * 1e6 /
                                             rate_hz));
  }
  return t;
}

TEST(TsLifeSegment, RoundTripsBitExactIncludingSpecials) {
  const size_t n = 300;
  std::vector<int64_t> t = RegularGridUs(n, 800.0);
  std::vector<double> v(n);
  for (size_t i = 0; i < n; ++i) {
    v[i] = std::sin(0.01 * static_cast<double>(i)) * 1e-3;
  }
  // Specials must survive the XOR codec bit-for-bit.
  v[17] = std::numeric_limits<double>::quiet_NaN();
  v[18] = std::numeric_limits<double>::infinity();
  v[19] = -std::numeric_limits<double>::infinity();
  v[20] = -0.0;

  std::vector<Segment> segments = BuildSegments(3, t, v, 800.0, 128);
  ASSERT_EQ(segments.size(), 3u);  // 128 + 128 + 44
  EXPECT_EQ(segments[0].meta.channel, 3u);
  EXPECT_EQ(segments[0].meta.seq, 0u);
  EXPECT_EQ(segments[1].meta.seq, 1u);
  EXPECT_EQ(segments[2].meta.count, n - 256);
  EXPECT_EQ(segments[0].meta.tier, 0u);
  EXPECT_EQ(segments[0].meta.decimation, 1u);
  EXPECT_EQ(segments[0].meta.t0_us, t[0]);
  EXPECT_EQ(segments[0].meta.t1_us, t[127]);

  size_t i = 0;
  for (const Segment& seg : segments) {
    auto decoded = seg.Decode();
    ASSERT_TRUE(decoded.ok());
    for (const gorilla::Sample& s : decoded.ValueOrDie()) {
      EXPECT_EQ(s.t_ms, t[i]);
      // Bit-exact: compare representations so NaN == NaN and -0.0 != 0.0.
      uint64_t got, want;
      static_assert(sizeof(got) == sizeof(s.value));
      std::memcpy(&got, &s.value, sizeof(got));
      std::memcpy(&want, &v[i], sizeof(want));
      EXPECT_EQ(got, want) << "sample " << i;
      ++i;
    }
  }
  EXPECT_EQ(i, n);
}

TEST(TsLifeSegment, AdcQuantizedSensorDataCompressesAtLeast4x) {
  // A 12-bit ADC sampling a slow glove flex: quantized values repeat and
  // drift by a few codes, which is the regime Gorilla was built for.
  const size_t n = 4096;
  std::vector<int64_t> t = RegularGridUs(n, 100.0);
  std::vector<double> v(n);
  for (size_t i = 0; i < n; ++i) {
    double x = std::sin(2.0 * M_PI * 0.25 * static_cast<double>(i) / 100.0);
    v[i] = std::round(x * 2048.0) / 2048.0;
  }
  std::vector<Segment> segments = BuildSegments(0, t, v, 100.0, 4096);
  ASSERT_EQ(segments.size(), 1u);
  const Segment& seg = segments[0];
  ASSERT_GT(seg.payload_bytes(), 0u);
  double ratio = static_cast<double>(seg.raw_bytes()) /
                 static_cast<double>(seg.payload_bytes());
  EXPECT_GE(ratio, 4.0) << "payload " << seg.payload_bytes() << " of "
                        << seg.raw_bytes();
}

TEST(TsLifeSegment, StoreTracksTotalsAndReplacesByKey) {
  SegmentStore store;
  EXPECT_TRUE(store.empty());
  std::vector<int64_t> t = RegularGridUs(64, 100.0);
  std::vector<double> v(64, 1.5);
  for (Segment& seg : BuildSegments(0, t, v, 100.0, 32)) {
    store.Put(std::move(seg));
  }
  EXPECT_EQ(store.size(), 2u);
  EXPECT_EQ(store.total_samples(), 64u);
  const size_t bytes_before = store.total_bytes();
  EXPECT_GT(bytes_before, 0u);

  // Replacement by (channel, seq) swaps totals, not duplicates them.
  std::vector<double> shorter(16, 2.0);
  std::vector<Segment> repl =
      BuildSegments(0, RegularGridUs(16, 100.0), shorter, 100.0, 32);
  ASSERT_EQ(repl.size(), 1u);
  store.Put(repl[0]);
  EXPECT_EQ(store.size(), 2u);
  EXPECT_EQ(store.total_samples(), 16u + 32u);

  auto read = store.ReadChannel(0);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(read.ValueOrDie().size(), 48u);

  EXPECT_TRUE(store.Drop(0, 1));
  EXPECT_FALSE(store.Drop(0, 1));
  EXPECT_FALSE(store.Drop(7, 0));
  EXPECT_EQ(store.size(), 1u);
  EXPECT_EQ(store.total_samples(), 16u);
}

// ---- Downsampling -------------------------------------------------------

TEST(TsLifeDownsample, OversampledToneDecimatesWithinNmseBound) {
  // A 2 Hz tone sampled at 256 Hz: massively oversampled, so the Nyquist
  // re-estimate should shed most of the samples.
  const size_t n = 2048;
  const double rate = 256.0;
  std::vector<int64_t> t = RegularGridUs(n, rate);
  std::vector<double> v(n);
  for (size_t i = 0; i < n; ++i) {
    v[i] = std::sin(2.0 * M_PI * 2.0 * static_cast<double>(i) / rate);
  }
  std::vector<Segment> segments = BuildSegments(0, t, v, rate, n);
  ASSERT_EQ(segments.size(), 1u);

  RetentionPolicy policy;
  policy.nmse_bound = 0.01;
  auto down = DownsampleSegment(segments[0], policy);
  ASSERT_TRUE(down.ok()) << down.status().message();
  const Segment& d = down.ValueOrDie();
  EXPECT_EQ(d.meta.tier, 1u);
  EXPECT_GE(d.meta.decimation, 2u);
  EXPECT_LT(d.meta.count, n);
  EXPECT_GT(d.meta.nmse, 0.0);
  EXPECT_LE(d.meta.nmse, policy.nmse_bound);
  // Identity survives: the pass replaces the payload, not the key, and
  // the covered time range is unchanged (age decisions survive tiering).
  EXPECT_EQ(d.meta.channel, segments[0].meta.channel);
  EXPECT_EQ(d.meta.seq, segments[0].meta.seq);
  EXPECT_EQ(d.meta.t0_us, segments[0].meta.t0_us);
  EXPECT_EQ(d.meta.t1_us, segments[0].meta.t1_us);
  EXPECT_LT(d.payload_bytes(), segments[0].payload_bytes());
}

TEST(TsLifeDownsample, RefusesWhenNoDecimationMeetsTheBound) {
  // White-ish noise at the sample rate has content up to Nyquist: even 2x
  // decimation wrecks the reconstruction, so the pass must refuse rather
  // than record a broken tier.
  const size_t n = 512;
  std::vector<int64_t> t = RegularGridUs(n, 100.0);
  std::vector<double> v(n);
  uint64_t state = 12345;
  for (size_t i = 0; i < n; ++i) {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    v[i] = static_cast<double>(state >> 11) / 9007199254740992.0 - 0.5;
  }
  std::vector<Segment> segments = BuildSegments(0, t, v, 100.0, n);
  RetentionPolicy policy;
  policy.nmse_bound = 1e-4;
  auto down = DownsampleSegment(segments[0], policy);
  ASSERT_FALSE(down.ok());
  EXPECT_EQ(down.status().code(), StatusCode::kFailedPrecondition);
}

TEST(TsLifeDownsample, RefusesTinySegments) {
  std::vector<int64_t> t = RegularGridUs(4, 100.0);
  std::vector<double> v(4, 1.0);
  std::vector<Segment> segments = BuildSegments(0, t, v, 100.0, 4);
  auto down = DownsampleSegment(segments[0], RetentionPolicy{});
  ASSERT_FALSE(down.ok());
  EXPECT_EQ(down.status().code(), StatusCode::kFailedPrecondition);
}

// ---- Segment-op framing -------------------------------------------------

TEST(TsLifeSegmentOp, EncodeDecodeRoundTrip) {
  std::vector<int64_t> t = RegularGridUs(100, 100.0);
  std::vector<double> v(100);
  for (size_t i = 0; i < 100; ++i) v[i] = 0.25 * static_cast<double>(i % 7);
  Segment seg = BuildSegments(2, t, v, 100.0, 128)[0];
  seg.meta.tier = 1;
  seg.meta.decimation = 4;
  seg.meta.nmse = 0.0125;

  std::vector<uint8_t> blob =
      EncodeSegmentOp(SegmentOp::Kind::kPut, /*session=*/9, seg);
  auto decoded = DecodeSegmentOp(blob);
  ASSERT_TRUE(decoded.ok());
  const SegmentOp& op = decoded.ValueOrDie();
  EXPECT_EQ(op.kind, SegmentOp::Kind::kPut);
  EXPECT_EQ(op.session, 9u);
  EXPECT_EQ(op.segment.meta.channel, 2u);
  EXPECT_EQ(op.segment.meta.tier, 1u);
  EXPECT_EQ(op.segment.meta.decimation, 4u);
  EXPECT_DOUBLE_EQ(op.segment.meta.nmse, 0.0125);
  EXPECT_EQ(op.segment.bytes, seg.bytes);
  EXPECT_EQ(op.segment.meta.count, seg.meta.count);
  // The size the catalog's dead-byte count uses, for both kinds.
  EXPECT_EQ(EncodedSegmentOpSize(SegmentOp::Kind::kPut, seg), blob.size());
  EXPECT_EQ(EncodedSegmentOpSize(SegmentOp::Kind::kDrop, seg),
            EncodeSegmentOp(SegmentOp::Kind::kDrop, 9, seg).size());
}

TEST(TsLifeSegmentOp, DecodeRejectsTruncationAndTrailingGarbage) {
  Segment seg = BuildSegments(0, RegularGridUs(32, 100.0),
                              std::vector<double>(32, 1.0), 100.0, 32)[0];
  std::vector<uint8_t> blob =
      EncodeSegmentOp(SegmentOp::Kind::kDrop, /*session=*/1, seg);
  ASSERT_TRUE(DecodeSegmentOp(blob).ok());

  // Every proper prefix must fail cleanly, never crash or misparse.
  for (size_t cut = 0; cut < blob.size(); ++cut) {
    auto r = DecodeSegmentOp(blob.data(), cut);
    ASSERT_FALSE(r.ok()) << "prefix of " << cut << " bytes parsed";
    EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  }
  // Trailing garbage is corruption too: a WAL blob is exactly one op.
  std::vector<uint8_t> padded = blob;
  padded.push_back(0);
  EXPECT_FALSE(DecodeSegmentOp(padded).ok());
}

TEST(TsLifeSegmentOp, InflatedCountIsAnErrorNotAnAllocation) {
  // DecodeSegmentOp accepts any count up to its 2^30 field bound, so the
  // Gorilla decoder behind Segment::Decode() must refuse a count the
  // payload cannot hold before it reserves for it. The payload is 17
  // bytes: one 128-bit first sample plus four 2-bit repeats.
  Segment seg = BuildSegments(0, std::vector<int64_t>(5, 1000),
                              std::vector<double>(5, 1.5), 800.0, 8)[0];
  ASSERT_EQ(seg.bytes.size(), 17u);
  std::vector<uint8_t> blob =
      EncodeSegmentOp(SegmentOp::Kind::kPut, /*session=*/3, seg);
  // Op layout: kind u8, session u64, channel u64, seq u64, tier u32,
  // decimation u32, then the u64 count.
  constexpr size_t kCountOffset = 1 + 8 + 8 + 8 + 4 + 4;
  uint64_t count = 0;
  std::memcpy(&count, blob.data() + kCountOffset, sizeof(count));
  ASSERT_EQ(count, 5u);
  for (uint64_t inflated : {uint64_t{6}, uint64_t{1} << 30}) {
    std::memcpy(blob.data() + kCountOffset, &inflated, sizeof(inflated));
    auto op = DecodeSegmentOp(blob);
    ASSERT_TRUE(op.ok()) << inflated;
    EXPECT_EQ(op->segment.meta.count, inflated);
    auto samples = op->segment.Decode();
    ASSERT_FALSE(samples.ok()) << inflated;
    EXPECT_EQ(samples.status().code(), StatusCode::kInvalidArgument);
  }
}

// ---- Core wiring: ingest, read-back, sweeps, standing queries ----------

streams::Recording MakeRecording(size_t frames, size_t channels,
                                 double rate_hz = 100.0, double t0 = 0.0) {
  streams::Recording rec;
  rec.sample_rate_hz = rate_hz;
  for (size_t f = 0; f < frames; ++f) {
    streams::Frame frame;
    frame.timestamp = t0 + static_cast<double>(f) / rate_hz;
    frame.values.resize(channels);
    for (size_t c = 0; c < channels; ++c) {
      // Smooth (oversampled) so retention sweeps can downsample it.
      frame.values[c] =
          std::round(std::sin(2.0 * M_PI * 0.5 * frame.timestamp *
                              static_cast<double>(c + 1)) *
                     2048.0) /
          2048.0;
    }
    rec.Append(std::move(frame));
  }
  return rec;
}

TEST(TsLifeCore, IngestSealsSegmentsAndReadsBackBitExact) {
  core::AimsConfig config;
  config.tslife.segment_max_samples = 64;
  core::AimsSystem system(config);
  streams::Recording rec = MakeRecording(200, 2);
  auto id = system.IngestRecording("raw", rec);
  ASSERT_TRUE(id.ok());

  auto metas = system.ListSegments(id.ValueOrDie());
  ASSERT_TRUE(metas.ok());
  ASSERT_EQ(metas.ValueOrDie().size(), 2u * 4u);  // 64+64+64+8 per channel
  EXPECT_GT(system.SegmentBytes(), 0u);

  for (size_t c = 0; c < 2; ++c) {
    auto samples = system.ReadRawSamples(id.ValueOrDie(), c);
    ASSERT_TRUE(samples.ok());
    ASSERT_EQ(samples.ValueOrDie().size(), rec.num_frames());
    std::vector<double> channel = rec.Channel(c);
    for (size_t i = 0; i < channel.size(); ++i) {
      EXPECT_EQ(samples.ValueOrDie()[i].value, channel[i]);
      EXPECT_EQ(samples.ValueOrDie()[i].t_ms,
                static_cast<int64_t>(std::llround(rec.frames[i].timestamp *
                                                  1e6)));
    }
  }
  EXPECT_FALSE(system.ReadRawSamples(id.ValueOrDie(), 99).ok());
  EXPECT_FALSE(system.ListSegments(42).ok());
}

TEST(TsLifeCore, DisabledLifecycleSealsNothing) {
  core::AimsConfig config;
  config.tslife.enabled = false;
  core::AimsSystem system(config);
  auto id = system.IngestRecording("off", MakeRecording(100, 1));
  ASSERT_TRUE(id.ok());
  auto metas = system.ListSegments(id.ValueOrDie());
  ASSERT_TRUE(metas.ok());
  EXPECT_TRUE(metas.ValueOrDie().empty());
  EXPECT_EQ(system.SegmentBytes(), 0u);
}

TEST(TsLifeCore, AgeTiersDownsampleThenDrop) {
  core::AimsConfig config;
  config.tslife.segment_max_samples = 512;
  core::AimsSystem system(config);
  // Two seconds of data ending at t=2s.
  auto id = system.IngestRecording("aged", MakeRecording(200, 1));
  ASSERT_TRUE(id.ok());
  const size_t bytes_raw = system.SegmentBytes();

  RetentionPolicy policy;
  policy.downsample_age_seconds = 10.0;
  policy.drop_age_seconds = 3600.0;
  policy.nmse_bound = 0.05;

  // "Now" only 5 s past the data: nothing is old enough.
  auto young = system.SweepRetention(policy, 5 * 1000000ll);
  ASSERT_TRUE(young.ok());
  EXPECT_EQ(young.ValueOrDie().segments_downsampled, 0u);
  EXPECT_EQ(young.ValueOrDie().segments_dropped, 0u);
  EXPECT_EQ(system.SegmentBytes(), bytes_raw);

  // Past the downsample age: tier 0 -> tier 1, smaller, NMSE recorded.
  auto mid = system.SweepRetention(policy, 60 * 1000000ll);
  ASSERT_TRUE(mid.ok());
  EXPECT_EQ(mid.ValueOrDie().segments_downsampled, 1u);
  EXPECT_GT(mid.ValueOrDie().max_nmse, 0.0);
  EXPECT_LE(mid.ValueOrDie().max_nmse, policy.nmse_bound);
  EXPECT_LT(system.SegmentBytes(), bytes_raw);
  auto metas = system.ListSegments(id.ValueOrDie());
  ASSERT_TRUE(metas.ok());
  ASSERT_EQ(metas.ValueOrDie().size(), 1u);
  EXPECT_EQ(metas.ValueOrDie()[0].tier, 1u);
  EXPECT_GE(metas.ValueOrDie()[0].decimation, 2u);

  // Past the drop age: gone entirely.
  auto old_sweep = system.SweepRetention(policy, 7200 * 1000000ll);
  ASSERT_TRUE(old_sweep.ok());
  EXPECT_EQ(old_sweep.ValueOrDie().segments_dropped, 1u);
  EXPECT_EQ(system.SegmentBytes(), 0u);
  auto samples = system.ReadRawSamples(id.ValueOrDie(), 0);
  ASSERT_TRUE(samples.ok());
  EXPECT_TRUE(samples.ValueOrDie().empty());
}

TEST(TsLifeCore, ByteBudgetEvictsOldestFirst) {
  core::AimsConfig config;
  config.tslife.segment_max_samples = 128;
  core::AimsSystem system(config);
  // One session, several segments spanning ~10 s of data.
  auto id = system.IngestRecording("budget", MakeRecording(1024, 1));
  ASSERT_TRUE(id.ok());
  auto metas = system.ListSegments(id.ValueOrDie());
  ASSERT_TRUE(metas.ok());
  ASSERT_EQ(metas.ValueOrDie().size(), 8u);

  // A budget around half the session: the sweep must shed oldest-first
  // (downsample, then drop) until under it.
  RetentionPolicy policy;
  policy.max_bytes = system.SegmentBytes() / 2;
  policy.nmse_bound = 0.05;
  auto stats = system.SweepRetention(policy, 200 * 1000000ll);
  ASSERT_TRUE(stats.ok());
  EXPECT_GT(stats.ValueOrDie().segments_downsampled +
                stats.ValueOrDie().segments_dropped,
            0u);
  EXPECT_LE(system.SegmentBytes(), policy.max_bytes);
  // The stats account for the whole pass, and bytes_after matches the
  // store the sweep left behind.
  EXPECT_EQ(stats.ValueOrDie().segments_scanned, 8u);
  EXPECT_EQ(stats.ValueOrDie().bytes_after, system.SegmentBytes());
  EXPECT_GT(stats.ValueOrDie().bytes_before,
            stats.ValueOrDie().bytes_after);
  auto after = system.ListSegments(id.ValueOrDie());
  ASSERT_TRUE(after.ok());
  ASSERT_FALSE(after.ValueOrDie().empty());
}

TEST(TsLifeCore, SessionFilterScopesTheSweep) {
  core::AimsSystem system;
  auto a = system.IngestRecording("a", MakeRecording(128, 1));
  auto b = system.IngestRecording("b", MakeRecording(128, 1));
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());

  RetentionPolicy drop_all;
  drop_all.drop_age_seconds = 1.0;
  std::vector<core::SessionId> only_a = {a.ValueOrDie()};
  auto stats = system.SweepRetention(drop_all, 3600 * 1000000ll, &only_a);
  ASSERT_TRUE(stats.ok());
  EXPECT_GT(stats.ValueOrDie().segments_dropped, 0u);

  auto a_metas = system.ListSegments(a.ValueOrDie());
  auto b_metas = system.ListSegments(b.ValueOrDie());
  ASSERT_TRUE(a_metas.ok());
  ASSERT_TRUE(b_metas.ok());
  EXPECT_TRUE(a_metas.ValueOrDie().empty());
  EXPECT_FALSE(b_metas.ValueOrDie().empty()) << "filter must scope the sweep";
}

TEST(TsLifeCore, StandingQueriesMaintainExactResultsAtIngest) {
  core::AimsSystem system;
  streams::Recording rec = MakeRecording(256, 2);

  core::StandingRangeQuery q;
  q.handle = 7;
  q.channel = 1;
  q.first_frame = 10;
  q.last_frame = 200;
  system.SetStandingQueries({q});

  std::vector<core::StandingRangeUpdate> updates;
  auto id = system.IngestRecording("standing", rec, nullptr, &updates);
  ASSERT_TRUE(id.ok());
  ASSERT_EQ(updates.size(), 1u);
  EXPECT_EQ(updates[0].handle, 7u);
  EXPECT_EQ(updates[0].session, id.ValueOrDie());

  auto direct = system.QueryRange(id.ValueOrDie(), 1, 10, 200);
  ASSERT_TRUE(direct.ok());
  // Bit-identical, not approximately equal: the maintained result must be
  // indistinguishable from the block-storage evaluation.
  EXPECT_EQ(updates[0].sum, direct.ValueOrDie().sum);
  EXPECT_EQ(updates[0].mean, direct.ValueOrDie().mean);
  EXPECT_EQ(updates[0].count, direct.ValueOrDie().count);
}

TEST(TsLifeCore, StandingQueryOutOfRangeIsSkippedNotFailed) {
  core::AimsSystem system;
  core::StandingRangeQuery q;
  q.handle = 1;
  q.channel = 5;  // recording has 2 channels
  q.first_frame = 0;
  q.last_frame = 50;
  core::StandingRangeQuery far;
  far.handle = 2;
  far.channel = 0;
  far.first_frame = 5000;  // beyond the recording
  far.last_frame = 6000;
  system.SetStandingQueries({q, far});

  std::vector<core::StandingRangeUpdate> updates;
  auto id = system.IngestRecording("skip", MakeRecording(128, 2), nullptr,
                                   &updates);
  ASSERT_TRUE(id.ok());
  EXPECT_TRUE(updates.empty());
}

// ---- Durability ---------------------------------------------------------

std::string TestDir(const std::string& name) {
  std::string dir = ::testing::TempDir() + "aims_tslife_" + name + "_" +
                    std::to_string(::getpid());
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

core::AimsConfig DurableConfig(const std::string& dir) {
  core::AimsConfig config;
  config.durability.path = dir;
  config.durability.sync_mode = storage::durable::WalSyncMode::kNone;
  config.tslife.segment_max_samples = 128;
  return config;
}

TEST(TsLifeDurable, SegmentsSurviveReopenFromWal) {
  std::string dir = TestDir("wal");
  streams::Recording rec = MakeRecording(300, 2);
  {
    core::AimsSystem system(DurableConfig(dir));
    ASSERT_TRUE(system.init_status().ok());
    ASSERT_TRUE(system.IngestRecording("durable", rec).ok());
    // No checkpoint: reopen must rebuild the stores from WAL replay.
  }
  core::AimsSystem reopened(DurableConfig(dir));
  ASSERT_TRUE(reopened.init_status().ok());
  ASSERT_EQ(reopened.ListSessions().size(), 1u);
  core::SessionId id = reopened.ListSessions()[0].id;
  for (size_t c = 0; c < 2; ++c) {
    auto samples = reopened.ReadRawSamples(id, c);
    ASSERT_TRUE(samples.ok());
    std::vector<double> channel = rec.Channel(c);
    ASSERT_EQ(samples.ValueOrDie().size(), channel.size());
    for (size_t i = 0; i < channel.size(); ++i) {
      EXPECT_EQ(samples.ValueOrDie()[i].value, channel[i]);
    }
  }
  std::filesystem::remove_all(dir);
}

TEST(TsLifeDurable, SweepAndTiersSurviveSnapshotAndReplay) {
  std::string dir = TestDir("snap");
  {
    core::AimsSystem system(DurableConfig(dir));
    ASSERT_TRUE(system.init_status().ok());
    ASSERT_TRUE(system.IngestRecording("a", MakeRecording(256, 1)).ok());
    RetentionPolicy policy;
    policy.downsample_age_seconds = 1.0;
    auto stats = system.SweepRetention(policy, 3600 * 1000000ll);
    ASSERT_TRUE(stats.ok());
    ASSERT_GT(stats.ValueOrDie().segments_downsampled, 0u);
    // Checkpoint snapshots the tiered store (v2 rows)...
    ASSERT_TRUE(system.Checkpoint().ok());
    // ...and post-checkpoint activity lands in the fresh WAL.
    ASSERT_TRUE(system.IngestRecording("b", MakeRecording(64, 1)).ok());
  }
  core::AimsSystem reopened(DurableConfig(dir));
  ASSERT_TRUE(reopened.init_status().ok());
  ASSERT_EQ(reopened.ListSessions().size(), 2u);
  auto metas = reopened.ListSegments(reopened.ListSessions()[0].id);
  ASSERT_TRUE(metas.ok());
  ASSERT_FALSE(metas.ValueOrDie().empty());
  EXPECT_EQ(metas.ValueOrDie()[0].tier, 1u);
  EXPECT_GT(metas.ValueOrDie()[0].nmse, 0.0);
  auto b_metas = reopened.ListSegments(reopened.ListSessions()[1].id);
  ASSERT_TRUE(b_metas.ok());
  EXPECT_FALSE(b_metas.ValueOrDie().empty());
  EXPECT_EQ(b_metas.ValueOrDie()[0].tier, 0u);
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace aims
