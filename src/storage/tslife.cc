#include "storage/tslife.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/byte_codec.h"
#include "common/macros.h"
#include "signal/resample.h"

namespace aims::storage::tslife {

namespace {

/// Scan-time sanity bound, mirroring the WAL's: a corrupt length field
/// must never make decode allocate gigabytes.
constexpr uint64_t kMaxField = 1ull << 30;

/// Linear interpolation of (t, v) pairs back onto query timestamps
/// \p t_query (both time-ascending), holding flat beyond the ends — the
/// same reconstruction model acquisition::SampledStream uses, so the
/// NMSE recorded here is comparable to the sampler reports.
std::vector<double> Reconstruct(const std::vector<gorilla::Sample>& retained,
                                const std::vector<int64_t>& t_query) {
  std::vector<double> out(t_query.size(), 0.0);
  if (retained.empty()) return out;
  size_t cursor = 0;
  for (size_t i = 0; i < t_query.size(); ++i) {
    const int64_t t = t_query[i];
    while (cursor + 1 < retained.size() && retained[cursor + 1].t_ms <= t) {
      ++cursor;
    }
    if (t <= retained.front().t_ms) {
      out[i] = retained.front().value;
    } else if (cursor + 1 >= retained.size()) {
      out[i] = retained.back().value;
    } else {
      const gorilla::Sample& a = retained[cursor];
      const gorilla::Sample& b = retained[cursor + 1];
      const double span = static_cast<double>(b.t_ms - a.t_ms);
      const double frac =
          span > 0.0 ? static_cast<double>(t - a.t_ms) / span : 0.0;
      out[i] = a.value * (1.0 - frac) + b.value * frac;
    }
  }
  return out;
}

/// MSE over variance; 0/0 is a perfect reconstruction of a constant.
double Nmse(const std::vector<double>& original,
            const std::vector<double>& reconstructed) {
  const size_t n = original.size();
  if (n == 0) return 0.0;
  double mean = 0.0;
  for (double x : original) mean += x;
  mean /= static_cast<double>(n);
  double var = 0.0;
  double mse = 0.0;
  for (size_t i = 0; i < n; ++i) {
    const double d = original[i] - mean;
    var += d * d;
    const double e = original[i] - reconstructed[i];
    mse += e * e;
  }
  if (var <= 0.0) return mse > 0.0 ? std::numeric_limits<double>::infinity()
                                   : 0.0;
  return mse / var;
}

}  // namespace

std::vector<Segment> BuildSegments(size_t channel,
                                   const std::vector<int64_t>& t_us,
                                   const std::vector<double>& values,
                                   double rate_hz, size_t segment_max_samples,
                                   uint64_t first_seq) {
  AIMS_CHECK(t_us.size() == values.size());
  std::vector<Segment> out;
  if (t_us.empty()) return out;
  const size_t cap = std::max<size_t>(segment_max_samples, 2);
  uint64_t seq = first_seq;
  for (size_t start = 0; start < t_us.size(); start += cap, ++seq) {
    const size_t end = std::min(t_us.size(), start + cap);
    Segment seg;
    seg.meta.channel = channel;
    seg.meta.seq = seq;
    seg.meta.tier = 0;
    seg.meta.decimation = 1;
    seg.meta.count = end - start;
    seg.meta.t0_us = t_us[start];
    seg.meta.t1_us = t_us[end - 1];
    seg.meta.rate_hz = rate_hz;
    seg.meta.nmse = 0.0;
    gorilla::GorillaEncoder encoder;
    for (size_t i = start; i < end; ++i) encoder.Append(t_us[i], values[i]);
    seg.bytes = encoder.TakeBytes();
    out.push_back(std::move(seg));
  }
  return out;
}

void SegmentStore::Put(Segment segment) {
  const auto key = std::make_pair(segment.meta.channel, segment.meta.seq);
  auto it = segments_.find(key);
  if (it != segments_.end()) {
    total_bytes_ -= it->second.bytes.size();
    total_samples_ -= it->second.meta.count;
    total_bytes_ += segment.bytes.size();
    total_samples_ += segment.meta.count;
    it->second = std::move(segment);
    return;
  }
  total_bytes_ += segment.bytes.size();
  total_samples_ += segment.meta.count;
  segments_.emplace(key, std::move(segment));
}

bool SegmentStore::Drop(size_t channel, uint64_t seq) {
  auto it = segments_.find(std::make_pair(channel, seq));
  if (it == segments_.end()) return false;
  total_bytes_ -= it->second.bytes.size();
  total_samples_ -= it->second.meta.count;
  segments_.erase(it);
  return true;
}

Result<std::vector<gorilla::Sample>> SegmentStore::ReadChannel(
    size_t channel) const {
  std::vector<gorilla::Sample> out;
  auto it = segments_.lower_bound(std::make_pair(channel, uint64_t{0}));
  for (; it != segments_.end() && it->first.first == channel; ++it) {
    AIMS_ASSIGN_OR_RETURN(std::vector<gorilla::Sample> samples,
                          it->second.Decode());
    out.insert(out.end(), samples.begin(), samples.end());
  }
  return out;
}

Result<Segment> DownsampleSegment(const Segment& segment,
                                  const RetentionPolicy& policy) {
  AIMS_ASSIGN_OR_RETURN(std::vector<gorilla::Sample> samples,
                        segment.Decode());
  const size_t n = samples.size();
  if (n < 8) {
    return Status::FailedPrecondition(
        "tslife: segment too short to downsample");
  }
  std::vector<int64_t> t_us(n);
  std::vector<double> values(n);
  for (size_t i = 0; i < n; ++i) {
    t_us[i] = samples[i].t_ms;
    values[i] = samples[i].value;
  }
  double rate = segment.meta.rate_hz;
  if (rate <= 0.0) {
    const double span_s =
        static_cast<double>(t_us.back() - t_us.front()) / 1e6;
    rate = span_s > 0.0 ? static_cast<double>(n - 1) / span_s : 0.0;
  }
  if (rate <= 0.0) {
    return Status::FailedPrecondition("tslife: segment has no sample rate");
  }

  // The paper's adaptive-sampling estimator picks the window's Nyquist
  // rate; the decimation realizing it is then walked down until the
  // reconstruction NMSE meets the policy bound.
  const double nyquist = signal::EstimateNyquistRate(
      values, rate, policy.spectral, policy.min_rate_hz);
  size_t decimation = nyquist > 0.0
                          ? static_cast<size_t>(std::floor(rate / nyquist))
                          : 1;
  decimation = std::min(decimation, n - 1);  // keep >= 2 samples
  for (; decimation >= 2; decimation /= 2) {
    auto filtered = signal::DecimateAntiAliased(values, decimation);
    if (!filtered.ok()) continue;
    std::vector<gorilla::Sample> retained;
    retained.reserve(filtered->size());
    size_t i = 0;
    for (size_t f = 0; f < n; f += decimation, ++i) {
      retained.push_back(gorilla::Sample{t_us[f], (*filtered)[i]});
    }
    const double nmse = Nmse(values, Reconstruct(retained, t_us));
    if (!(nmse <= policy.nmse_bound)) continue;

    Segment out;
    out.meta = segment.meta;
    out.meta.tier += 1;
    out.meta.decimation *= static_cast<uint32_t>(decimation);
    out.meta.count = retained.size();
    out.meta.rate_hz = rate / static_cast<double>(decimation);
    out.meta.nmse = std::max(segment.meta.nmse, nmse);
    gorilla::GorillaEncoder encoder;
    for (const gorilla::Sample& s : retained) encoder.Append(s);
    out.bytes = encoder.TakeBytes();
    return out;
  }
  return Status::FailedPrecondition(
      "tslife: no decimation >= 2 meets the NMSE bound");
}

std::vector<uint8_t> EncodeSegmentOp(SegmentOp::Kind kind, uint64_t session,
                                     const Segment& segment) {
  std::vector<uint8_t> out;
  out.reserve(64 + segment.bytes.size());
  ByteWriter writer(&out);
  writer.U8(static_cast<uint8_t>(kind));
  writer.U64(session);
  writer.U64(segment.meta.channel);
  writer.U64(segment.meta.seq);
  writer.U32(segment.meta.tier);
  writer.U32(segment.meta.decimation);
  writer.U64(segment.meta.count);
  writer.I64(segment.meta.t0_us);
  writer.I64(segment.meta.t1_us);
  writer.F64(segment.meta.rate_hz);
  writer.F64(segment.meta.nmse);
  if (kind == SegmentOp::Kind::kPut) {
    writer.U64(segment.bytes.size());
    writer.Bytes(segment.bytes.data(), segment.bytes.size());
  }
  return out;
}

size_t EncodedSegmentOpSize(SegmentOp::Kind kind, const Segment& segment) {
  // kind, session, channel, seq, tier, decimation, count, t0, t1, rate,
  // nmse; then a put's payload length and payload.
  constexpr size_t kFixed = 1 + 8 + 8 + 8 + 4 + 4 + 8 + 8 + 8 + 8 + 8;
  return kind == SegmentOp::Kind::kPut ? kFixed + 8 + segment.bytes.size()
                                       : kFixed;
}

Result<SegmentOp> DecodeSegmentOp(const uint8_t* data, size_t size) {
  const auto corrupt = [] {
    return Status::InvalidArgument("tslife: corrupt segment op");
  };
  ByteReader reader({data, size});
  const uint8_t kind = reader.U8();
  if (!reader.ok() || (kind != static_cast<uint8_t>(SegmentOp::Kind::kPut) &&
                       kind != static_cast<uint8_t>(SegmentOp::Kind::kDrop))) {
    return corrupt();
  }
  SegmentOp op;
  op.kind = static_cast<SegmentOp::Kind>(kind);
  op.session = reader.U64();
  const uint64_t channel = reader.U64();
  op.segment.meta.seq = reader.U64();
  op.segment.meta.tier = reader.U32();
  op.segment.meta.decimation = reader.U32();
  const uint64_t count = reader.U64();
  op.segment.meta.t0_us = reader.I64();
  op.segment.meta.t1_us = reader.I64();
  op.segment.meta.rate_hz = reader.F64();
  op.segment.meta.nmse = reader.F64();
  if (!reader.ok() || channel > kMaxField || count > kMaxField) {
    return corrupt();
  }
  op.segment.meta.channel = static_cast<size_t>(channel);
  op.segment.meta.count = static_cast<size_t>(count);
  if (op.kind == SegmentOp::Kind::kPut) {
    const uint64_t len = reader.U64();
    if (!reader.ok() || len > kMaxField) return corrupt();
    std::span<const uint8_t> bytes = reader.Bytes(static_cast<size_t>(len));
    if (!reader.ok()) return corrupt();
    op.segment.bytes.assign(bytes.begin(), bytes.end());
  }
  if (reader.remaining() != 0) return corrupt();
  return op;
}

}  // namespace aims::storage::tslife
