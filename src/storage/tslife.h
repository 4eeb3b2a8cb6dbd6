#pragma once

#include <cstdint>
#include <map>
#include <utility>
#include <vector>

#include "common/gorilla.h"
#include "common/status.h"
#include "signal/spectral.h"

/// \file tslife.h
/// \brief The raw-sample storage lifecycle (ROADMAP item 2). Immersidata
/// is append-only time-series; beside the wavelet blocks that answer
/// progressive queries, each channel's retained samples are also sealed
/// into Gorilla-compressed segments (common/gorilla.h — delta-of-delta
/// timestamps, XOR values) so the *original* samples stay readable
/// bit-exact. Segments move through tiers as they age:
///
///   tier 0   raw — exactly the ingested samples, bit-exact;
///   tier N   downsampled — re-decimated to the window's Nyquist rate
///            (the paper's adaptive-sampling estimator, Sec. 4), with the
///            reconstruction NMSE against the previous tier recorded in
///            the segment's metadata and bounded by policy;
///   dropped  once past the policy's drop age.
///
/// Everything here is a passive value layer: building, encoding,
/// downsampling, and holding segments. Durability (WAL segment records),
/// the sweep schedule, and the metrics/watchdog wiring live with their
/// owners (core::AimsSystem and the server's retention sweeper).

namespace aims::storage::tslife {

/// \brief Raw-segment lifecycle configuration of one AimsSystem.
struct TsLifeConfig {
  /// Build and persist raw segments at ingest. Off, the system behaves
  /// exactly as before this subsystem existed (no segments, no sweep).
  bool enabled = true;
  /// Samples per sealed segment (the last segment of a channel may be
  /// shorter). Sized so one segment's decode stays cache-friendly while
  /// the per-segment metadata stays negligible.
  size_t segment_max_samples = 4096;
};

/// \brief Metadata of one sealed segment. Timestamps are microseconds:
/// an 800 Hz glove ticks every 1250 us — a millisecond grid would alias
/// neighboring samples onto one tick above 1 kHz.
struct SegmentMeta {
  /// Channel within the session.
  size_t channel = 0;
  /// Per-(session, channel) sequence number; (channel, seq) is the
  /// segment's identity, stable across downsampling (a downsample pass
  /// replaces the payload in place, it does not re-key).
  uint64_t seq = 0;
  /// 0 = raw (bit-exact ingested samples); +1 per downsample pass.
  uint32_t tier = 0;
  /// Cumulative decimation versus the raw tier.
  uint32_t decimation = 1;
  /// Samples in the Gorilla stream.
  size_t count = 0;
  /// Covered time range [t0_us, t1_us] — unchanged by downsampling, so
  /// age-based policy decisions survive tier changes.
  int64_t t0_us = 0;
  int64_t t1_us = 0;
  /// Nominal sample rate of the payload (raw rate / decimation).
  double rate_hz = 0.0;
  /// Reconstruction NMSE against the previous tier, recorded by the
  /// downsample pass (0 for raw segments). Cumulative passes keep the
  /// maximum seen, so the bound always covers the distance from raw.
  double nmse = 0.0;
};

/// \brief One sealed segment: metadata + Gorilla-encoded (t_us, value)
/// stream.
struct Segment {
  SegmentMeta meta;
  std::vector<uint8_t> bytes;

  size_t payload_bytes() const { return bytes.size(); }
  /// What the samples would cost uncompressed (16 bytes each) — the
  /// numerator of the compression ratio.
  size_t raw_bytes() const { return meta.count * 16; }
  Result<std::vector<gorilla::Sample>> Decode() const {
    return gorilla::GorillaDecode(bytes, meta.count);
  }
};

/// \brief Seals one channel's samples into segments of at most
/// \p segment_max_samples, sequence numbers starting at \p first_seq.
/// Timestamps and values round-trip bit-exact through Decode().
std::vector<Segment> BuildSegments(size_t channel,
                                   const std::vector<int64_t>& t_us,
                                   const std::vector<double>& values,
                                   double rate_hz, size_t segment_max_samples,
                                   uint64_t first_seq = 0);

/// \brief Per-session container of sealed segments, keyed (channel, seq).
class SegmentStore {
 public:
  /// Inserts or replaces by (channel, seq) — replacement is how a
  /// downsample pass lands.
  void Put(Segment segment);
  /// Removes one segment; false when absent.
  bool Drop(size_t channel, uint64_t seq);

  bool empty() const { return segments_.empty(); }
  size_t size() const { return segments_.size(); }
  size_t total_bytes() const { return total_bytes_; }
  size_t total_samples() const { return total_samples_; }

  /// Segments in (channel, seq) order — deterministic for serialization.
  const std::map<std::pair<size_t, uint64_t>, Segment>& segments() const {
    return segments_;
  }

  /// Decodes one channel's samples across its segments, time-ascending.
  Result<std::vector<gorilla::Sample>> ReadChannel(size_t channel) const;

 private:
  std::map<std::pair<size_t, uint64_t>, Segment> segments_;
  size_t total_bytes_ = 0;
  size_t total_samples_ = 0;
};

/// \brief Per-tenant retention policy: what age moves a segment down a
/// tier, what age drops it, and how lossy a tier change may be.
/// Ages are measured against the segment's own data time (t1_us), not a
/// wall clock, so sweeps are deterministic under an injected "now".
struct RetentionPolicy {
  /// Data older than this is downsampled to its Nyquist rate; 0 disables.
  double downsample_age_seconds = 0.0;
  /// Data older than this is dropped; 0 disables.
  double drop_age_seconds = 0.0;
  /// Per-session segment byte budget; oldest segments are downsampled
  /// (then dropped) until under it. 0 = unlimited.
  uint64_t max_bytes = 0;
  /// A downsample pass whose reconstruction NMSE would exceed this is
  /// retried at a lower decimation, and skipped entirely when even 2x
  /// cannot meet it.
  double nmse_bound = 0.05;
  /// Floor for the Nyquist re-estimate (idle channels never decimate to
  /// nothing).
  double min_rate_hz = 2.0;
  /// The paper's f_max estimator knobs (Sec. 3.1 / Sec. 4).
  signal::SpectralOptions spectral;
};

/// \brief Re-decimates \p segment to its content's Nyquist rate. The
/// decimation starts at the spectral estimate and halves until the
/// reconstruction NMSE (linear interpolation back onto the original
/// timestamps, MSE over variance) meets \p policy.nmse_bound.
/// FailedPrecondition when no decimation >= 2 meets the bound (the
/// segment is already as dense as its content requires).
Result<Segment> DownsampleSegment(const Segment& segment,
                                  const RetentionPolicy& policy);

/// \brief One WAL-framed segment mutation: a sealed put (ingest or
/// downsample replacement) or a retention drop. `session` is the local
/// session id within the owning AimsSystem.
struct SegmentOp {
  enum class Kind : uint8_t { kPut = 1, kDrop = 2 };
  Kind kind = Kind::kPut;
  uint64_t session = 0;
  /// kPut: the full segment. kDrop: only meta.channel / meta.seq matter.
  Segment segment;
};

/// \brief Serializes one op for a WAL segment record (or snapshot row).
std::vector<uint8_t> EncodeSegmentOp(SegmentOp::Kind kind, uint64_t session,
                                     const Segment& segment);
inline std::vector<uint8_t> EncodeSegmentOp(const SegmentOp& op) {
  return EncodeSegmentOp(op.kind, op.session, op.segment);
}
/// \brief EncodeSegmentOp(kind, session, segment).size(), without encoding.
size_t EncodedSegmentOpSize(SegmentOp::Kind kind, const Segment& segment);
/// \brief Parses one op; InvalidArgument on truncation or corruption.
Result<SegmentOp> DecodeSegmentOp(const uint8_t* data, size_t size);
inline Result<SegmentOp> DecodeSegmentOp(const std::vector<uint8_t>& blob) {
  return DecodeSegmentOp(blob.data(), blob.size());
}

/// \brief Result of one retention sweep over one AimsSystem.
struct SweepStats {
  uint64_t segments_scanned = 0;
  uint64_t segments_downsampled = 0;
  uint64_t segments_dropped = 0;
  /// Downsample passes skipped because no decimation met the NMSE bound.
  uint64_t segments_skipped = 0;
  uint64_t bytes_before = 0;
  uint64_t bytes_after = 0;
  /// Largest per-segment NMSE recorded by this sweep's downsample passes.
  double max_nmse = 0.0;

  void Merge(const SweepStats& other) {
    segments_scanned += other.segments_scanned;
    segments_downsampled += other.segments_downsampled;
    segments_dropped += other.segments_dropped;
    segments_skipped += other.segments_skipped;
    bytes_before += other.bytes_before;
    bytes_after += other.bytes_after;
    if (other.max_nmse > max_nmse) max_nmse = other.max_nmse;
  }
};

}  // namespace aims::storage::tslife
