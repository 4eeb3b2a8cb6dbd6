#pragma once

#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"

/// \file gorilla.h
/// \brief Gorilla-style time-series compression (Pelkonen et al., VLDB'15):
/// delta-of-delta timestamp encoding plus XOR float encoding, the codec
/// Facebook built for exactly the "telemetry at cadence" shape append-only
/// sample streams have. Standalone and reusable — the encoder sees only
/// (int64 timestamp, double value) pairs and a byte buffer. The timestamp
/// unit is the caller's choice (the codec only ever differences them): the
/// metrics history store (obs/timeseries.h) feeds milliseconds, the raw
/// sample segments (storage/tslife.h) feed microseconds.
///
/// Bit-exactness is part of the contract: values travel as their raw
/// IEEE-754 bit patterns, so NaN payloads, signed zeros, and ±inf all
/// round-trip unchanged. Steady series (fixed cadence, slowly moving
/// values) compress to ~1-2 bits per sample against 16 raw bytes.

namespace aims::gorilla {

/// \brief One point of one series: timestamp (caller-defined unit) + value.
struct Sample {
  int64_t t_ms = 0;
  double value = 0.0;
};

/// \brief Append-only bit stream (MSB-first within each byte, the classic
/// Gorilla layout). The writer gathers bits in a 64-bit accumulator and
/// stores each full word big-endian; the reader moves whole bytes.
class BitWriter {
 public:
  /// Appends the low \p bits bits of \p value (0-64), most significant
  /// first.
  void Write(uint64_t value, int bits);

  /// The stream so far, pending bits included (the last byte zero-padded),
  /// in a vector with no spare capacity: a sealed segment keeps it as is.
  std::vector<uint8_t> bytes() const;
  /// bytes(), leaving the writer empty.
  std::vector<uint8_t> TakeBytes();
  /// Total bits written so far (not rounded up to a byte).
  size_t bit_count() const {
    return flushed_ * 8 + static_cast<size_t>(pending_);
  }

 private:
  void Grow();

  /// Full words, big-endian; grows by doubling, never zero-filled.
  std::unique_ptr<uint8_t[]> words_;
  size_t capacity_ = 0;  ///< bytes allocated in words_
  size_t flushed_ = 0;   ///< bytes of full words stored in words_
  /// The pending bits are the low pending_ (0-63) bits of acc_; anything
  /// above them is stale and shifted out when the word is stored.
  uint64_t acc_ = 0;
  int pending_ = 0;
};

/// \brief Sequential reader over a BitWriter's output.
class BitReader {
 public:
  BitReader(const uint8_t* data, size_t size) : data_(data), size_(size) {}

  /// Reads \p bits bits (0-64) into the low bits of the result. False when
  /// the stream is exhausted (truncated input), in which case *out is
  /// unspecified.
  bool Read(uint64_t* out, int bits);
  bool ReadBit(bool* out);

 private:
  const uint8_t* data_;
  size_t size_;
  size_t bit_pos_ = 0;
};

/// \brief Streaming encoder for one chunk of one series.
///
/// Timestamps: the first sample stores t0 raw (64 bits); every later
/// sample stores the delta-of-delta in one of five variable-width classes
/// ('0' for a repeat of the previous delta — the fixed-cadence fast path —
/// up to a 64-bit escape for arbitrary jumps). Values: the first value is
/// stored raw; later values store the XOR against the previous value,
/// reusing the previous meaningful-bit window when it still fits.
///
/// Not thread-safe; callers serialize appends per chunk.
class GorillaEncoder {
 public:
  void Append(int64_t t_ms, double value);
  void Append(const Sample& s) { Append(s.t_ms, s.value); }

  size_t count() const { return count_; }
  /// Compressed size so far, rounded up to whole bytes.
  size_t size_bytes() const { return (writer_.bit_count() + 7) / 8; }
  /// Copy of the compressed bytes so far, size_bytes() long (the
  /// active-chunk read path decodes it together with count()).
  std::vector<uint8_t> bytes() const { return writer_.bytes(); }
  /// The sealed bytes, trimmed to size_bytes(); the encoder is spent
  /// afterwards.
  std::vector<uint8_t> TakeBytes() { return writer_.TakeBytes(); }

 private:
  BitWriter writer_;
  size_t count_ = 0;
  /// Timestamp and delta as two's-complement bit patterns: the delta
  /// arithmetic wraps instead of overflowing, so any int64 jump encodes.
  uint64_t prev_t_ = 0;
  uint64_t prev_delta_ = 0;
  uint64_t prev_bits_ = 0;
  /// Previous XOR's meaningful-bit window; leading < 0 marks "no window
  /// yet" (the first non-zero XOR always emits an explicit window).
  int prev_leading_ = -1;
  int prev_trailing_ = 0;
};

/// \brief Decodes \p count samples from an encoded chunk.
/// InvalidArgument on a truncated or corrupt stream, and before any
/// allocation when \p size bytes cannot hold \p count samples (the first
/// takes 128 bits, every later one at least 2).
Result<std::vector<Sample>> GorillaDecode(const uint8_t* data, size_t size,
                                          size_t count);
inline Result<std::vector<Sample>> GorillaDecode(
    const std::vector<uint8_t>& bytes, size_t count) {
  return GorillaDecode(bytes.data(), bytes.size(), count);
}

}  // namespace aims::gorilla
