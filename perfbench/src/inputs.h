#pragma once

#include <cstdint>
#include <random>
#include <vector>

#include "linalg/matrix.h"
#include "streams/sample.h"

/// \file inputs.h
/// \brief Seeded input generation. Every recording the benchmark sends is
/// made here from --seed before any timing starts; the server only ever
/// sees the generated frames.

namespace perfbench {

/// \brief Deterministic random source (the raw engine is fully specified
/// by the standard; the helpers avoid library-defined distributions).
class BenchRng {
 public:
  explicit BenchRng(uint64_t seed) : engine_(seed) {}
  uint64_t Next() { return engine_(); }
  /// Uniform in [0, 1).
  double Uniform() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }
  /// Uniform integer in [0, n).
  size_t Below(size_t n) { return n == 0 ? 0 : static_cast<size_t>(Next() % n); }
  /// Log-uniform integer in [lo, hi].
  size_t LogUniform(size_t lo, size_t hi);

 private:
  std::mt19937_64 engine_;
};

/// \brief Zipf-skewed choice over n items (item 0 most popular).
class Zipf {
 public:
  Zipf(size_t n, double exponent);
  size_t Sample(BenchRng& rng) const;

 private:
  std::vector<double> cumulative_;
};

/// \brief Mixes a seed with a stream index into an independent seed.
uint64_t SubSeed(uint64_t seed, uint64_t index);

/// \brief A continuous CyberGlove signing stream at 100 Hz with at least
/// \p min_frames frames, signs separated by short rests. The signs come in
/// seeded decks: every 18 consecutive positions of the sign sequence hold
/// each sign of the default vocabulary once, and the stream starts at
/// position \p first_sign. Streams cut from one deck sequence at different
/// positions therefore cover the vocabulary evenly. The seed also draws the
/// noise; the signer comes from a fixed pool (\p subject indexes it) of
/// signers with the population's mean speed, so runs with different seeds
/// see the same signing speeds.
aims::streams::Recording GloveStream(uint64_t seed, size_t subject,
                                     size_t min_frames, size_t first_sign = 0);

/// \brief Exactly \p num_signs signs of the deck sequence, from position
/// \p first_sign (see GloveStream).
aims::streams::Recording GloveSigns(uint64_t seed, size_t subject,
                                    size_t first_sign, size_t num_signs);

/// \brief A virtual-classroom tracker session resampled to 100 Hz, with at
/// least \p min_frames frames.
aims::streams::Recording ClassroomStream(uint64_t seed, size_t min_frames);

/// \brief Linear interpolation to \p factor times the sample rate (the
/// 800 Hz glove is made from the 100 Hz simulator this way).
aims::streams::Recording Upsample(const aims::streams::Recording& in,
                                  size_t factor);

/// \brief Frames [start, start + len) of \p rec, timestamps kept.
aims::streams::Recording Slice(const aims::streams::Recording& rec,
                               size_t start, size_t len);

/// \brief One sign of the default vocabulary per entry, performed by a
/// fixed template signer and upsampled by \p factor, as the
/// (frames x channels) templates the recognizer matches.
struct SignTemplate {
  std::string label;
  aims::linalg::Matrix segment;
};
std::vector<SignTemplate> SignTemplates(uint64_t seed, size_t factor);

/// \brief Exact sum of one channel over frames [first, last] (long double
/// accumulation) and the sum of magnitudes that scales its tolerance.
struct ExactRange {
  double sum = 0.0;
  double abs_sum = 0.0;
};
ExactRange ExactRangeSum(const aims::streams::Recording& rec, size_t channel,
                         size_t first, size_t last);

/// \brief Raw input bytes of a recording: one 8-byte value per sample.
inline double RawBytes(const aims::streams::Recording& rec) {
  return static_cast<double>(rec.num_frames() * rec.num_channels() * 8);
}

/// \brief Whether a reported sum is within its guaranteed bound of the
/// exact one (plus a floating-point tolerance).
bool AnswerWithinBound(double sum, double error_bound, const ExactRange& exact);

}  // namespace perfbench
