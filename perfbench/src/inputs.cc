#include "inputs.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "synth/cyberglove.h"
#include "synth/virtual_classroom.h"

namespace perfbench {

using aims::streams::Frame;
using aims::streams::Recording;

namespace {

template <typename T>
T OrDie(aims::Result<T> result, const char* what) {
  if (!result.ok()) {
    std::fprintf(stderr, "perfbench: %s: %s\n", what,
                 result.status().ToString().c_str());
    std::exit(2);
  }
  return std::move(result).ValueOrDie();
}

/// Seed of the fixed signer pool (independent of the run seed).
constexpr uint64_t kSubjectPoolSeed = 20030105;
/// Pool index of the signer who performs the vocabulary templates.
constexpr size_t kTemplateSubject = 1000;

/// A signer of the fixed pool: own pose offsets and tremor, but the
/// population's mean speed, amplitude and warp. A slow signer's long
/// segments make each recognizer evaluation longer, and that would decide
/// whether an 800 Hz stream keeps up.
aims::synth::SubjectProfile PoolSubject(size_t index) {
  aims::synth::CyberGloveSimulator pool(aims::synth::DefaultAslVocabulary(),
                                        kSubjectPoolSeed + index);
  aims::synth::SubjectProfile subject = pool.MakeSubject();
  subject.speed_factor = 1.0;
  subject.amplitude_factor = 1.0;
  subject.warp = 0.15;
  return subject;
}

}  // namespace

size_t BenchRng::LogUniform(size_t lo, size_t hi) {
  const double l = std::log(static_cast<double>(lo));
  const double h = std::log(static_cast<double>(hi) + 1.0);
  size_t v = static_cast<size_t>(std::exp(l + (h - l) * Uniform()));
  return std::clamp(v, lo, hi);
}

Zipf::Zipf(size_t n, double exponent) {
  double total = 0.0;
  for (size_t i = 0; i < n; ++i) {
    total += 1.0 / std::pow(static_cast<double>(i + 1), exponent);
    cumulative_.push_back(total);
  }
  for (double& c : cumulative_) c /= total;
}

size_t Zipf::Sample(BenchRng& rng) const {
  const double u = rng.Uniform();
  auto it = std::lower_bound(cumulative_.begin(), cumulative_.end(), u);
  return std::min(static_cast<size_t>(it - cumulative_.begin()),
                  cumulative_.size() - 1);
}

uint64_t SubSeed(uint64_t seed, uint64_t index) {
  // splitmix64 finalizer over (seed, index).
  uint64_t z = seed * 0x9E3779B97F4A7C15ULL + index + 0x632BE59BD9B4E019ULL;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

Recording GloveSigns(uint64_t seed, size_t subject_index, size_t first_sign,
                     size_t num_signs) {
  const std::vector<aims::synth::SignSpec> vocab =
      aims::synth::DefaultAslVocabulary();
  BenchRng rng(seed);
  std::vector<size_t> decks;
  while (decks.size() < first_sign + num_signs) {
    std::vector<size_t> deck(vocab.size());
    for (size_t i = 0; i < deck.size(); ++i) deck[i] = i;
    for (size_t i = deck.size(); i > 1; --i) std::swap(deck[i - 1], deck[rng.Below(i)]);
    decks.insert(decks.end(), deck.begin(), deck.end());
  }
  const std::vector<size_t> order(
      decks.begin() + static_cast<ptrdiff_t>(first_sign),
      decks.begin() + static_cast<ptrdiff_t>(first_sign + num_signs));
  aims::synth::CyberGloveSimulator glove(vocab, SubSeed(seed, first_sign));
  return OrDie(glove.GenerateSequence(order, PoolSubject(subject_index), 0.4,
                                      nullptr),
               "GenerateSequence");
}

Recording GloveStream(uint64_t seed, size_t subject, size_t min_frames,
                      size_t first_sign) {
  // About 1.2 s of signing and rest per sign at 100 Hz.
  for (size_t signs = min_frames / 120 + 2;; signs *= 2) {
    Recording rec = GloveSigns(seed, subject, first_sign, signs);
    if (rec.num_frames() >= min_frames) return rec;
  }
}

Recording ClassroomStream(uint64_t seed, size_t min_frames) {
  aims::synth::ClassroomConfig config;
  // The simulator runs at 50 Hz; upsampling x2 gives the 100 Hz stream.
  config.session_duration_s =
      static_cast<double>(min_frames) / 100.0 + 2.0;
  aims::synth::VirtualClassroomSimulator classroom(config, seed);
  const auto group = (seed & 1) != 0 ? aims::synth::SubjectGroup::kAdhd
                                     : aims::synth::SubjectGroup::kControl;
  Recording rec = Upsample(classroom.GenerateSession(group).recording, 2);
  return Slice(rec, 0, std::min(min_frames, rec.num_frames()));
}

Recording Upsample(const Recording& in, size_t factor) {
  Recording out;
  out.sample_rate_hz = in.sample_rate_hz * static_cast<double>(factor);
  if (in.frames.empty()) return out;
  const double t0 = in.frames.front().timestamp;
  const size_t channels = in.num_channels();
  const size_t n = in.num_frames();
  out.frames.reserve((n - 1) * factor + 1);
  for (size_t i = 0; i + 1 < n; ++i) {
    const std::vector<double>& a = in.frames[i].values;
    const std::vector<double>& b = in.frames[i + 1].values;
    for (size_t k = 0; k < factor; ++k) {
      const double w = static_cast<double>(k) / static_cast<double>(factor);
      Frame frame;
      frame.timestamp =
          t0 + static_cast<double>(out.frames.size()) / out.sample_rate_hz;
      frame.values.resize(channels);
      for (size_t c = 0; c < channels; ++c) {
        frame.values[c] = a[c] + (b[c] - a[c]) * w;
      }
      out.frames.push_back(std::move(frame));
    }
  }
  Frame last = in.frames.back();
  last.timestamp =
      t0 + static_cast<double>(out.frames.size()) / out.sample_rate_hz;
  out.frames.push_back(std::move(last));
  return out;
}

Recording Slice(const Recording& rec, size_t start, size_t len) {
  Recording out;
  out.sample_rate_hz = rec.sample_rate_hz;
  const size_t end = std::min(rec.num_frames(), start + len);
  out.frames.assign(rec.frames.begin() + static_cast<ptrdiff_t>(start),
                    rec.frames.begin() + static_cast<ptrdiff_t>(end));
  return out;
}

std::vector<SignTemplate> SignTemplates(uint64_t seed, size_t factor) {
  const std::vector<aims::synth::SignSpec> vocab =
      aims::synth::DefaultAslVocabulary();
  aims::synth::CyberGloveSimulator glove(vocab, seed);
  const aims::synth::SubjectProfile subject = PoolSubject(kTemplateSubject);
  std::vector<SignTemplate> out;
  for (size_t s = 0; s < vocab.size(); ++s) {
    Recording sign =
        Upsample(OrDie(glove.GenerateSign(s, subject), "GenerateSign"), factor);
    aims::linalg::Matrix segment(sign.num_frames(), sign.num_channels());
    for (size_t r = 0; r < sign.num_frames(); ++r) {
      segment.SetRow(r, sign.frames[r].values);
    }
    out.push_back({vocab[s].name, std::move(segment)});
  }
  return out;
}

ExactRange ExactRangeSum(const Recording& rec, size_t channel, size_t first,
                         size_t last) {
  long double sum = 0.0L;
  long double abs_sum = 0.0L;
  for (size_t i = first; i <= last; ++i) {
    const double v = rec.frames[i].values[channel];
    sum += v;
    abs_sum += std::fabs(v);
  }
  return {static_cast<double>(sum), static_cast<double>(abs_sum)};
}

bool AnswerWithinBound(double sum, double error_bound,
                       const ExactRange& exact) {
  // The wavelet round trip loses a few ulps per coefficient; scale the
  // tolerance by the magnitude of what was summed.
  const double tolerance = 1e-9 * (exact.abs_sum + 1.0);
  return std::isfinite(sum) &&
         std::fabs(sum - exact.sum) <= error_bound + tolerance;
}

}  // namespace perfbench
