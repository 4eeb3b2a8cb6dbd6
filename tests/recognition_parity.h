#pragma once

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "common/macros.h"
#include "common/rng.h"
#include "linalg/matrix.h"
#include "recognition/isolator.h"
#include "recognition/similarity.h"
#include "recognition/vocabulary.h"
#include "streams/sample.h"
#include "synth/cyberglove.h"

/// \file recognition_parity.h
/// \brief The seeded streams behind the recognizer's event-parity golden
/// file (testdata/recognizer_events_golden.txt): the E8 streams (seeds
/// 301-304, rest gaps 1.2/0.8/0.5 s, 12 motion signs each) at the glove's
/// 100 Hz with the default config, and their 8x linear upsample (800 Hz,
/// the T-800 rate) with every frame-count knob scaled x8.
/// The golden events were produced by the batch recognizer that rebuilt the
/// segment matrix and re-diagonalized every template at each evaluation;
/// the online recognizer must reproduce them exactly. Shared by
/// recognizer_parity_test, bench_isolation (E8) and bench_incremental
/// (E15).

namespace aims::parity {

inline constexpr uint64_t kSeeds[] = {301, 302, 303, 304};
inline constexpr double kRestGaps[] = {1.2, 0.8, 0.5};
inline constexpr size_t kUpsample = 8;
/// Every (seed, rest gap) pair at 100 Hz, then again at 800 Hz.
inline constexpr size_t kNumStreams = 2 * 4 * 3;

struct ParityStream {
  std::string name;
  recognition::Vocabulary vocabulary;
  streams::Recording recording;
  std::vector<synth::SignSegment> truth;  ///< Scripted signs, stream frames.
  recognition::StreamRecognizerConfig config;
};

/// Linear interpolation by \p factor: (n - 1) * factor + 1 frames.
inline streams::Recording Upsample(const streams::Recording& in,
                                   size_t factor) {
  streams::Recording out;
  out.sample_rate_hz = in.sample_rate_hz * static_cast<double>(factor);
  if (in.frames.empty()) return out;
  for (size_t i = 0; i + 1 < in.frames.size(); ++i) {
    const std::vector<double>& a = in.frames[i].values;
    const std::vector<double>& b = in.frames[i + 1].values;
    for (size_t k = 0; k < factor; ++k) {
      const double w = static_cast<double>(k) / static_cast<double>(factor);
      streams::Frame frame;
      frame.timestamp =
          static_cast<double>(out.frames.size()) / out.sample_rate_hz;
      frame.values.resize(a.size());
      for (size_t c = 0; c < a.size(); ++c) {
        frame.values[c] = a[c] + (b[c] - a[c]) * w;
      }
      out.frames.push_back(std::move(frame));
    }
  }
  out.frames.push_back(in.frames.back());
  out.frames.back().timestamp =
      static_cast<double>(out.frames.size() - 1) / out.sample_rate_hz;
  return out;
}

inline linalg::Matrix ToMatrix(const streams::Recording& rec) {
  linalg::Matrix m(rec.num_frames(), rec.num_channels());
  for (size_t r = 0; r < rec.num_frames(); ++r) {
    m.SetRow(r, rec.frames[r].values);
  }
  return m;
}

/// Builds stream \p index (< kNumStreams): seed kSeeds[(index % 12) / 3]
/// and rest gap kRestGaps[index % 3], upsampled from index 12 on.
inline ParityStream MakeParityStream(size_t index) {
  AIMS_CHECK(index < kNumStreams);
  const size_t factor = index < kNumStreams / 2 ? 1 : kUpsample;
  const uint64_t seed = kSeeds[(index % (kNumStreams / 2)) / 3];
  const double rest_gap_s = kRestGaps[index % 3];

  synth::CyberGloveSimulator sim(synth::DefaultAslVocabulary(), seed, 0.5);
  synth::SubjectProfile reference = sim.MakeSubject();
  // Motion signs only: static alphabet poses have no sustained dynamics for
  // a stream segmenter to latch onto (indexes 12..17 in the vocabulary).
  const std::vector<size_t> motion_signs = {12, 13, 14, 15, 16, 17};
  ParityStream stream;
  for (size_t sign : motion_signs) {
    streams::Recording rendition = sim.GenerateSign(sign, reference).ValueOrDie();
    if (factor > 1) rendition = Upsample(rendition, factor);
    stream.vocabulary.Add(sim.vocabulary()[sign].name, ToMatrix(rendition));
  }
  Rng rng(seed + 1);
  std::vector<size_t> script;
  for (size_t i = 0; i < 12; ++i) {
    script.push_back(motion_signs[static_cast<size_t>(rng.UniformInt(0, 5))]);
  }
  synth::SubjectProfile subject = sim.MakeSubject();
  stream.recording =
      sim.GenerateSequence(script, subject, rest_gap_s, &stream.truth)
          .ValueOrDie();
  if (factor > 1) {
    stream.recording = Upsample(stream.recording, factor);
    for (synth::SignSegment& sign : stream.truth) {
      sign.start_frame *= factor;
      sign.end_frame *= factor;
    }
  }

  stream.config.evaluation_stride *= factor;
  stream.config.activity_window *= factor;
  stream.config.off_debounce_frames *= factor;
  stream.config.min_segment_frames *= factor;

  char name[64];
  std::snprintf(name, sizeof(name), "seed%llu_rest%.1f_%zuhz",
                static_cast<unsigned long long>(seed), rest_gap_s,
                100 * factor);
  stream.name = name;
  return stream;
}

/// One golden line per event: "<stream> <label> <start_frame> <end_frame>".
inline std::string FormatEvent(const std::string& stream,
                               const recognition::RecognitionEvent& event) {
  return stream + " " + event.label + " " + std::to_string(event.start_frame) +
         " " + std::to_string(event.end_frame);
}

/// Feeds the whole stream to one recognizer, finishes it, and returns the
/// events as golden lines. Any recognizer error aborts.
inline std::vector<std::string> RecognizeEvents(const ParityStream& stream) {
  recognition::WeightedSvdSimilarity measure;
  recognition::StreamRecognizer recognizer(&stream.vocabulary, &measure,
                                           stream.config);
  std::vector<std::string> lines;
  for (const streams::Frame& frame : stream.recording.frames) {
    auto event = recognizer.Push(frame);
    AIMS_CHECK(event.ok());
    if (event->has_value()) lines.push_back(FormatEvent(stream.name, **event));
  }
  auto last = recognizer.Finish();
  AIMS_CHECK(last.ok());
  if (last->has_value()) lines.push_back(FormatEvent(stream.name, **last));
  return lines;
}

/// The golden file's lines (an empty vector when it cannot be read).
inline std::vector<std::string> ReadGoldenLines(const std::string& path) {
  std::vector<std::string> lines;
  std::ifstream in(path);
  for (std::string line; std::getline(in, line);) {
    if (!line.empty()) lines.push_back(line);
  }
  return lines;
}

}  // namespace aims::parity
