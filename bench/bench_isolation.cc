// E8 — Real-time pattern isolation + recognition over streams (Sec. 3.4).
//
// Paper claim: the accumulated-similarity heuristic "in real-time
// investigates the accumulated values and simultaneously recognizes and
// isolates the input patterns" for variable-length motions in a continuous
// stream. Reported: isolation precision/recall (boundary overlap with the
// scripted ground truth), recognition accuracy on isolated segments, and
// detection latency.

#include <algorithm>
#include <cstdio>
#include <iterator>
#include <vector>

#include "common/macros.h"
#include "common/stats.h"
#include "common/table_printer.h"
#include "recognition/isolator.h"
#include "recognition/similarity.h"
#include "recognition/sliding_matcher.h"
#include "recognition_parity.h"
#include "synth/cyberglove.h"

namespace aims {
namespace {

struct StreamResult {
  size_t true_patterns = 0;
  size_t emitted = 0;
  size_t isolated = 0;     ///< Events overlapping a true segment.
  size_t recognized = 0;   ///< Isolated events with the right label.
  RunningStats latency_frames;
};

/// Runs parity stream \p index; the E8 streams are its 100 Hz half.
StreamResult RunStream(size_t index, bool use_sliding_baseline) {
  const parity::ParityStream stream = parity::MakeParityStream(index);
  recognition::WeightedSvdSimilarity measure;
  recognition::StreamRecognizer recognizer(&stream.vocabulary, &measure,
                                           stream.config);
  recognition::SlidingMatcherConfig baseline_config;
  recognition::SlidingTemplateMatcher baseline(&stream.vocabulary,
                                               baseline_config);
  std::vector<recognition::RecognitionEvent> events;
  size_t frame_index = 0;
  std::vector<size_t> emit_frame;
  for (const streams::Frame& frame : stream.recording.frames) {
    auto event = use_sliding_baseline ? baseline.Push(frame)
                                      : recognizer.Push(frame);
    AIMS_CHECK(event.ok());
    if (event.ValueOrDie().has_value()) {
      events.push_back(*event.ValueOrDie());
      emit_frame.push_back(frame_index);
    }
    ++frame_index;
  }
  if (!use_sliding_baseline) {
    auto last = recognizer.Finish();
    AIMS_CHECK(last.ok());
    if (last.ValueOrDie().has_value()) {
      events.push_back(*last.ValueOrDie());
      emit_frame.push_back(frame_index);
    }
  }

  const std::vector<synth::SignSpec> signs = synth::DefaultAslVocabulary();
  const std::vector<synth::SignSegment>& truth = stream.truth;
  StreamResult result;
  result.true_patterns = truth.size();
  result.emitted = events.size();
  std::vector<bool> matched(truth.size(), false);
  for (size_t e = 0; e < events.size(); ++e) {
    for (size_t t = 0; t < truth.size(); ++t) {
      if (matched[t]) continue;
      bool overlaps = events[e].start_frame < truth[t].end_frame &&
                      events[e].end_frame > truth[t].start_frame;
      if (overlaps) {
        matched[t] = true;
        ++result.isolated;
        if (events[e].label == signs[truth[t].sign_index].name) {
          ++result.recognized;
        }
        result.latency_frames.Add(static_cast<double>(emit_frame[e]) -
                                  static_cast<double>(truth[t].end_frame));
        break;
      }
    }
  }
  return result;
}

/// One table over every seed at rest gap parity::kRestGaps[\p gap].
void Run(size_t gap) {
  TablePrinter table({"method", "rest gap s", "patterns", "events", "recall",
                      "precision", "recognition", "latency ms"});
  for (bool baseline : {false, true}) {
    StreamResult total;
    for (size_t seed = 0; seed < std::size(parity::kSeeds); ++seed) {
      StreamResult r =
          RunStream(seed * std::size(parity::kRestGaps) + gap, baseline);
      total.true_patterns += r.true_patterns;
      total.emitted += r.emitted;
      total.isolated += r.isolated;
      total.recognized += r.recognized;
      total.latency_frames.Merge(r.latency_frames);
    }
    table.AddRow();
    table.Cell(baseline ? "sliding-euclid [6]" : "accumulated-SVD (AIMS)");
    table.Cell(parity::kRestGaps[gap], 2);
    table.Cell(total.true_patterns);
    table.Cell(total.emitted);
    table.Cell(static_cast<double>(total.isolated) /
                   static_cast<double>(total.true_patterns),
               3);
    table.Cell(static_cast<double>(total.isolated) /
                   static_cast<double>(std::max<size_t>(total.emitted, 1)),
               3);
    table.Cell(static_cast<double>(total.recognized) /
                   static_cast<double>(std::max<size_t>(total.isolated, 1)),
               3);
    table.Cell(total.latency_frames.mean() * 10.0, 1);  // 100 Hz -> ms
  }
  table.Print("E8: stream isolation + recognition (48 patterns, 6-sign "
              "motion vocabulary)");
}

}  // namespace
}  // namespace aims

int main() {
  std::printf(
      "=== E8: online pattern isolation over continuous streams (Sec. 3.4) "
      "===\n");
  std::printf(
      "Expected shape: recall/precision near 1.0 with comfortable rest\n"
      "gaps, degrading gracefully as gaps shrink; recognition accuracy\n"
      "close to the isolated-sign accuracy of E7; latency ~ the debounce\n"
      "window (a quarter second).\n");
  for (size_t gap = 0; gap < std::size(aims::parity::kRestGaps); ++gap) {
    aims::Run(gap);
  }
  return 0;
}
