// E15 — Incremental SVD for the online recognizer (paper Sec. 3.4.1):
// "explore techniques for computing SVD incrementally ... reducing the
// overall computation cost considerably", and the related effectiveness
// metric: "our information-theory based heuristic can be evolved into a
// metric to measure the effectiveness of different similarity measures."
//
// Measured: (a) wall time per streamed frame of the online recognizer
// (running covariance + once-per-vocabulary template spectra) against the
// per-frame work of the batch recognizer it replaced: the activity pass, a
// buffer of the open segment's frames, and at each evaluation the segment
// matrix and the per-pair Vocabulary::Scores, which re-diagonalize the
// segment and every template. The batch recognizer evaluated at the same
// frames (same segment boundaries and evaluation rule, close-time
// evaluations included), so the baseline replays the evaluation schedule of
// an untimed online pass; that pass also computes the template spectra, a
// one-time set-up per vocabulary. Both sides run the same activity pass, so
// the whole difference is the saving of the incremental SVD. Streams: the
// E8 streams at 100 Hz and at 800 Hz; the recognizer's events must equal
// the golden file recorded from the batch recognizer (the run aborts
// otherwise). Both sides also report their time over the evaluations they
// made: an evaluation is the online side's eigen solve plus its template
// scores, and the batch side's 1 + |vocabulary| solves, so these columns
// track the solver. (b) the effectiveness metric ranking all similarity
// measures.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <limits>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/macros.h"
#include "common/table_printer.h"
#include "recognition/effectiveness.h"
#include "recognition/isolator.h"
#include "recognition/similarity.h"
#include "recognition_parity.h"

namespace aims {
namespace {

using recognition::StreamRecognizer;
using recognition::StreamRecognizerConfig;
using recognition::Vocabulary;
using recognition::WeightedSvdSimilarity;

struct StreamCost {
  double seconds = 0.0;
  size_t frames = 0;
  size_t evaluations = 0;
};

double SecondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

/// Runs the online recognizer over \p stream; appends its golden lines.
StreamCost RunOnline(const parity::ParityStream& stream,
                     std::vector<std::string>* lines) {
  StreamCost cost;
  auto t0 = std::chrono::steady_clock::now();
  for (std::string& line : parity::RecognizeEvents(stream)) {
    lines->push_back(std::move(line));
  }
  cost.seconds = SecondsSince(t0);
  cost.frames = stream.recording.num_frames();
  return cost;
}

/// The online recognizer's state after one call, and its evaluations.
struct Step {
  bool open = false;       ///< A segment is open after the call.
  size_t evaluations = 0;  ///< Evaluations the call made.
};

/// One Step per frame of \p stream, then one for Finish.
std::vector<Step> RecordSteps(const parity::ParityStream& stream) {
  WeightedSvdSimilarity measure;
  StreamRecognizer recognizer(&stream.vocabulary, &measure, stream.config);
  std::vector<Step> steps;
  auto record = [&](const auto& call) {
    const size_t before = recognizer.evaluations();
    AIMS_CHECK(call().ok());
    steps.push_back(
        Step{recognizer.segment_open(), recognizer.evaluations() - before});
  };
  for (const streams::Frame& frame : stream.recording.frames) {
    record([&] { return recognizer.Push(frame); });
  }
  record([&] { return recognizer.Finish(); });
  return steps;
}

/// The batch recognizer's work on \p stream, at its evaluation schedule.
StreamCost RunBatchBaseline(const parity::ParityStream& stream) {
  const std::vector<Step> steps = RecordSteps(stream);
  WeightedSvdSimilarity measure;
  // A recognizer that never opens a segment runs only the activity pass.
  StreamRecognizerConfig activity_only = stream.config;
  activity_only.activity_on = std::numeric_limits<double>::infinity();
  StreamRecognizer activity(&stream.vocabulary, &measure, activity_only);
  const std::vector<streams::Frame>& frames = stream.recording.frames;
  std::vector<streams::Frame> segment;
  StreamCost cost;
  auto evaluate = [&](size_t evaluations) {
    for (size_t e = 0; e < evaluations; ++e) {
      linalg::Matrix m(segment.size(), segment.front().values.size());
      for (size_t r = 0; r < segment.size(); ++r) {
        m.SetRow(r, segment[r].values);
      }
      AIMS_CHECK(stream.vocabulary.Scores(m, measure).ok());
      ++cost.evaluations;
    }
  };
  auto t0 = std::chrono::steady_clock::now();
  for (size_t i = 0; i < frames.size(); ++i) {
    AIMS_CHECK(activity.Push(frames[i]).ok());
    if (i > 0 && steps[i - 1].open) {
      segment.push_back(frames[i]);
    } else if (steps[i].open) {
      // A segment opens back-dated to the start of the activity window.
      const size_t window = std::min(i + 1, stream.config.activity_window);
      segment.assign(frames.begin() + static_cast<ptrdiff_t>(i + 1 - window),
                     frames.begin() + static_cast<ptrdiff_t>(i + 1));
    }
    evaluate(steps[i].evaluations);
    if (!steps[i].open) segment.clear();
  }
  evaluate(steps.back().evaluations);
  cost.seconds = SecondsSince(t0);
  cost.frames = frames.size();
  return cost;
}

void RunThroughput() {
  const std::vector<std::string> golden = parity::ReadGoldenLines(
      std::string(AIMS_TEST_DATA_DIR) + "/recognizer_events_golden.txt");
  AIMS_CHECK(!golden.empty());
  std::vector<std::string> lines;
  TablePrinter table({"rate", "streams", "frames", "evaluations",
                      "batch us/frame", "online us/frame", "speedup",
                      "batch us/eval", "online us/eval"});
  const size_t per_rate = parity::kNumStreams / 2;
  for (size_t rate = 0; rate < 2; ++rate) {
    StreamCost online, batch;
    for (size_t i = rate * per_rate; i < (rate + 1) * per_rate; ++i) {
      const parity::ParityStream stream = parity::MakeParityStream(i);
      StreamCost b = RunBatchBaseline(stream);
      StreamCost o = RunOnline(stream, &lines);
      batch.seconds += b.seconds;
      batch.evaluations += b.evaluations;
      online.seconds += o.seconds;
      online.frames += o.frames;
    }
    const double frames = static_cast<double>(online.frames);
    const double evaluations = static_cast<double>(batch.evaluations);
    table.AddRow();
    table.Cell(rate == 0 ? "100 Hz" : "800 Hz");
    table.Cell(per_rate);
    table.Cell(online.frames);
    table.Cell(batch.evaluations);
    table.Cell(1e6 * batch.seconds / frames, 2);
    table.Cell(1e6 * online.seconds / frames, 2);
    table.Cell(batch.seconds / online.seconds, 1);
    table.Cell(1e6 * batch.seconds / evaluations, 1);
    table.Cell(1e6 * online.seconds / evaluations, 1);
  }
  // The online recognizer must reproduce the batch recognizer's events.
  AIMS_CHECK(lines == golden);
  table.Print("E15a: per-frame cost on the E8 streams (28 channels, 6-sign "
              "vocabulary; real-time budget 10000 us/frame at 100 Hz, 1250 "
              "at 800 Hz). Events equal the golden file: " +
              std::to_string(lines.size()) + "/" +
              std::to_string(golden.size()));
}

void RunEffectiveness() {
  synth::CyberGloveSimulator sim(synth::DefaultAslVocabulary(), 252, 0.75);
  synth::SubjectProfile reference = sim.MakeSubject();
  Vocabulary vocab;
  for (size_t sign = 0; sign < sim.vocabulary().size(); ++sign) {
    vocab.Add(sim.vocabulary()[sign].name,
              benchutil::ToMatrix(sim.GenerateSign(sign, reference).ValueOrDie()));
  }
  std::vector<recognition::LabelledSegment> test_set;
  for (int subject_id = 0; subject_id < 8; ++subject_id) {
    synth::SubjectProfile subject = sim.MakeSubject();
    for (size_t sign = 0; sign < sim.vocabulary().size(); ++sign) {
      test_set.push_back(recognition::LabelledSegment{
          sim.vocabulary()[sign].name,
          benchutil::ToMatrix(sim.GenerateSign(sign, subject).ValueOrDie())});
    }
  }
  WeightedSvdSimilarity svd;
  WeightedSvdSimilarity svd5(5);
  recognition::EuclideanSimilarity euclid;
  recognition::DftSimilarity dft;
  recognition::DwtSimilarity dwt;
  TablePrinter table({"measure", "ranking acc", "mean margin", "margin SNR",
                      "info gain (nats)"});
  for (const recognition::SimilarityMeasure* measure :
       std::initializer_list<const recognition::SimilarityMeasure*>{
           &svd, &svd5, &euclid, &dft, &dwt}) {
    auto report =
        recognition::MeasureEffectiveness(vocab, *measure, test_set);
    AIMS_CHECK(report.ok());
    table.AddRow();
    table.Cell(report.ValueOrDie().measure);
    table.Cell(report.ValueOrDie().ranking_accuracy, 3);
    table.Cell(report.ValueOrDie().mean_margin, 4);
    table.Cell(report.ValueOrDie().margin_snr, 2);
    table.Cell(report.ValueOrDie().information_gain, 4);
  }
  table.Print("E15b: similarity-measure effectiveness metric "
              "(18 signs x 8 subjects)");
}

}  // namespace
}  // namespace aims

int main() {
  std::printf(
      "=== E15: incremental SVD + measure effectiveness (Sec. 3.4.1) ===\n");
  std::printf(
      "Expected shape: the online recognizer emits the batch recognizer's\n"
      "events at a small fraction of the batch recognizer's per-frame\n"
      "cost; the effectiveness metric ranks weighted-svd above the\n"
      "fixed-length baselines, mirroring E7.\n");
  aims::RunThroughput();
  aims::RunEffectiveness();
  return 0;
}
