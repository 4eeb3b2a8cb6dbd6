#pragma once

#include <map>
#include <string>
#include <vector>

#include "harness.h"
#include "inputs.h"
#include "recognition/isolator.h"

/// \file layers.h
/// \brief The per-layer half of the benchmark (traced runs): metrics read
/// from the spans and counters the server already exposes, and replays of
/// the workload's own inputs through single layers, each timed around the
/// public call from outside.

namespace perfbench {

/// \brief What one ANALYZE query reported (plan + actuals).
struct AnalyzeSample {
  double admission_wait_ms = 0.0;
  double refinement_ms = 0.0;
  double blocks_fetched = 0.0;
  double query_coefficients = 0.0;
  /// Ran to exactness, so blocks_read must equal predicted_cold_blocks.
  bool ran_to_exact = false;
  bool reconciled = false;
};

using AnalyzeLog = LockedLog<AnalyzeSample>;

/// \brief Device, cache and WAL counters at one instant.
struct StorageCounters {
  aims::obs::WalStats wal;
  aims::obs::CacheStats cache;
  double blocks_read = 0.0;
  double blocks_written = 0.0;
};
StorageCounters ReadStorageCounters(aims::server::AimsServer& srv);

/// \brief Everything the per-layer metrics are computed from.
struct LayerInputs {
  aims::server::AimsServer* server = nullptr;
  Window window;
  StorageCounters before;
  StorageCounters after;
  /// Operations completed in the window, and the raw bytes it ingested.
  double ingests = 0.0;
  double queries = 0.0;
  double window_raw_bytes = 0.0;
  /// Raw bytes of every recording the server stored (preload included).
  double total_raw_bytes = 0.0;
  std::vector<aims::obs::Trace> traces;
  std::vector<ClientSpan> client_spans;
  std::vector<AnalyzeSample> analyze;
  /// Recordings replayed through the single ingest kernels.
  std::vector<const aims::streams::Recording*> kernel_inputs;
  /// Per-frame StreamRecognizer::Push times of the reference replay (us).
  std::vector<double> push_us;
  const RunResult* run = nullptr;
};

/// \brief Fills every per-layer metric. A layer a workload does not use
/// reports 0 (no work of that kind was done).
void CollectLayerMetrics(const LayerInputs& in, MetricMap* out);

/// \brief The recognizer configuration of the 800 Hz workloads: every
/// frame-count knob of the 100 Hz defaults scaled by \p factor, so the
/// recognizer evaluates at the paper's 80 ms cadence.
aims::recognition::StreamRecognizerConfig ScaledRecognizerConfig(size_t factor);

/// \brief The events a standalone reference recognizer emits for
/// \p frames (Finish included), and the time of each Push in us.
struct ReferenceEvent {
  std::string label;
  size_t start_frame = 0;
  size_t end_frame = 0;
  bool operator==(const ReferenceEvent&) const = default;
};
std::vector<ReferenceEvent> ReferenceEvents(
    const std::vector<SignTemplate>& templates,
    const aims::recognition::StreamRecognizerConfig& config,
    const std::vector<aims::streams::Frame>& frames,
    std::vector<double>* push_us);

ReferenceEvent ToReference(const aims::recognition::RecognitionEvent& e);

}  // namespace perfbench
