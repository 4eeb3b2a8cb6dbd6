#pragma once

#include "harness.h"

/// \file workloads.h
/// \brief The three workloads. Each builds its inputs from the seed, sets
/// the server up several times (timing each set-up), runs an untimed
/// warm-up and then the timed window, checks every answer, and in a traced
/// run also fills the per-layer metrics.

namespace perfbench {

/// Durable 800 Hz glove capture with one analyst reading fresh sessions.
RunResult RunCapture(const Options& options);

/// In-memory progressive analysis over a working set larger than the
/// block cache, beside a low-rate writer.
RunResult RunAnalysis(const Options& options);

/// Three open-loop 800 Hz live recognition streams; no storage.
RunResult RunRecognition(const Options& options);

}  // namespace perfbench
