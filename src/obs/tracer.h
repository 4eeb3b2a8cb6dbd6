#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <functional>
#include <iterator>
#include <mutex>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "obs/metrics.h"

/// \file tracer.h
/// \brief Lightweight request tracing shared by every subsystem. A Trace
/// decomposes ONE request's latency into spans — ingest admission, queue
/// wait, shard lock, every block I/O, each recognizer update — so a slow
/// request is explainable, not just countable. Each span names a Stage of
/// one table, and the Tracer observes every recorded span in its stage's
/// histogram: the spans are the per-stage latency metrics. Spans carry
/// parent/child ids, so one trace exports as a correctly nested Chrome
/// trace_event timeline (see obs/exporters.h). Traces are built lock-free
/// by the worker that owns the request and handed to a bounded,
/// thread-safe Tracer ring buffer.

namespace aims::obs {

/// \brief The one table of span names: every stage a service times. Each
/// is a span in a trace and, in a Tracer given a registry, the histogram
/// "span.<name>_ms".
enum class Stage : uint8_t {
  // Ingest, root first.
  kIngest, kAdmission, kSeal, kTransform, kShardLock, kBlockWrite,
  kWalAppend, kWalSync, kShardApplyLock, kCheckpoint,
  // Range query, root first.
  kQuery, kAdmissionWait, kRefinement, kBlockIo,
  // Live recognition, root first.
  kStreamSamples, kRecognizerUpdate, kClassificationEvent,
};

inline constexpr size_t kNumStages =
    static_cast<size_t>(Stage::kClassificationEvent) + 1;

/// Span names, indexed by Stage.
inline constexpr std::string_view kStageNames[] = {
    "ingest", "admission", "seal", "transform", "shard_lock", "block_write",
    "wal_append", "wal_sync", "shard_apply_lock", "checkpoint",
    "query", "admission_wait", "refinement", "block_io",
    "stream_samples", "recognizer_update", "classification_event",
};
static_assert(std::size(kStageNames) == kNumStages);

constexpr std::string_view StageName(Stage stage) {
  return kStageNames[static_cast<size_t>(stage)];
}

/// \brief One named interval of a request's life, in milliseconds relative
/// to the request's submission. Span ids are 1-based within their trace;
/// parent_id 0 marks a root span.
struct TraceSpan {
  Stage stage = Stage::kIngest;
  /// The stage's name; points into kStageNames, so a span owns no memory.
  std::string_view name;
  uint64_t id = 0;
  uint64_t parent_id = 0;
  double start_ms = 0.0;
  /// Negative while the span is open; EndSpan/CloseOpenSpans stamps it.
  double end_ms = -1.0;
};
static_assert(std::is_trivially_copyable_v<TraceSpan>);

/// \brief The span timeline of one request. Not thread-safe: a trace is
/// mutated only by the thread currently driving its request.
///
/// Nesting is implicit: a span begun (or added) while another span is open
/// becomes that span's child, so instrumentation at different layers —
/// server, catalog, core — composes into one tree without any layer
/// knowing about the others.
class Trace {
 public:
  /// Starts the clock: all span times are relative to construction.
  Trace() : epoch_(std::chrono::steady_clock::now()) {}
  explicit Trace(uint64_t request_id) : Trace() { request_id_ = request_id; }

  uint64_t request_id() const { return request_id_; }
  void set_label(std::string label) { label_ = std::move(label); }
  const std::string& label() const { return label_; }
  std::chrono::steady_clock::time_point epoch() const { return epoch_; }

  /// Milliseconds since construction.
  double ElapsedMs() const {
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - epoch_)
        .count();
  }

  /// \brief Opens a span starting now, child of the innermost open span;
  /// returns its index for EndSpan.
  size_t BeginSpan(Stage stage) { return BeginSpanAt(stage, ElapsedMs()); }

  /// \brief Opens a span with an explicit start — e.g. a root span that
  /// covers the request from submission (start 0) even though the worker
  /// opens it only at dispatch.
  size_t BeginSpanAt(Stage stage, double start_ms) {
    AddSpan(stage, start_ms, -1.0);
    open_stack_.push_back(spans_.size() - 1);
    return spans_.size() - 1;
  }

  /// \brief Closes span \p index at the current time (idempotent).
  void EndSpan(size_t index) {
    if (index < spans_.size() && spans_[index].end_ms < 0.0) {
      spans_[index].end_ms = ElapsedMs();
      PopOpen(index);
    }
  }

  /// \brief Records a closed span with explicit bounds (e.g. an interval
  /// that started before the current thread picked the request up), child
  /// of the innermost open span.
  void AddSpan(Stage stage, double start_ms, double end_ms) {
    spans_.push_back(TraceSpan{stage, StageName(stage), NextSpanId(),
                               CurrentParent(), start_ms, end_ms});
  }

  /// \brief Records an instantaneous marker (start == end == now), child of
  /// the innermost open span — e.g. Stage::kClassificationEvent.
  void AddMarker(Stage stage) {
    double now = ElapsedMs();
    AddSpan(stage, now, now);
  }

  /// \brief Stamps every still-open span with the current time; call
  /// before publishing a trace whose request ended abnormally.
  void CloseOpenSpans() {
    for (TraceSpan& span : spans_) {
      if (span.end_ms < 0.0) span.end_ms = ElapsedMs();
    }
    open_stack_.clear();
  }

  const std::vector<TraceSpan>& spans() const { return spans_; }

  /// \brief Drops the spare capacity that growth left in the span vector
  /// and the open-span stack, so a trace retained for a long time holds its
  /// spans and nothing more.
  void ShrinkToFit() {
    spans_.shrink_to_fit();
    open_stack_.shrink_to_fit();
  }

  /// \brief One JSON object:
  /// {"request_id":7,"label":"...","spans":[{"name":...,"id":...,
  /// "parent_id":...,"start_ms":...,"end_ms":...},...]}.
  std::string ToJson() const;

 private:
  uint64_t NextSpanId() { return static_cast<uint64_t>(spans_.size()) + 1; }
  uint64_t CurrentParent() const {
    return open_stack_.empty() ? 0 : spans_[open_stack_.back()].id;
  }
  void PopOpen(size_t index) {
    for (size_t i = open_stack_.size(); i-- > 0;) {
      if (open_stack_[i] == index) {
        open_stack_.erase(open_stack_.begin() + static_cast<ptrdiff_t>(i));
        return;
      }
    }
  }

  uint64_t request_id_ = 0;
  std::string label_;
  std::chrono::steady_clock::time_point epoch_;
  std::vector<TraceSpan> spans_;
  /// Indices of open spans, outermost first: the implicit parent stack.
  std::vector<size_t> open_stack_;
};

/// \brief Bounded, thread-safe ring buffer of finished traces, and the
/// source of the per-stage latency histograms. Keeps the most recent
/// `capacity` traces; recording past capacity explicitly evicts the
/// oldest trace and increments the dropped-trace counter, so tracing
/// never grows without bound under sustained load and the loss is
/// observable instead of silent.
class Tracer {
 public:
  /// \param capacity traces retained; 0 retains none, and Record then
  /// only feeds the stage histograms.
  /// \param metrics optional registry (may be null). Registers one
  /// histogram per stage, "span.<stage>_ms" with profile bounds, and every
  /// recorded span becomes an observation of its stage's histogram (a
  /// marker observes 0).
  explicit Tracer(size_t capacity = 512, MetricsRegistry* metrics = nullptr);

  /// \brief Adds every span of a finished trace (closing any still-open
  /// spans) to its stage's histogram, then stores the trace at its exact
  /// size (a trace moved in keeps no growth capacity). When the ring
  /// is full the oldest retained trace is evicted and counted in
  /// dropped(); an eviction sink, when set, takes it on its way out.
  void Record(Trace trace);

  /// \brief Taker of every trace the ring evicts, by move (the flight
  /// recorder's last-chance capture). Runs under the tracer's mutex on the
  /// recording thread: keep it cheap and NEVER call back into the tracer
  /// from it. Eviction accounting (dropped()) is unchanged by the sink.
  /// Set during wiring, before concurrent recording starts.
  void SetEvictionSink(std::function<void(Trace&&)> sink);

  /// \brief Server-wide request-id source, shared by every traced
  /// subsystem so exported timelines never collide on id.
  uint64_t NextRequestId() {
    return next_request_id_.fetch_add(1, std::memory_order_relaxed);
  }

  /// Retained traces, oldest first.
  std::vector<Trace> Snapshot() const;

  size_t capacity() const { return capacity_; }
  uint64_t total_recorded() const;
  /// Traces evicted by the ring buffer since construction.
  uint64_t dropped() const;
  /// Traces currently retained (<= capacity).
  size_t retained() const;
  /// \brief Age in milliseconds of the oldest retained trace (measured
  /// from its epoch), or 0 when empty — the trace window's actual
  /// coverage. A dashboard reading dropped() alone cannot tell whether
  /// the ring still spans the incident it is investigating; this can.
  double OldestRetainedAgeMs() const;

 private:
  const size_t capacity_;
  /// Per-stage latency histograms, indexed by Stage; null without a
  /// registry.
  std::array<Histogram*, kNumStages> stage_ms_{};
  std::atomic<uint64_t> next_request_id_{1};
  mutable std::mutex mutex_;
  std::deque<Trace> traces_;
  uint64_t total_recorded_ = 0;
  uint64_t dropped_ = 0;
  /// Guarded by mutex_; invoked under it (see SetEvictionSink).
  std::function<void(Trace&&)> eviction_sink_;
};

}  // namespace aims::obs
