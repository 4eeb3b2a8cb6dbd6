#include "obs/tracer.h"

#include <cstdio>

#include "obs/json_util.h"

namespace aims::obs {

std::string Trace::ToJson() const {
  std::string out = "{\"request_id\":" + std::to_string(request_id_) +
                    ",\"label\":\"" + JsonEscape(label_) + "\",\"spans\":[";
  for (size_t i = 0; i < spans_.size(); ++i) {
    const TraceSpan& span = spans_[i];
    if (i > 0) out += ',';
    out += "{\"name\":\"";
    out += span.name;  // a stage name: nothing to escape
    out += "\",\"id\":" + std::to_string(span.id) +
           ",\"parent_id\":" + std::to_string(span.parent_id) +
           ",\"start_ms\":";
    AppendJsonDouble(&out, span.start_ms);
    out += ",\"end_ms\":";
    AppendJsonDouble(&out, span.end_ms);
    out += '}';
  }
  out += "]}";
  return out;
}

Tracer::Tracer(size_t capacity, MetricsRegistry* metrics)
    : capacity_(capacity) {
  if (metrics == nullptr) return;
  for (size_t i = 0; i < kNumStages; ++i) {
    stage_ms_[i] = metrics->GetHistogram(
        "span." + std::string(kStageNames[i]) + "_ms",
        MetricsRegistry::DefaultProfileBoundsMs());
  }
}

void Tracer::SetEvictionSink(std::function<void(Trace&&)> sink) {
  std::lock_guard<std::mutex> lock(mutex_);
  eviction_sink_ = std::move(sink);
}

void Tracer::Record(Trace trace) {
  trace.CloseOpenSpans();
  if (stage_ms_.front() != nullptr) {
    for (const TraceSpan& span : trace.spans()) {
      stage_ms_[static_cast<size_t>(span.stage)]->Record(span.end_ms -
                                                         span.start_ms);
    }
  }
  if (capacity_ == 0) return;
  // A span vector moved in keeps its growth capacity (a 64-frame stream
  // batch's 65 spans keep room for 128), and the ring may hold the trace
  // for a long time. Trim it before taking the lock.
  trace.ShrinkToFit();
  std::lock_guard<std::mutex> lock(mutex_);
  ++total_recorded_;
  traces_.push_back(std::move(trace));
  while (traces_.size() > capacity_) {
    // The sink (flight recorder) takes the trace as it leaves the ring,
    // and the dropped counter moves exactly once per eviction either way —
    // capture never changes the accounting.
    if (eviction_sink_) eviction_sink_(std::move(traces_.front()));
    traces_.pop_front();
    ++dropped_;
  }
}

std::vector<Trace> Tracer::Snapshot() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return std::vector<Trace>(traces_.begin(), traces_.end());
}

uint64_t Tracer::total_recorded() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return total_recorded_;
}

uint64_t Tracer::dropped() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return dropped_;
}

size_t Tracer::retained() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return traces_.size();
}

double Tracer::OldestRetainedAgeMs() const {
  std::lock_guard<std::mutex> lock(mutex_);
  if (traces_.empty()) return 0.0;
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - traces_.front().epoch())
      .count();
}

}  // namespace aims::obs
