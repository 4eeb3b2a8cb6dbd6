#include "server/recognition_service.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/macros.h"

namespace aims::server {

RecognitionService::RecognitionService(
    recognition::StreamRecognizerConfig config, obs::MetricsRegistry* metrics)
    : measure_(/*rank=*/0), config_(config) {
  if (metrics != nullptr) {
    streams_opened_ = metrics->GetCounter("recognition.streams_opened");
    frames_ = metrics->GetCounter("recognition.frames");
    events_ = metrics->GetCounter("recognition.events");
    evaluations_ = metrics->GetCounter("recognition.evaluations");
    open_streams_ = metrics->GetGauge("recognition.open_streams");
  }
}

Status RecognitionService::AddVocabularyEntry(std::string label,
                                              linalg::Matrix segment) {
  std::unique_lock<std::shared_mutex> lock(streams_mutex_);
  if (!streams_.empty()) {
    return Status::FailedPrecondition(
        "AddVocabularyEntry: vocabulary is immutable while recognition "
        "streams are open");
  }
  AIMS_RETURN_NOT_OK(vocabulary_.ValidateEntry(segment));
  vocabulary_.Add(std::move(label), std::move(segment));
  return Status::OK();
}

Status RecognitionService::OpenStream(ClientId client) {
  std::unique_lock<std::shared_mutex> lock(streams_mutex_);
  if (vocabulary_.size() == 0) {
    return Status::FailedPrecondition(
        "RecognitionService: register a vocabulary first");
  }
  auto& slot = streams_[client];
  if (slot) {
    return Status::AlreadyExists("RecognitionService: stream already open");
  }
  slot = std::make_shared<ClientStream>(&vocabulary_, &measure_, config_);
  if (streams_opened_ != nullptr) streams_opened_->Increment();
  if (open_streams_ != nullptr) open_streams_->AddTracked(1);
  return Status::OK();
}

Result<std::vector<recognition::RecognitionEvent>>
RecognitionService::PushFrames(ClientId client,
                               const std::vector<streams::Frame>& frames,
                               obs::Trace* trace) {
  std::shared_ptr<ClientStream> stream;
  {
    std::shared_lock<std::shared_mutex> lock(streams_mutex_);
    auto it = streams_.find(client);
    if (it == streams_.end()) {
      return Status::NotFound("RecognitionService: no open stream");
    }
    stream = it->second;
  }
  std::lock_guard<std::mutex> lock(stream->mutex);
  // Open and not closed: the vocabulary cannot change under this lock.
  if (stream->closed) {
    return Status::NotFound("RecognitionService: no open stream");
  }
  const size_t channels = vocabulary_.channels();
  for (const streams::Frame& frame : frames) {
    if (frame.values.size() != channels) {
      return Status::InvalidArgument(
          "StreamSamples: a frame has " + std::to_string(frame.values.size()) +
          " channels, the vocabulary " + std::to_string(channels));
    }
    if (!std::all_of(frame.values.begin(), frame.values.end(),
                     [](double v) { return std::isfinite(v); })) {
      return Status::InvalidArgument(
          "StreamSamples: a frame holds a NaN or infinite value");
    }
  }
  std::vector<recognition::RecognitionEvent> events;
  const size_t evaluations_before = stream->recognizer.evaluations();
  Status status;
  for (const streams::Frame& frame : frames) {
    size_t update_span = 0;
    if (trace != nullptr) {
      update_span = trace->BeginSpan(obs::Stage::kRecognizerUpdate);
    }
    auto result = stream->recognizer.Push(frame);
    if (trace != nullptr) {
      trace->EndSpan(update_span);
      if (result.ok() && result->has_value()) {
        trace->AddMarker(obs::Stage::kClassificationEvent);
      }
    }
    if (frames_ != nullptr) frames_->Increment();
    if (!result.ok()) {
      status = result.status();
      break;
    }
    if (result->has_value()) {
      if (events_ != nullptr) events_->Increment();
      events.push_back(std::move(**result));
    }
  }
  CountEvaluations(stream->recognizer.evaluations() - evaluations_before);
  AIMS_RETURN_NOT_OK(status);
  return events;
}

void RecognitionService::CountEvaluations(size_t evaluations) {
  if (evaluations_ != nullptr && evaluations > 0) {
    evaluations_->Increment(evaluations);
  }
}

Result<std::optional<recognition::RecognitionEvent>>
RecognitionService::CloseStream(ClientId client) {
  std::shared_ptr<ClientStream> stream;
  {
    std::shared_lock<std::shared_mutex> lock(streams_mutex_);
    auto it = streams_.find(client);
    if (it == streams_.end()) {
      return Status::NotFound("RecognitionService: no open stream");
    }
    stream = it->second;
  }
  // The flush serializes with any PushFrames on the per-stream mutex; a
  // PushFrames (or CloseStream) that resolved the stream before the erase
  // below finds it closed. The stream stays registered until its flush is
  // done, so AddVocabularyEntry cannot change the vocabulary under it.
  Result<std::optional<recognition::RecognitionEvent>> result =
      std::optional<recognition::RecognitionEvent>{};
  {
    std::lock_guard<std::mutex> lock(stream->mutex);
    if (stream->closed) {
      return Status::NotFound("RecognitionService: no open stream");
    }
    stream->closed = true;
    const size_t evaluations_before = stream->recognizer.evaluations();
    result = stream->recognizer.Finish();
    CountEvaluations(stream->recognizer.evaluations() - evaluations_before);
  }
  {
    std::unique_lock<std::shared_mutex> lock(streams_mutex_);
    streams_.erase(client);
  }
  if (open_streams_ != nullptr) open_streams_->AddTracked(-1);
  if (result.ok() && result->has_value() && events_ != nullptr) {
    events_->Increment();
  }
  return result;
}

size_t RecognitionService::open_streams() const {
  std::shared_lock<std::shared_mutex> lock(streams_mutex_);
  return streams_.size();
}

}  // namespace aims::server
