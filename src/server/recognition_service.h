#pragma once

#include <memory>
#include <mutex>
#include <optional>
#include <shared_mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "linalg/matrix.h"
#include "obs/metrics.h"
#include "obs/tracer.h"
#include "recognition/isolator.h"
#include "recognition/similarity.h"
#include "recognition/vocabulary.h"
#include "server/sharded_catalog.h"
#include "streams/sample.h"

/// \file recognition_service.h
/// \brief Multi-tenant online recognition: one live StreamRecognizer per
/// client, all sharing one vocabulary and similarity measure, so a
/// classroom of gloved subjects runs simultaneous sign recognition
/// (Sec. 3.4) against the same template library — and the same
/// once-computed template spectra. Per-client state is guarded by a
/// per-client mutex — different clients' frames never contend.

namespace aims::server {

/// \brief Per-client live recognizers over a shared vocabulary.
class RecognitionService {
 public:
  /// \param config recognizer tuning applied to every stream.
  /// \param metrics optional registry (may be null). Exposes:
  ///   recognition.streams_opened / frames / events (counters),
  ///   recognition.open_streams (gauge). A frame's latency is its
  ///   recognizer_update span (see PushFrames).
  explicit RecognitionService(recognition::StreamRecognizerConfig config = {},
                              obs::MetricsRegistry* metrics = nullptr);

  /// \brief Registers a template for the streams opened afterwards.
  /// InvalidArgument when Vocabulary::ValidateEntry rejects it;
  /// FailedPrecondition while any stream is registered. A stream stays
  /// registered until CloseStream's final flush is done, and a closed
  /// stream refuses frames, so no recognizer reads the vocabulary while it
  /// changes; the check and the change hold the lock OpenStream takes.
  Status AddVocabularyEntry(std::string label, linalg::Matrix segment);

  /// \brief Starts a live stream for \p client. Fails with
  /// FailedPrecondition when the vocabulary is empty, AlreadyExists when
  /// the client already has an open stream.
  Status OpenStream(ClientId client);

  /// \brief Feeds a batch of live frames, in order; returns the events of
  /// the motions the batch isolated and recognized. InvalidArgument, before
  /// any frame is pushed, when a frame's channel count differs from the
  /// vocabulary's. Safe to call concurrently for different clients; calls
  /// for one client are serialized by the per-client lock. \p trace
  /// (optional) gains a "recognizer_update" span per frame plus a
  /// "classification_event" marker whenever a motion is recognized.
  Result<std::vector<recognition::RecognitionEvent>> PushFrames(
      ClientId client, const std::vector<streams::Frame>& frames,
      obs::Trace* trace = nullptr);

  /// \brief Flushes and closes \p client's stream, returning the final
  /// event if the tail of the stream completed a motion.
  Result<std::optional<recognition::RecognitionEvent>> CloseStream(
      ClientId client);

  size_t open_streams() const;

 private:
  struct ClientStream {
    ClientStream(const recognition::Vocabulary* vocabulary,
                 const recognition::WeightedSvdSimilarity* measure,
                 recognition::StreamRecognizerConfig config)
        : recognizer(vocabulary, measure, config) {}
    mutable std::mutex mutex;
    /// Set (under mutex) by the CloseStream that flushed the recognizer;
    /// the recognizer is never used again.
    bool closed = false;
    recognition::StreamRecognizer recognizer;
  };

  recognition::WeightedSvdSimilarity measure_;
  recognition::StreamRecognizerConfig config_;

  mutable std::shared_mutex streams_mutex_;
  /// Changed only under a unique streams_mutex_ with no stream registered.
  recognition::Vocabulary vocabulary_;
  /// shared_ptr: a PushFrames that resolved a stream keeps it alive across
  /// a concurrent CloseStream (it then finds the stream closed).
  std::unordered_map<ClientId, std::shared_ptr<ClientStream>> streams_;

  obs::Counter* streams_opened_ = nullptr;
  obs::Counter* frames_ = nullptr;
  obs::Counter* events_ = nullptr;
  obs::Gauge* open_streams_ = nullptr;
};

}  // namespace aims::server
