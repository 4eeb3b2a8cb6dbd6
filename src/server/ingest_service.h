#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <unordered_map>

#include <optional>

#include "common/status.h"
#include "obs/cost_ledger.h"
#include "obs/metrics.h"
#include "obs/tracer.h"
#include "server/sharded_catalog.h"
#include "server/thread_pool.h"
#include "streams/double_buffer.h"
#include "streams/sample.h"

/// \file ingest_service.h
/// \brief Multi-tenant ingest admission: each client gets a bounded queue
/// (the acquisition pipeline's DoubleBuffer, reused as-is) drained by the
/// shared thread pool into the sharded catalog. The backpressure contract
/// mirrors Sec. 3.1's sensor handler: the producer is NEVER blocked — when
/// a queue is full the submission is rejected with ResourceExhausted and
/// counted, exactly like the acquisition pipeline counts drops when the
/// consumer falls behind. Memory stays bounded no matter how far a
/// producer outruns the service.

namespace aims::server {

/// \brief Admission policy for ingest submissions.
struct IngestAdmissionPolicy {
  /// Per-client bounded queue capacity (recordings awaiting ingest).
  /// A full queue rejects new submissions with ResourceExhausted.
  size_t queue_capacity = 8;
  /// Total in-flight recordings across all clients; 0 disables the global
  /// cap. Exceeding it rejects with ResourceExhausted before the
  /// per-client queue is consulted.
  size_t max_pending_total = 0;
};

/// \brief Asynchronous, admission-controlled ingest over a ShardedCatalog.
class IngestService {
 public:
  /// Completion callback: the new global session id, or the error that
  /// ended the ingest. Runs on a pool worker thread.
  using Callback = std::function<void(const Result<GlobalSessionId>&)>;

  /// \param catalog destination catalog (not owned).
  /// \param pool executor draining the queues (not owned).
  /// \param metrics optional registry (may be null). Exposes:
  ///   ingest.submitted / admitted / rejected_queue / rejected_capacity /
  ///   completed / failed (counters),
  ///   ingest.queue_depth (gauge with high-water mark).
  /// \param tracer optional span sink (may be null). Every admitted
  /// submission then carries a Trace — admission, queue_wait, shard_lock,
  /// and the per-channel transform/block_write spans — recorded when the
  /// ingest finishes. Its root span, "ingest", runs from admission to
  /// completion: the tracer's span.ingest_ms is the end-to-end latency.
  /// \param ledger optional per-tenant cost ledger (may be null). Each
  /// ingest charges its client's ledger: queue wait, processing CPU time,
  /// exact blocks/bytes written, plus ingest/rejection counts.
  IngestService(ShardedCatalog* catalog, ThreadPool* pool,
                IngestAdmissionPolicy policy = {},
                obs::MetricsRegistry* metrics = nullptr,
                obs::Tracer* tracer = nullptr,
                obs::CostLedger* ledger = nullptr);

  /// Waits for every scheduled drain task to finish (the pool must still
  /// be running or already drained), so no worker can touch a destroyed
  /// service.
  ~IngestService();

  /// \brief Submits a recording for asynchronous ingest. Never blocks:
  /// returns OK when admitted, ResourceExhausted when the client queue or
  /// the global cap is full, FailedPrecondition when the pool is shutting
  /// down. \p on_done (optional) fires once the ingest finishes.
  Status Submit(ClientId client, std::string name,
                streams::Recording recording, Callback on_done = nullptr);

  /// \brief Blocks until every admitted submission has completed. Call
  /// before tearing down the catalog or the pool.
  void Drain();

  /// Admitted-but-not-completed count.
  size_t pending() const { return pending_.load(std::memory_order_relaxed); }

 private:
  struct PendingItem {
    std::string name;
    streams::Recording recording;
    Callback on_done;
    std::chrono::steady_clock::time_point enqueued;
    /// End-to-end trace (engaged only when the service has a tracer).
    std::optional<obs::Trace> trace;
    /// Index of the open "queue_wait" span inside *trace.
    size_t queue_span = 0;
  };

  struct ClientState {
    explicit ClientState(ClientId id, size_t capacity)
        : client(id), queue(capacity) {}
    const ClientId client;
    streams::DoubleBuffer<PendingItem> queue;
    /// Serializes drainers so each client's recordings ingest in FIFO
    /// order even when several pool workers pick up its tasks.
    std::mutex drain_mutex;
  };

  ClientState* GetOrCreateClient(ClientId client);
  void DrainClient(ClientState* state);
  void ProcessItem(ClientState* state, PendingItem item);

  ShardedCatalog* catalog_;
  ThreadPool* pool_;
  IngestAdmissionPolicy policy_;
  obs::Tracer* tracer_;
  obs::CostLedger* ledger_;

  mutable std::shared_mutex clients_mutex_;
  std::unordered_map<ClientId, std::unique_ptr<ClientState>> clients_;

  std::atomic<size_t> pending_{0};
  /// Drain tasks scheduled on the pool that have not yet returned; the
  /// destructor blocks until this reaches zero.
  std::atomic<size_t> tasks_in_flight_{0};
  std::mutex drain_wait_mutex_;
  std::condition_variable drained_cv_;

  obs::Counter* submitted_ = nullptr;
  obs::Counter* admitted_ = nullptr;
  obs::Counter* rejected_queue_ = nullptr;
  obs::Counter* rejected_capacity_ = nullptr;
  obs::Counter* completed_ = nullptr;
  obs::Counter* failed_ = nullptr;
  obs::Gauge* queue_depth_ = nullptr;
};

}  // namespace aims::server
