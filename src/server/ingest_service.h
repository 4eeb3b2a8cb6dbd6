#pragma once

#include <condition_variable>
#include <cstddef>
#include <mutex>
#include <string>
#include <unordered_map>

#include "common/status.h"
#include "obs/cost_ledger.h"
#include "obs/metrics.h"
#include "obs/tracer.h"
#include "server/sharded_catalog.h"
#include "streams/sample.h"

/// \file ingest_service.h
/// \brief Multi-tenant ingest admission: a synchronous gate in front of
/// ShardedCatalog::Ingest. A submission is admitted or rejected at once
/// (ResourceExhausted, counted, never a wait), and an admitted recording is
/// ingested on the caller's own thread. Sec. 3.1's double buffer stays in
/// src/acquisition, where a sensor handler must never wait; an ingest
/// caller waits for its session id anyway, so a queue and a thread hop in
/// front of the catalog would buy it nothing.

namespace aims::server {

/// \brief Admission policy for ingest submissions.
struct IngestAdmissionPolicy {
  /// Per-client cap on admitted-but-unfinished ingests. A client at the cap
  /// is rejected with ResourceExhausted.
  size_t queue_capacity = 8;
  /// Total in-flight recordings across all clients; 0 disables the global
  /// cap. Exceeding it rejects with ResourceExhausted before the
  /// per-client cap is consulted.
  size_t max_pending_total = 0;
};

/// \brief Admission-controlled, caller-run ingest over a ShardedCatalog.
class IngestService {
 public:
  /// \param catalog destination catalog (not owned).
  /// \param metrics optional registry (may be null). Exposes:
  ///   ingest.submitted / admitted / rejected_queue / rejected_capacity /
  ///   completed / failed (counters),
  ///   ingest.queue_depth (admitted and not yet finished; gauge with
  ///   high-water mark).
  /// \param tracer optional span sink (may be null). Every admitted ingest
  /// then carries a Trace — admission, shard_lock, and the per-channel
  /// seal/transform/block_write spans — recorded when it finishes. Its root
  /// span, "ingest", runs from admission to completion: the tracer's
  /// span.ingest_ms is the end-to-end latency.
  /// \param ledger optional per-tenant cost ledger (may be null). Each
  /// ingest charges its client's ledger: processing CPU time, exact
  /// blocks/bytes written, plus ingest/rejection counts.
  IngestService(ShardedCatalog* catalog, IngestAdmissionPolicy policy = {},
                obs::MetricsRegistry* metrics = nullptr,
                obs::Tracer* tracer = nullptr,
                obs::CostLedger* ledger = nullptr);

  /// Calls Shutdown().
  ~IngestService();

  IngestService(const IngestService&) = delete;
  IngestService& operator=(const IngestService&) = delete;

  /// \brief Admits \p recording and ingests it on the calling thread.
  /// ResourceExhausted at once when the global cap or the client's cap is
  /// reached, FailedPrecondition once Shutdown has begun; otherwise the
  /// catalog's answer (one attempt).
  Result<GlobalSessionId> Ingest(ClientId client, const std::string& name,
                                 const streams::Recording& recording);

  /// \brief Refuses new ingests with FailedPrecondition and returns once
  /// every admitted ingest has finished. Idempotent.
  void Shutdown();

 private:
  /// Takes one in-flight slot of \p client, or counts and returns why not.
  Status Admit(ClientId client);
  /// Returns the slot Admit took.
  void Finish(ClientId client);

  ShardedCatalog* catalog_;
  IngestAdmissionPolicy policy_;
  obs::Tracer* tracer_;
  obs::CostLedger* ledger_;

  std::mutex mutex_;
  std::condition_variable idle_cv_;
  bool shut_down_ = false;
  size_t in_flight_ = 0;
  /// Admitted-but-unfinished ingests per client; an entry is erased when
  /// its count reaches zero.
  std::unordered_map<ClientId, size_t> in_flight_by_client_;

  obs::Counter* submitted_ = nullptr;
  obs::Counter* admitted_ = nullptr;
  obs::Counter* rejected_queue_ = nullptr;
  obs::Counter* rejected_capacity_ = nullptr;
  obs::Counter* completed_ = nullptr;
  obs::Counter* failed_ = nullptr;
  obs::Gauge* queue_depth_ = nullptr;
};

}  // namespace aims::server
