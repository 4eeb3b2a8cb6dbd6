#include "server/server.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <utility>

#include "common/macros.h"
#include "obs/exporters.h"
#include "obs/json_util.h"

namespace aims::server {

namespace {

/// One tenant's attributed costs as a JSON object (the /tenants body).
std::string TenantUsageJson(ClientId client, const obs::TenantUsage& usage) {
  std::string out = "{\"tenant\":" + std::to_string(client);
  out += ",\"cpu_ns\":" + std::to_string(usage.cpu_ns);
  out += ",\"blocks_read\":" + std::to_string(usage.blocks_read);
  out += ",\"blocks_written\":" + std::to_string(usage.blocks_written);
  out += ",\"bytes_read\":" + std::to_string(usage.bytes_read);
  out += ",\"bytes_written\":" + std::to_string(usage.bytes_written);
  out += ",\"queue_ms\":" + obs::TrimmedDouble(usage.queue_ms);
  out += ",\"queries\":" + std::to_string(usage.queries);
  out += ",\"ingests\":" + std::to_string(usage.ingests);
  out += ",\"stream_batches\":" + std::to_string(usage.stream_batches);
  out += ",\"slow_queries\":" + std::to_string(usage.slow_queries);
  out += ",\"rejected\":" + std::to_string(usage.rejected);
  out += "}";
  return out;
}

/// The recorder's config. An unset bundle path defaults next to the
/// durable store (the natural "where the post-mortem lives" place); on the
/// in-memory backend it stays empty and the recorder renders bundles
/// without persisting them.
obs::FlightRecorderConfig RecorderConfig(const ServerConfig& config) {
  obs::FlightRecorderConfig recorder = config.obs.flight_recorder;
  if (recorder.bundle_path.empty() && !config.system.durability.path.empty()) {
    recorder.bundle_path = config.system.durability.path + "/flightrecord.json";
  }
  return recorder;
}

}  // namespace

AimsServer::AimsServer(ServerConfig config)
    : config_(std::move(config)),
      // The registry and tracer are always constructed (the accessors
      // promise a valid reference); the enable flags only decide whether
      // the services get a pointer, so disabling observability leaves the
      // services' null-checks as the entire instrumentation cost.
      metrics_(std::make_unique<obs::MetricsRegistry>()),
      recorder_(std::make_unique<obs::FlightRecorder>(
          RecorderConfig(config_), [this] { return CollectFlightContext(); })),
      // With tracing off the ring retains nothing, so nothing is evicted.
      tracer_(std::make_unique<obs::Tracer>(
          config_.obs.enable_tracing ? config_.obs.trace_capacity : 0,
          service_metrics(),
          [recorder = recorder_.get()](obs::Trace&& trace) {
            recorder->RecordEvictedTrace(std::move(trace));
          })),
      cost_ledger_(std::make_unique<obs::CostLedger>()),
      // Slow-query logging needs both a threshold and a destination; with
      // either missing, the scheduler still counts slow queries but the
      // logger is never built.
      slow_log_stream_(config_.obs.slow_query_threshold_ms > 0.0 &&
                               !config_.obs.slow_query_log_path.empty()
                           ? std::make_unique<std::ofstream>(
                                 config_.obs.slow_query_log_path,
                                 std::ios::out | std::ios::trunc)
                           : nullptr),
      slow_log_(slow_log_stream_ != nullptr
                    ? std::make_unique<obs::AsyncLogger>(
                          slow_log_stream_.get(), config_.obs.slow_query_log)
                    : nullptr),
      history_(config_.obs.enable_metrics_history
                   ? std::make_unique<obs::MetricsTimeSeries>(
                         config_.obs.history)
                   : nullptr),
      watchdog_(std::make_unique<obs::Watchdog>(
          obs::WatchdogConfig{},
          config_.obs.enable_metrics
              ? metrics_->GetCounter("watchdog.stalls_total")
              : nullptr,
          [recorder = recorder_.get()](const obs::Watchdog::ThreadStatus& s) {
            (void)recorder->Dump("watchdog stall: " + s.name);
          })),
      // The aggregate registry is built on the catalog, so the catalog's
      // commit hook reaches it through the server; no ingest runs before
      // construction ends or after Shutdown.
      catalog_(std::make_unique<ShardedCatalog>(
          config_.num_shards, config_.system, service_metrics(),
          [this](GlobalSessionId session, ClientId client,
                 const std::vector<core::StandingRangeUpdate>& updates) {
            aggregates_->OnIngestCommit(session, client, updates);
          },
          watchdog_.get())),
      aggregates_(std::make_unique<ContinuousAggregateRegistry>(
          catalog_.get(), service_metrics())),
      migrator_(std::make_unique<DataMigrator>(catalog_.get(), watchdog_.get())),
      pool_(std::make_unique<ThreadPool>(config_.num_threads, watchdog_.get())),
      ingest_(std::make_unique<IngestService>(
          catalog_.get(), config_.admission, service_metrics(), span_tracer(),
          cost_ledger_.get())),
      scheduler_(std::make_unique<QueryScheduler>(
          catalog_.get(), pool_.get(), config_.scheduler, span_tracer(),
          service_metrics(), cost_ledger_.get(), slow_log_.get(),
          config_.obs.slow_query_threshold_ms, recorder_.get(),
          aggregates_.get())),
      recognition_(std::make_unique<RecognitionService>(config_.recognizer,
                                                        service_metrics())),
      reporter_(std::make_unique<obs::StatsReporter>(
          metrics_.get(), config_.obs.reporter, config_.obs.slos,
          history_.get(), watchdog_.get(),
          [recorder = recorder_.get()](const obs::HealthSnapshot& snapshot) {
            recorder->RecordHealth(snapshot);
          })),
      scraper_(history_ != nullptr
                   ? std::make_unique<obs::MetricsScraper>(
                         metrics_.get(), history_.get(),
                         obs::MetricsScraperConfig{}, watchdog_.get())
                   : nullptr),
      sweeper_(std::make_unique<RetentionSweeper>(
          catalog_.get(), config_.retention, service_metrics(),
          recorder_.get(), watchdog_.get())) {
  if (!recorder_->previous_bundle_path().empty()) {
    // Recovery-on-open: point at the previous incarnation's evidence
    // instead of silently clobbering it.
    std::fprintf(stderr,
                 "aims: previous flight-record bundle preserved at %s\n",
                 recorder_->previous_bundle_path().c_str());
  }
  // Each loop starts only when its cadence is positive.
  recorder_->Start();
  watchdog_->Start(config_.obs.watchdog_interval_ms);
  sweeper_->Start();
  reporter_->Start(config_.obs.reporter_interval_ms);
  if (scraper_ != nullptr) {
    scraper_->Start(config_.obs.history_scrape_interval_ms);
  }

  if (config_.obs.admin_port >= 0) {
    obs::AdminHttpConfig admin_config = config_.obs.admin;
    admin_config.port = config_.obs.admin_port;
    admin_ = std::make_unique<obs::AdminHttpServer>(admin_config);
    WireAdminRoutes();
    // A failed bind (port in use) degrades to "no admin plane", recorded
    // in admin_status_ — the data plane never pays for the operator port.
    admin_status_ = admin_->Start();
    if (!admin_status_.ok()) admin_.reset();
  }
}

obs::FlightContext AimsServer::CollectFlightContext() {
  obs::FlightContext context;
  if (catalog_->durable()) {
    context.has_wal = true;
    context.wal = catalog_->TotalWalStats();
  }
  context.has_cache = true;
  context.cache = catalog_->TotalCacheStats();
  context.shards = catalog_->ShardStats();
  context.watchdog = watchdog_->Status();
  if (history_ == nullptr || config_.obs.slos.empty()) return context;
  context.slo = reporter_->Latest().slo;
  // Embed each burning series' recent window (capped so a bundle stays
  // bounded): the post-mortem sees the trajectory that tripped the
  // objective, not just the final burn rate.
  constexpr size_t kMaxEmbeddedSamples = 512;
  const int64_t now_ms =
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::system_clock::now().time_since_epoch())
          .count();
  for (const obs::SloStatus& s : context.slo) {
    if (!s.burning) continue;
    obs::SloHistoryEntry entry;
    entry.objective = s.name;
    entry.series = s.series;
    entry.samples = history_->Query(
        s.series, now_ms - static_cast<int64_t>(s.slow_window_ms), now_ms);
    if (entry.samples.size() > kMaxEmbeddedSamples) {
      entry.samples.erase(entry.samples.begin(),
                          entry.samples.end() - kMaxEmbeddedSamples);
    }
    context.slo_history.push_back(std::move(entry));
  }
  return context;
}

AimsServer::~AimsServer() { Shutdown(); }

Status AimsServer::AddVocabularyEntry(std::string label,
                                      linalg::Matrix segment) {
  return recognition_->AddVocabularyEntry(std::move(label),
                                          std::move(segment));
}

Result<OpenSessionResponse> AimsServer::OpenSession(
    const OpenSessionRequest& request) {
  {
    std::lock_guard<std::mutex> lock(sessions_mutex_);
    if (sessions_.count(request.client) != 0) {
      return Status::AlreadyExists(
          "OpenSession: client already has an open session");
    }
  }
  if (request.enable_recognition) {
    // OpenStream enforces the non-empty-vocabulary precondition and the
    // one-stream-per-client invariant.
    AIMS_RETURN_NOT_OK(recognition_->OpenStream(request.client));
  }
  {
    std::lock_guard<std::mutex> lock(sessions_mutex_);
    sessions_[request.client] =
        SessionState{/*recognition=*/request.enable_recognition};
  }
  OpenSessionResponse response;
  response.client = request.client;
  // Placement-opaque by design: the response carries no shard index. The
  // router decides (and may later change) where this client's data lives.
  response.router_epoch = catalog_->router().epoch();
  return response;
}

Result<IngestRecordingResponse> AimsServer::IngestRecording(
    IngestRecordingRequest request) {
  {
    std::lock_guard<std::mutex> lock(sessions_mutex_);
    if (sessions_.count(request.client) == 0) {
      return Status::NotFound("IngestRecording: no open session for client");
    }
  }
  IngestRecordingResponse response;
  response.num_frames = request.recording.num_frames();
  response.num_channels = request.recording.num_channels();
  AIMS_ASSIGN_OR_RETURN(
      response.session,
      ingest_->Ingest(request.client, request.name, request.recording));
  return response;
}

Result<SubmitQueryResponse> AimsServer::SubmitQuery(
    const SubmitQueryRequest& request) {
  {
    std::lock_guard<std::mutex> lock(sessions_mutex_);
    if (sessions_.count(request.client) == 0) {
      return Status::NotFound("SubmitQuery: no open session for client");
    }
  }
  SubmitQueryResponse response;
  // The session check above makes the client id trustworthy, so it becomes
  // the ledger's attribution key for everything the query consumes.
  QueryRequest query = request.query;
  query.tenant = request.client;
  AIMS_ASSIGN_OR_RETURN(response.ticket, scheduler_->Submit(std::move(query)));
  return response;
}

Result<StreamSamplesResponse> AimsServer::StreamSamples(
    StreamSamplesRequest request) {
  {
    std::lock_guard<std::mutex> lock(sessions_mutex_);
    auto it = sessions_.find(request.client);
    if (it == sessions_.end()) {
      return Status::NotFound("StreamSamples: no open session for client");
    }
    if (!it->second.recognition) {
      return Status::FailedPrecondition(
          "StreamSamples: session was opened without recognition; set "
          "OpenSessionRequest::enable_recognition");
    }
  }
  StreamSamplesResponse response;
  // One trace per batch: a root span with one recognizer_update child per
  // frame and a classification_event marker per recognized motion — the
  // online-query counterpart of the scheduler's query traces.
  obs::Tracer* tracer = span_tracer();
  std::optional<obs::Trace> trace;
  if (tracer != nullptr) {
    trace.emplace(tracer->NextRequestId());
    trace->set_label("stream_samples client=" + std::to_string(request.client) +
                     " frames=" + std::to_string(request.frames.size()));
    trace->BeginSpan(obs::Stage::kStreamSamples);
  }
  obs::Trace* trace_ptr = trace.has_value() ? &*trace : nullptr;
  obs::TenantLedger* tenant = cost_ledger_->ForTenant(request.client);
  tenant->CountStreamBatch();
  obs::ScopedCpuCharge cpu_charge(tenant);
  auto events =
      recognition_->PushFrames(request.client, request.frames, trace_ptr);
  // A failed batch still records what it did up to the failing frame.
  if (trace.has_value()) tracer->Record(std::move(*trace));
  AIMS_RETURN_NOT_OK(events.status());
  response.frames_pushed = request.frames.size();
  response.events = events.MoveValueUnsafe();
  return response;
}

Result<GetHealthResponse> AimsServer::GetHealth(
    const GetHealthRequest& request) {
  GetHealthResponse response;
  response.health =
      request.force_refresh ? reporter_->SnapshotNow() : reporter_->Latest();
  response.reporter_running = reporter_->running();
  response.cache = catalog_->TotalCacheStats();
  if (catalog_->durable()) response.wal = catalog_->TotalWalStats();
  return response;
}

Result<GetTenantUsageResponse> AimsServer::GetTenantUsage(
    const GetTenantUsageRequest& request) {
  GetTenantUsageResponse response;
  if (request.client.has_value()) {
    std::optional<obs::TenantUsage> usage =
        cost_ledger_->Usage(*request.client);
    if (!usage.has_value()) {
      return Status::NotFound(
          "GetTenantUsage: ledger has no charges for client");
    }
    response.tenants.push_back(TenantUsageEntry{*request.client, *usage});
    response.total = *usage;
    return response;
  }
  for (const auto& [client, usage] : cost_ledger_->Snapshot()) {
    response.tenants.push_back(TenantUsageEntry{client, usage});
    response.total.Accumulate(usage);
  }
  return response;
}

Result<QueryMetricsHistoryResponse> AimsServer::QueryMetricsHistory(
    const QueryMetricsHistoryRequest& request) {
  if (history_ == nullptr) {
    return Status::FailedPrecondition(
        "QueryMetricsHistory: metrics history disabled "
        "(ObsConfig::enable_metrics_history)");
  }
  obs::RangeQuery query;
  query.series = request.series;
  query.func = request.func;
  query.quantile = request.quantile;
  query.start_ms = request.start_ms;
  query.end_ms =
      request.end_ms != 0
          ? request.end_ms
          : std::chrono::duration_cast<std::chrono::milliseconds>(
                std::chrono::system_clock::now().time_since_epoch())
                .count();
  query.step_ms = request.step_ms;
  QueryMetricsHistoryResponse response;
  response.series = request.series;
  response.func = request.func;
  AIMS_ASSIGN_OR_RETURN(response.points,
                        obs::EvaluateRangeQuery(*history_, query));
  return response;
}

Result<GetShardStatsResponse> AimsServer::GetShardStats(
    const GetShardStatsRequest& request) {
  (void)request;
  GetShardStatsResponse response;
  response.router_epoch = catalog_->router().epoch();
  response.shards = catalog_->ShardStats();
  return response;
}

Result<TriggerRebalanceResponse> AimsServer::TriggerRebalance(
    const TriggerRebalanceRequest& request) {
  TriggerRebalanceResponse response;

  // Build the plan: one explicit move, or planner-derived from the ledger.
  if (request.client.has_value() != request.target_shard.has_value()) {
    return Status::InvalidArgument(
        "TriggerRebalance: set both client and target_shard (explicit "
        "move) or neither (planner-driven)");
  }
  if (request.client.has_value()) {
    if (*request.target_shard >= catalog_->num_shards()) {
      return Status::InvalidArgument("TriggerRebalance: no such shard");
    }
    RebalanceMove move;
    move.client = *request.client;
    move.from_shard = catalog_->router().ShardForClient(*request.client);
    move.to_shard = *request.target_shard;
    if (move.from_shard != move.to_shard) response.plan.moves.push_back(move);
  } else {
    RebalancePlanner planner;
    response.plan = planner.Plan(cost_ledger_->Snapshot(), catalog_->router(),
                                 catalog_->num_shards());
  }
  if (request.dry_run || response.plan.moves.empty()) return response;

  // The moves run in order on the executor (one migration at a time by
  // design) while this call returns. Shutdown drains the pool, so a run
  // it accepted always finishes or fails before teardown.
  AIMS_RETURN_NOT_OK(migrator_->Claim(response.plan.moves));
  if (!pool_->Submit([this] { (void)migrator_->RunClaimed(); })) {
    const Status refused = Status::FailedPrecondition(
        "TriggerRebalance: executor rejected the rebalance task");
    migrator_->Abandon(refused.message());
    return refused;
  }
  response.started = true;
  return response;
}

Result<RebalanceStatusResponse> AimsServer::RebalanceStatus(
    const RebalanceStatusRequest& request) {
  (void)request;
  const MigrationRun run = migrator_->run();
  RebalanceStatusResponse response;
  response.running = run.running;
  response.moves = run.moves;
  response.completed_moves = run.completed;
  response.migration = run.migration;
  response.error = run.error;
  response.router_epoch = catalog_->router().epoch();
  return response;
}

Result<DumpFlightRecordResponse> AimsServer::DumpFlightRecord(
    const DumpFlightRecordRequest& request) {
  DumpFlightRecordResponse response;
  if (request.write_file && !recorder_->bundle_path().empty()) {
    AIMS_ASSIGN_OR_RETURN(response.path, recorder_->Dump(request.reason));
  }
  response.bundle_json = recorder_->RenderBundle(request.reason);
  return response;
}

Result<AdminFaultResponse> AimsServer::AdminFault(
    const AdminFaultRequest& request) {
  return catalog_->ApplyFault(request);
}

Result<ClearCacheResponse> AimsServer::ClearCache(
    const ClearCacheRequest& request) {
  return catalog_->ClearCache(request);
}

Result<RegisterAggregateResponse> AimsServer::RegisterAggregate(
    const RegisterAggregateRequest& request) {
  {
    std::lock_guard<std::mutex> lock(sessions_mutex_);
    if (sessions_.count(request.client) == 0) {
      return Status::NotFound("RegisterAggregate: no open session for client");
    }
  }
  AggregateSpec spec;
  spec.client = request.client;
  spec.channel = request.channel;
  spec.first_frame = request.first_frame;
  spec.last_frame = request.last_frame;
  AIMS_ASSIGN_OR_RETURN(RegisteredAggregate registered,
                        aggregates_->Register(spec));
  RegisterAggregateResponse response;
  response.handle = registered.handle;
  response.sessions_backfilled = registered.sessions_backfilled;
  return response;
}

Result<UnregisterAggregateResponse> AimsServer::UnregisterAggregate(
    const UnregisterAggregateRequest& request) {
  AIMS_RETURN_NOT_OK(aggregates_->Unregister(request.handle));
  return UnregisterAggregateResponse{};
}

Result<SetRetentionPolicyResponse> AimsServer::SetRetentionPolicy(
    const SetRetentionPolicyRequest& request) {
  if (request.clear) {
    if (!request.client.has_value()) {
      return Status::InvalidArgument(
          "SetRetentionPolicy: clear requires a client (the default policy "
          "can be replaced, not cleared)");
    }
    sweeper_->ClearTenantPolicy(*request.client);
  } else if (request.client.has_value()) {
    sweeper_->SetTenantPolicy(*request.client, request.policy);
  } else {
    sweeper_->SetDefaultPolicy(request.policy);
  }
  return SetRetentionPolicyResponse{};
}

Result<TriggerRetentionSweepResponse> AimsServer::TriggerRetentionSweep(
    const TriggerRetentionSweepRequest& request) {
  TriggerRetentionSweepResponse response;
  AIMS_ASSIGN_OR_RETURN(response.stats, sweeper_->SweepNow(request.now_us));
  return response;
}

Result<CloseSessionResponse> AimsServer::CloseSession(
    const CloseSessionRequest& request) {
  SessionState state;
  {
    std::lock_guard<std::mutex> lock(sessions_mutex_);
    auto it = sessions_.find(request.client);
    if (it == sessions_.end()) {
      return Status::NotFound("CloseSession: no open session for client");
    }
    state = it->second;
    sessions_.erase(it);
  }
  CloseSessionResponse response;
  if (state.recognition) {
    AIMS_ASSIGN_OR_RETURN(response.final_event,
                          recognition_->CloseStream(request.client));
  }
  return response;
}

void AimsServer::WireAdminRoutes() {
  // /metrics: the extended Prometheus exposition, honoring the same
  // enable flags as the typed API — a disabled subsystem simply
  // contributes no families.
  admin_->Route("/metrics", [this](const obs::AdminRequest&) {
    obs::AdminResponse response;
    response.content_type = "text/plain; version=0.0.4";
    const obs::CacheStats cache = catalog_->TotalCacheStats();
    std::optional<obs::WalStats> wal;
    if (catalog_->durable()) wal = catalog_->TotalWalStats();
    std::vector<obs::ShardStatsEntry> shards = catalog_->ShardStats();
    std::vector<obs::SloStatus> slo;
    if (history_ != nullptr && !config_.obs.slos.empty()) {
      slo = reporter_->Latest().slo;
    }
    response.body = obs::PrometheusExport(
        *metrics_, config_.obs.enable_tracing ? tracer_.get() : nullptr,
        cost_ledger_.get(), &cache, wal.has_value() ? &*wal : nullptr,
        &shards, &slo);
    return response;
  });

  // /healthz: 200 while Ok/Degraded, 503 once Saturated — the load
  // balancer contract. "?refresh" (or any query naming it) forces an
  // on-demand evaluation; so does a reporter that has never snapshotted
  // (Latest computes the first snapshot).
  admin_->Route("/healthz", [this](const obs::AdminRequest& request) {
    obs::AdminResponse response;
    const obs::HealthSnapshot snapshot =
        request.query.find("refresh") != std::string::npos
            ? reporter_->SnapshotNow()
            : reporter_->Latest();
    if (snapshot.level == obs::HealthLevel::kSaturated) response.status = 503;
    response.body = obs::HealthSnapshotJson(snapshot) + "\n";
    return response;
  });

  // /shards: the GetShardStats surface as JSON.
  admin_->Route("/shards", [this](const obs::AdminRequest&) {
    obs::AdminResponse response;
    std::string body =
        "{\"router_epoch\":" + std::to_string(catalog_->router().epoch()) +
        ",\"shards\":[";
    bool first = true;
    for (const obs::ShardStatsEntry& s : catalog_->ShardStats()) {
      if (!first) body += ",";
      first = false;
      body += "{\"shard\":" + std::to_string(s.shard) +
              ",\"sessions\":" + std::to_string(s.sessions) +
              ",\"tenants\":" + std::to_string(s.tenants) +
              ",\"ingests\":" + std::to_string(s.ingests) +
              ",\"queries\":" + std::to_string(s.queries) +
              ",\"lock_wait_p50_ms\":" +
              obs::TrimmedDouble(s.lock_wait_p50_ms) +
              ",\"lock_wait_p99_ms\":" +
              obs::TrimmedDouble(s.lock_wait_p99_ms) +
              ",\"wal_lag_bytes\":" + std::to_string(s.wal_lag_bytes) +
              ",\"queue_depth\":" + std::to_string(s.queue_depth) + "}";
    }
    response.body = body + "]}\n";
    return response;
  });

  // /tenants and /tenants/<id>: the GetTenantUsage surface as JSON (404
  // for an uncharged tenant).
  auto tenants = [this](std::optional<ClientId> client) {
    GetTenantUsageRequest request;
    request.client = client;
    Result<GetTenantUsageResponse> result = GetTenantUsage(request);
    obs::AdminResponse response;
    if (!result.ok()) {
      response.status = 404;
      response.body = "{\"error\":\"" +
                      obs::JsonEscape(result.status().message()) + "\"}\n";
      return response;
    }
    std::string body = "{\"tenants\":[";
    bool first = true;
    for (const TenantUsageEntry& entry : result->tenants) {
      if (!first) body += ",";
      first = false;
      body += TenantUsageJson(entry.client, entry.usage);
    }
    body += "],\"total\":";
    body += TenantUsageJson(0, result->total);
    response.body = body + "}\n";
    return response;
  };
  admin_->Route("/tenants", [tenants](const obs::AdminRequest&) {
    return tenants(std::nullopt);
  });
  admin_->RoutePrefix("/tenants/", [tenants](const obs::AdminRequest& req) {
    const std::string suffix = req.path.substr(sizeof("/tenants/") - 1);
    char* end = nullptr;
    unsigned long long id = std::strtoull(suffix.c_str(), &end, 10);
    if (suffix.empty() || end == nullptr || *end != '\0') {
      obs::AdminResponse response;
      response.status = 400;
      response.body = "{\"error\":\"bad tenant id\"}\n";
      return response;
    }
    return tenants(static_cast<ClientId>(id));
  });

  // /traces: the retained traces as Chrome trace_event JSON — load the
  // body straight into Perfetto.
  admin_->Route("/traces", [this](const obs::AdminRequest&) {
    obs::AdminResponse response;
    if (!config_.obs.enable_tracing) {
      response.status = 404;
      response.body = "{\"error\":\"tracing disabled\"}\n";
      return response;
    }
    response.body = obs::ChromeTraceExport(*tracer_);
    return response;
  });

  // /api/v1/query_range: the metrics-history surface in Prometheus's
  // range-query API shape, so existing dashboards/scripts can point a
  // Prometheus HTTP client at AIMS itself. Times are unix SECONDS (float
  // ok), the query is "<series>" or "<func>(<series>)" with the
  // obs::ParseRangeFunc vocabulary, and the answer is a one-series
  // matrix: {"status":"success","data":{"resultType":"matrix",...}}.
  admin_->Route("/api/v1/query_range", [this](const obs::AdminRequest& req) {
    obs::AdminResponse response;
    auto error = [&response](int status, const std::string& message) {
      response.status = status;
      response.body = "{\"status\":\"error\",\"errorType\":\"bad_data\","
                      "\"error\":\"" +
                      obs::JsonEscape(message) + "\"}\n";
      return response;
    };
    if (history_ == nullptr) {
      return error(404, "metrics history disabled");
    }
    const std::map<std::string, std::string> params =
        obs::ParseQueryParams(req.query);
    auto get = [&params](const char* key) -> const std::string* {
      auto it = params.find(key);
      return it == params.end() ? nullptr : &it->second;
    };
    const std::string* query_expr = get("query");
    const std::string* start = get("start");
    const std::string* end = get("end");
    if (query_expr == nullptr || query_expr->empty() || start == nullptr ||
        end == nullptr) {
      return error(400, "query, start, and end are required");
    }
    obs::RangeQuery query;
    // "<func>(<series>)" selects the aggregation; a bare series name
    // averages each window.
    std::string expr = *query_expr;
    const size_t paren = expr.find('(');
    if (paren != std::string::npos && expr.back() == ')') {
      if (!obs::ParseRangeFunc(expr.substr(0, paren), &query.func)) {
        return error(400, "unknown function: " + expr.substr(0, paren));
      }
      expr = expr.substr(paren + 1, expr.size() - paren - 2);
    }
    query.series = expr;
    // Strict: the whole string must be one finite number ("nan"/"inf"
    // would cast to an integer as UB, and strtod alone reads "abc" as 0).
    auto parse_finite = [](const std::string& text, double* out) {
      char* parse_end = nullptr;
      *out = std::strtod(text.c_str(), &parse_end);
      return parse_end != text.c_str() && *parse_end == '\0' &&
             std::isfinite(*out);
    };
    // Unix seconds (fractional ok) -> ms. The magnitude must stay within
    // the range-query timestamp bound — which also keeps the double->int64
    // cast defined (the bound is far below where the cast becomes UB).
    auto parse_ms = [&parse_finite](const std::string& text, int64_t* out) {
      double seconds = 0.0;
      if (!parse_finite(text, &seconds)) return false;
      const double ms = seconds * 1000.0;
      if (ms < -static_cast<double>(obs::kMaxRangeQueryTimestampMs) ||
          ms > static_cast<double>(obs::kMaxRangeQueryTimestampMs)) {
        return false;
      }
      *out = static_cast<int64_t>(ms);
      return true;
    };
    if (!parse_ms(*start, &query.start_ms)) return error(400, "bad start");
    if (!parse_ms(*end, &query.end_ms)) return error(400, "bad end");
    if (const std::string* step = get("step")) {
      if (!parse_ms(*step, &query.step_ms) || query.step_ms <= 0) {
        return error(400, "bad step");
      }
    }
    if (const std::string* quantile = get("quantile")) {
      if (!parse_finite(*quantile, &query.quantile)) {
        return error(400, "bad quantile");
      }
    }
    Result<std::vector<obs::RangePoint>> points =
        obs::EvaluateRangeQuery(*history_, query);
    if (!points.ok()) return error(400, points.status().message());
    std::string body =
        "{\"status\":\"success\",\"data\":{\"resultType\":\"matrix\","
        "\"result\":[";
    if (!points->empty()) {
      body += "{\"metric\":{\"__name__\":\"" + obs::JsonEscape(query.series) +
              "\"},\"values\":[";
      bool first = true;
      for (const obs::RangePoint& point : *points) {
        if (!first) body += ',';
        first = false;
        body += "[" +
                obs::TrimmedDouble(static_cast<double>(point.t_ms) / 1000.0) +
                ",\"" + obs::TrimmedDouble(point.value) + "\"]";
      }
      body += "]}";
    }
    response.body = body + "]}}\n";
    return response;
  });

  // /debug/flightrecord: the black box rendered on demand (in-memory:
  // this is the only way to read it while the process lives).
  admin_->Route("/debug/flightrecord", [this](const obs::AdminRequest&) {
    obs::AdminResponse response;
    response.body = recorder_->RenderBundle("http request");
    return response;
  });
}

void AimsServer::Shutdown() {
  std::call_once(shutdown_once_, [this] {
    // The loops stop first, the admin listener (whose handlers read
    // everything below) before them: the recorder's persist loop renders
    // the watchdog's status and the watchdog's checker dumps the recorder,
    // so no destruction order alone could stop both. The watchdog stops
    // before the rest winds down, so winding-down parts are never judged
    // stalled.
    if (admin_ != nullptr) admin_->Stop();
    sweeper_->Stop();
    watchdog_->Stop();
    if (scraper_ != nullptr) scraper_->Stop();
    reporter_->Stop();
    // Then admitted ingests (on their callers) and queries (on the pool)
    // finish, and stopping the logger (join + final flush) makes every
    // slow-query record durable.
    ingest_->Shutdown();
    scheduler_->Drain();
    if (slow_log_ != nullptr) slow_log_->Stop();
    // The recorder's shutdown bundle captures the drained state, and the
    // pool stops last: a rebalance it accepted runs to its end.
    recorder_->Stop();
    pool_->Shutdown();
  });
}

}  // namespace aims::server
