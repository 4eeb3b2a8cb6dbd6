#include "obs/flight_recorder.h"

#include <cstdio>
#include <utility>

#include "common/durable_file.h"
#include "common/macros.h"
#include "obs/json_util.h"

namespace aims::obs {

namespace {

double MsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

void AppendWalJson(std::string* out, const WalStats& wal) {
  *out += "{\"records\":" + std::to_string(wal.records) +
          ",\"commits\":" + std::to_string(wal.commits) +
          ",\"syncs\":" + std::to_string(wal.syncs) +
          ",\"max_commits_per_sync\":" +
          std::to_string(wal.max_commits_per_sync) +
          ",\"bytes_appended\":" + std::to_string(wal.bytes_appended) +
          ",\"lag_bytes\":" + std::to_string(wal.lag_bytes) +
          ",\"checkpoints\":" + std::to_string(wal.checkpoints) +
          ",\"recovered_txns\":" + std::to_string(wal.recovered_txns) +
          ",\"recovered_records\":" + std::to_string(wal.recovered_records) +
          ",\"discarded_bytes\":" + std::to_string(wal.discarded_bytes) + "}";
}

void AppendCacheJson(std::string* out, const CacheStats& cache) {
  *out += "{\"hits\":" + std::to_string(cache.hits) +
          ",\"misses\":" + std::to_string(cache.misses) +
          ",\"evictions\":" + std::to_string(cache.evictions) +
          ",\"invalidations\":" + std::to_string(cache.invalidations) +
          ",\"insertions\":" + std::to_string(cache.insertions) +
          ",\"bytes_cached\":" + std::to_string(cache.bytes_cached) +
          ",\"blocks_cached\":" + std::to_string(cache.blocks_cached) +
          ",\"capacity_bytes\":" + std::to_string(cache.capacity_bytes) + "}";
}

void AppendShardJson(std::string* out, const ShardStatsEntry& shard) {
  *out += "{\"shard\":" + std::to_string(shard.shard) +
          ",\"sessions\":" + std::to_string(shard.sessions) +
          ",\"tenants\":" + std::to_string(shard.tenants) +
          ",\"ingests\":" + std::to_string(shard.ingests) +
          ",\"queries\":" + std::to_string(shard.queries) +
          ",\"wal_lag_bytes\":" + std::to_string(shard.wal_lag_bytes) +
          ",\"lock_wait_p50_ms\":";
  AppendJsonDouble(out, shard.lock_wait_p50_ms);
  *out += ",\"lock_wait_p99_ms\":";
  AppendJsonDouble(out, shard.lock_wait_p99_ms);
  *out += ",\"queue_depth\":" + std::to_string(shard.queue_depth) + "}";
}

void AppendSloHistoryJson(std::string* out, const SloHistoryEntry& entry) {
  *out += "{\"objective\":\"" + JsonEscape(entry.objective) +
          "\",\"series\":\"" + JsonEscape(entry.series) + "\",\"samples\":[";
  for (size_t i = 0; i < entry.samples.size(); ++i) {
    if (i > 0) *out += ',';
    *out += "[" + std::to_string(entry.samples[i].t_ms) + ",";
    AppendJsonDouble(out, entry.samples[i].value);
    *out += "]";
  }
  *out += "]}";
}

void AppendWatchdogJson(std::string* out,
                        const Watchdog::ThreadStatus& status) {
  *out += "{\"name\":\"" + JsonEscape(status.name) + "\",\"armed\":";
  *out += status.armed ? "true" : "false";
  *out += ",\"stalled\":";
  *out += status.stalled ? "true" : "false";
  *out += ",\"ms_since_beat\":";
  AppendJsonDouble(out, status.ms_since_beat);
  *out += ",\"deadline_ms\":";
  AppendJsonDouble(out, status.deadline_ms);
  *out += "}";
}

}  // namespace

FlightRecorder::FlightRecorder(FlightRecorderConfig config)
    : config_(std::move(config)), epoch_(std::chrono::steady_clock::now()) {
  if (config_.health_capacity < 1) config_.health_capacity = 1;
  if (config_.trace_capacity < 1) config_.trace_capacity = 1;
  if (config_.slow_query_capacity < 1) config_.slow_query_capacity = 1;
  if (config_.event_capacity < 1) config_.event_capacity = 1;
  if (!config_.bundle_path.empty() &&
      ::access(config_.bundle_path.c_str(), F_OK) == 0) {
    // A previous incarnation left a bundle — post-mortem evidence. Move it
    // aside so this incarnation's dumps/persists never clobber it.
    const std::string preserved = config_.bundle_path + ".prev";
    if (::rename(config_.bundle_path.c_str(), preserved.c_str()) == 0) {
      previous_bundle_path_ = preserved;
    } else {
      previous_bundle_path_ = config_.bundle_path;
    }
    RecordEvent("previous bundle preserved at " + previous_bundle_path_);
  }
}

FlightRecorder::~FlightRecorder() { Stop(); }

void FlightRecorder::SetContextProvider(
    std::function<FlightContext()> provider) {
  context_provider_ = std::move(provider);
}

void FlightRecorder::RecordHealth(const HealthSnapshot& snapshot) {
  for (const SloStatus& status : snapshot.slo) {
    if (status.breached) RecordEvent(status.reason);
  }
  bool trigger = false;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    health_.push_back(snapshot);
    while (health_.size() > config_.health_capacity) health_.pop_front();
    trigger = snapshot.level == HealthLevel::kSaturated &&
              prev_level_ != HealthLevel::kSaturated;
    prev_level_ = snapshot.level;
  }
  // Dump outside the ring lock (it re-enters for the render).
  if (trigger) (void)Dump("health transition to Saturated");
}

void FlightRecorder::RecordEvictedTrace(Trace trace) {
  std::lock_guard<std::mutex> lock(mutex_);
  ++evicted_trace_total_;
  evicted_traces_.push_back(std::move(trace));
  while (evicted_traces_.size() > config_.trace_capacity) {
    evicted_traces_.pop_front();
  }
}

void FlightRecorder::RecordSlowQuery(const std::string& json_line) {
  std::lock_guard<std::mutex> lock(mutex_);
  ++slow_query_total_;
  slow_queries_.push_back(json_line);
  while (slow_queries_.size() > config_.slow_query_capacity) {
    slow_queries_.pop_front();
  }
}

void FlightRecorder::RecordEvent(const std::string& what) {
  char stamp[48];
  std::snprintf(stamp, sizeof(stamp), "t=%.1fms ", MsSince(epoch_));
  std::lock_guard<std::mutex> lock(mutex_);
  events_.push_back(stamp + what);
  while (events_.size() > config_.event_capacity) events_.pop_front();
}

std::string FlightRecorder::Render(const std::string& reason) {
  FlightContext context;
  if (context_provider_) context = context_provider_();
  const double uptime_ms = MsSince(epoch_);
  std::lock_guard<std::mutex> lock(mutex_);
  return RenderLocked(reason, uptime_ms, context);
}

std::string FlightRecorder::RenderBundle(const std::string& reason) {
  return Render(reason);
}

std::string FlightRecorder::RenderLocked(const std::string& reason,
                                         double uptime_ms,
                                         const FlightContext& context) {
  std::string out = "{\"bundle\":\"aims_flightrecord\",\"schema_version\":1,";
  out += "\"reason\":\"" + JsonEscape(reason) + "\",\"uptime_ms\":";
  AppendJsonDouble(&out, uptime_ms);
  out += ",\"dumps\":" + std::to_string(dumps_.load(std::memory_order_relaxed));
  out += ",\"persists\":" +
         std::to_string(persists_.load(std::memory_order_relaxed));
  out += ",\"previous_bundle\":";
  out += previous_bundle_path_.empty()
             ? "null"
             : "\"" + JsonEscape(previous_bundle_path_) + "\"";
  out += ",\"health\":[";
  for (size_t i = 0; i < health_.size(); ++i) {
    if (i > 0) out += ',';
    out += HealthSnapshotJson(health_[i]);
  }
  out += "],\"evicted_traces_total\":" + std::to_string(evicted_trace_total_);
  out += ",\"evicted_traces\":[";
  for (size_t i = 0; i < evicted_traces_.size(); ++i) {
    if (i > 0) out += ',';
    out += evicted_traces_[i].ToJson();
  }
  out += "],\"slow_queries_total\":" + std::to_string(slow_query_total_);
  out += ",\"slow_queries\":[";
  for (size_t i = 0; i < slow_queries_.size(); ++i) {
    if (i > 0) out += ',';
    out += slow_queries_[i];
  }
  out += "],\"events\":[";
  for (size_t i = 0; i < events_.size(); ++i) {
    if (i > 0) out += ',';
    out += '"' + JsonEscape(events_[i]) + '"';
  }
  out += "],\"wal\":";
  if (context.has_wal) {
    AppendWalJson(&out, context.wal);
  } else {
    out += "null";
  }
  out += ",\"cache\":";
  if (context.has_cache) {
    AppendCacheJson(&out, context.cache);
  } else {
    out += "null";
  }
  out += ",\"shards\":[";
  for (size_t i = 0; i < context.shards.size(); ++i) {
    if (i > 0) out += ',';
    AppendShardJson(&out, context.shards[i]);
  }
  out += "],\"watchdog\":[";
  for (size_t i = 0; i < context.watchdog.size(); ++i) {
    if (i > 0) out += ',';
    AppendWatchdogJson(&out, context.watchdog[i]);
  }
  out += "],\"slo\":[";
  for (size_t i = 0; i < context.slo.size(); ++i) {
    if (i > 0) out += ',';
    AppendSloJson(&out, context.slo[i]);
  }
  out += "],\"slo_history\":[";
  for (size_t i = 0; i < context.slo_history.size(); ++i) {
    if (i > 0) out += ',';
    AppendSloHistoryJson(&out, context.slo_history[i]);
  }
  out += "]}";
  return out;
}

Status FlightRecorder::WriteBundleFile(const std::string& json) {
  // Dumps and periodic persists share one tmp path; serialize them.
  std::lock_guard<std::mutex> lock(write_mutex_);
  return WriteFileDurably(config_.bundle_path, json);
}

Result<std::string> FlightRecorder::Dump(const std::string& reason) {
  RecordEvent("dump: " + reason);
  const std::string json = Render(reason);
  dumps_.fetch_add(1, std::memory_order_relaxed);
  if (config_.bundle_path.empty()) return std::string();
  AIMS_RETURN_NOT_OK(WriteBundleFile(json));
  return config_.bundle_path;
}

void FlightRecorder::Start() {
  if (config_.bundle_path.empty()) return;
  persist_loop_.Start(config_.persist_interval_ms, [this] {
    (void)WriteBundleFile(Render("periodic persist"));
    persists_.fetch_add(1, std::memory_order_relaxed);
  });
}

void FlightRecorder::Stop() {
  if (!persist_loop_.Stop()) return;
  // One final persist: the black box's last written state covers the
  // shutdown itself.
  (void)WriteBundleFile(Render("shutdown"));
  persists_.fetch_add(1, std::memory_order_relaxed);
}

bool FlightRecorder::running() const { return persist_loop_.running(); }

size_t FlightRecorder::health_retained() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return health_.size();
}

size_t FlightRecorder::traces_retained() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return evicted_traces_.size();
}

size_t FlightRecorder::slow_queries_retained() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return slow_queries_.size();
}

}  // namespace aims::obs
