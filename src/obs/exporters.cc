#include "obs/exporters.h"

#include <algorithm>
#include <chrono>
#include <cstdio>

#include "obs/json_util.h"
#include "obs/timeseries.h"

// Configure-time identity; the build system defines both. Fallbacks keep
// ad-hoc compiles (and IDE indexers) working.
#ifndef AIMS_VERSION_STRING
#define AIMS_VERSION_STRING "unknown"
#endif
#ifndef AIMS_GIT_SHA_STRING
#define AIMS_GIT_SHA_STRING "unknown"
#endif

namespace aims::obs {

namespace {

// Static-initialized at obs load: process start for uptime purposes.
const std::chrono::steady_clock::time_point kProcessEpoch =
    std::chrono::steady_clock::now();

}  // namespace

const char* BuildVersion() { return AIMS_VERSION_STRING; }

const char* BuildGitSha() { return AIMS_GIT_SHA_STRING; }

double ProcessUptimeSeconds() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       kProcessEpoch)
      .count();
}

namespace {

void AppendHistogram(std::string* out, const std::string& name,
                     const Histogram& h) {
  *out += "# TYPE " + name + " histogram\n";
  uint64_t cumulative = 0;
  const std::vector<double>& bounds = h.upper_bounds();
  for (size_t i = 0; i < h.num_buckets(); ++i) {
    cumulative += h.bucket_count(i);
    std::string le =
        i < bounds.size() ? TrimmedDouble(bounds[i]) : std::string("+Inf");
    *out += name + "_bucket{le=\"" + le + "\"} " + std::to_string(cumulative) +
            "\n";
  }
  *out += name + "_sum " + TrimmedDouble(h.sum()) + "\n";
  *out += name + "_count " + std::to_string(h.count()) + "\n";
  // Companion quantile gauges: Prometheus histograms carry no quantiles of
  // their own, and AIMS dashboards want p50/p95/p99 without a query layer.
  *out += "# TYPE " + name + "_quantile gauge\n";
  for (double q : {0.5, 0.95, 0.99}) {
    *out += name + "_quantile{quantile=\"" + TrimmedDouble(q) + "\"} " +
            TrimmedDouble(h.ApproxQuantile(q)) + "\n";
  }
}

}  // namespace

std::string PrometheusName(const std::string& name) {
  std::string out = "aims_";
  for (char c : name) {
    bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
              (c >= '0' && c <= '9') || c == '_';
    out += ok ? c : '_';
  }
  return out;
}

std::string PrometheusExport(const MetricsRegistry& registry) {
  std::string out;
  // Identity first: every scrape says what binary produced it and for how
  // long it has been up, before any registry content.
  out += "# TYPE aims_build_info gauge\n";
  out += std::string("aims_build_info{version=\"") + BuildVersion() +
         "\",git_sha=\"" + BuildGitSha() + "\"} 1\n";
  out += "# TYPE aims_uptime_seconds gauge\n";
  out += "aims_uptime_seconds " + TrimmedDouble(ProcessUptimeSeconds()) + "\n";
  // Process resource prologue, self-sampled from /proc/self: absent (not
  // zero) on platforms without it, so a missing series means "can't know"
  // rather than "idle".
  const ProcessStats process = ReadProcessStats();
  if (process.ok) {
    out += "# TYPE aims_process_rss_bytes gauge\n";
    out += "aims_process_rss_bytes " + std::to_string(process.rss_bytes) +
           "\n";
    out += "# TYPE aims_process_open_fds gauge\n";
    out += "aims_process_open_fds " + std::to_string(process.open_fds) + "\n";
    out += "# TYPE aims_process_cpu_seconds_total counter\n";
    out += "aims_process_cpu_seconds_total " +
           TrimmedDouble(process.cpu_seconds) + "\n";
  }
  for (const auto& [name, c] : registry.Counters()) {
    std::string prom = PrometheusName(name);
    out += "# TYPE " + prom + " counter\n";
    out += prom + " " + std::to_string(c->value()) + "\n";
  }
  for (const auto& [name, g] : registry.Gauges()) {
    std::string prom = PrometheusName(name);
    out += "# TYPE " + prom + " gauge\n";
    out += prom + " " + std::to_string(g->value()) + "\n";
    out += "# TYPE " + prom + "_max gauge\n";
    out += prom + "_max " + std::to_string(g->max()) + "\n";
  }
  const auto histograms = registry.Histograms();
  for (const auto& [name, h] : histograms) {
    AppendHistogram(&out, PrometheusName(name), *h);
  }
  // Overflow accounting, family-major after all histograms: how many
  // observations landed past each histogram's last finite bound, where the
  // companion quantile gauges clamp instead of interpolating.
  if (!histograms.empty()) {
    out += "# TYPE aims_histogram_overflow_total counter\n";
    for (const auto& [name, h] : histograms) {
      out += "aims_histogram_overflow_total{histogram=\"" +
             PrometheusName(name) + "\"} " +
             std::to_string(h->overflow_count()) + "\n";
    }
  }
  return out;
}

namespace {

void AppendTracerFamily(std::string* out, const Tracer& tracer) {
  *out += "# TYPE aims_tracer_traces_recorded_total counter\n";
  *out += "aims_tracer_traces_recorded_total " +
          std::to_string(tracer.total_recorded()) + "\n";
  *out += "# TYPE aims_tracer_traces_dropped_total counter\n";
  *out += "aims_tracer_traces_dropped_total " +
          std::to_string(tracer.dropped()) + "\n";
  *out += "# TYPE aims_tracer_traces_retained gauge\n";
  *out += "aims_tracer_traces_retained " + std::to_string(tracer.retained()) +
          "\n";
  *out += "# TYPE aims_tracer_oldest_trace_age_ms gauge\n";
  *out += "aims_tracer_oldest_trace_age_ms " +
          TrimmedDouble(tracer.OldestRetainedAgeMs()) + "\n";
}

void AppendTenantFamily(std::string* out, const CostLedger& ledger) {
  const auto tenants = ledger.Snapshot();
  // One labelled series per tenant per dimension, family-major so each
  // family gets exactly one # TYPE header.
  struct UintDim {
    const char* name;
    uint64_t TenantUsage::* field;
  };
  static constexpr UintDim kUintDims[] = {
      {"aims_tenant_cpu_ns_total", &TenantUsage::cpu_ns},
      {"aims_tenant_blocks_read_total", &TenantUsage::blocks_read},
      {"aims_tenant_blocks_written_total", &TenantUsage::blocks_written},
      {"aims_tenant_bytes_read_total", &TenantUsage::bytes_read},
      {"aims_tenant_bytes_written_total", &TenantUsage::bytes_written},
      {"aims_tenant_queries_total", &TenantUsage::queries},
      {"aims_tenant_ingests_total", &TenantUsage::ingests},
      {"aims_tenant_stream_batches_total", &TenantUsage::stream_batches},
      {"aims_tenant_slow_queries_total", &TenantUsage::slow_queries},
      {"aims_tenant_rejected_total", &TenantUsage::rejected},
  };
  for (const UintDim& dim : kUintDims) {
    *out += std::string("# TYPE ") + dim.name + " counter\n";
    for (const auto& [tenant, usage] : tenants) {
      *out += std::string(dim.name) + "{tenant=\"" + std::to_string(tenant) +
              "\"} " + std::to_string(usage.*dim.field) + "\n";
    }
  }
  *out += "# TYPE aims_tenant_queue_ms_total counter\n";
  for (const auto& [tenant, usage] : tenants) {
    *out += "aims_tenant_queue_ms_total{tenant=\"" + std::to_string(tenant) +
            "\"} " + TrimmedDouble(usage.queue_ms) + "\n";
  }
}

void AppendCacheFamily(std::string* out, const CacheStats& cache) {
  struct Dim {
    const char* name;
    const char* type;
    uint64_t CacheStats::* field;
  };
  static constexpr Dim kDims[] = {
      {"aims_cache_hits_total", "counter", &CacheStats::hits},
      {"aims_cache_misses_total", "counter", &CacheStats::misses},
      {"aims_cache_evictions_total", "counter", &CacheStats::evictions},
      {"aims_cache_invalidations_total", "counter",
       &CacheStats::invalidations},
      {"aims_cache_insertions_total", "counter", &CacheStats::insertions},
      {"aims_cache_bytes", "gauge", &CacheStats::bytes_cached},
      {"aims_cache_blocks", "gauge", &CacheStats::blocks_cached},
      {"aims_cache_capacity_bytes", "gauge", &CacheStats::capacity_bytes},
  };
  for (const Dim& dim : kDims) {
    *out += std::string("# TYPE ") + dim.name + " " + dim.type + "\n";
    *out += std::string(dim.name) + " " + std::to_string(cache.*dim.field) +
            "\n";
  }
}

void AppendWalFamily(std::string* out, const WalStats& wal) {
  struct Dim {
    const char* name;
    const char* type;
    uint64_t WalStats::* field;
  };
  // The recovery trio are gauges, not counters: they describe the LAST
  // recovery-on-open, resetting at each open rather than accumulating.
  static constexpr Dim kDims[] = {
      {"aims_wal_records_total", "counter", &WalStats::records},
      {"aims_wal_commits_total", "counter", &WalStats::commits},
      {"aims_wal_syncs_total", "counter", &WalStats::syncs},
      {"aims_wal_max_commits_per_sync", "gauge",
       &WalStats::max_commits_per_sync},
      {"aims_wal_bytes_appended_total", "counter", &WalStats::bytes_appended},
      {"aims_wal_lag_bytes", "gauge", &WalStats::lag_bytes},
      {"aims_wal_checkpoints_total", "counter", &WalStats::checkpoints},
      {"aims_wal_recovered_txns", "gauge", &WalStats::recovered_txns},
      {"aims_wal_recovered_records", "gauge", &WalStats::recovered_records},
      {"aims_wal_discarded_bytes", "gauge", &WalStats::discarded_bytes},
  };
  for (const Dim& dim : kDims) {
    *out += std::string("# TYPE ") + dim.name + " " + dim.type + "\n";
    *out += std::string(dim.name) + " " + std::to_string(wal.*dim.field) +
            "\n";
  }
}

void AppendShardFamily(std::string* out,
                       const std::vector<ShardStatsEntry>& shards) {
  // One labelled series per shard per probe, family-major like the tenant
  // family so each family gets exactly one # TYPE header.
  struct UintDim {
    const char* name;
    const char* type;
    uint64_t ShardStatsEntry::* field;
  };
  static constexpr UintDim kUintDims[] = {
      {"aims_shard_sessions", "gauge", &ShardStatsEntry::sessions},
      {"aims_shard_tenants", "gauge", &ShardStatsEntry::tenants},
      {"aims_shard_ingests_total", "counter", &ShardStatsEntry::ingests},
      {"aims_shard_queries_total", "counter", &ShardStatsEntry::queries},
      {"aims_shard_wal_lag_bytes", "gauge", &ShardStatsEntry::wal_lag_bytes},
  };
  for (const UintDim& dim : kUintDims) {
    *out += std::string("# TYPE ") + dim.name + " " + dim.type + "\n";
    for (const ShardStatsEntry& s : shards) {
      *out += std::string(dim.name) + "{shard=\"" + std::to_string(s.shard) +
              "\"} " + std::to_string(s.*dim.field) + "\n";
    }
  }
  struct DoubleDim {
    const char* name;
    double ShardStatsEntry::* field;
  };
  static constexpr DoubleDim kDoubleDims[] = {
      {"aims_shard_lock_wait_p50_ms", &ShardStatsEntry::lock_wait_p50_ms},
      {"aims_shard_lock_wait_p99_ms", &ShardStatsEntry::lock_wait_p99_ms},
  };
  for (const DoubleDim& dim : kDoubleDims) {
    *out += std::string("# TYPE ") + dim.name + " gauge\n";
    for (const ShardStatsEntry& s : shards) {
      *out += std::string(dim.name) + "{shard=\"" + std::to_string(s.shard) +
              "\"} " + TrimmedDouble(s.*dim.field) + "\n";
    }
  }
  *out += "# TYPE aims_shard_queue_depth gauge\n";
  for (const ShardStatsEntry& s : shards) {
    *out += "aims_shard_queue_depth{shard=\"" + std::to_string(s.shard) +
            "\"} " + std::to_string(s.queue_depth) + "\n";
  }
}

}  // namespace

std::string PrometheusExport(const MetricsRegistry& registry,
                             const Tracer* tracer, const CostLedger* ledger,
                             const CacheStats* cache, const WalStats* wal,
                             const std::vector<ShardStatsEntry>* shards,
                             const std::vector<SloStatus>* slo) {
  std::string out = PrometheusExport(registry);
  if (tracer != nullptr) AppendTracerFamily(&out, *tracer);
  if (ledger != nullptr) AppendTenantFamily(&out, *ledger);
  if (cache != nullptr) AppendCacheFamily(&out, *cache);
  if (wal != nullptr) AppendWalFamily(&out, *wal);
  if (shards != nullptr) AppendShardFamily(&out, *shards);
  if (slo != nullptr) AppendSloFamily(&out, *slo);
  return out;
}

std::string ChromeTraceExport(const Tracer& tracer) {
  std::vector<Trace> traces = tracer.Snapshot();
  std::string out = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  if (traces.empty()) {
    out += "]}";
    return out;
  }
  // One absolute timeline: offsets are measured from the earliest retained
  // trace's epoch, so concurrent requests overlap the way they really did.
  auto base = traces.front().epoch();
  for (const Trace& trace : traces) base = std::min(base, trace.epoch());

  bool first = true;
  char buf[64];
  auto append_event = [&](const std::string& event) {
    if (!first) out += ',';
    first = false;
    out += event;
  };
  for (const Trace& trace : traces) {
    const double trace_offset_us =
        std::chrono::duration<double, std::micro>(trace.epoch() - base).count();
    std::string label = trace.label().empty()
                            ? "request " + std::to_string(trace.request_id())
                            : trace.label();
    append_event("{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":" +
                 std::to_string(trace.request_id()) +
                 ",\"args\":{\"name\":\"" + JsonEscape(label) + "\"}}");
    for (const TraceSpan& span : trace.spans()) {
      double ts_us = trace_offset_us + span.start_ms * 1000.0;
      double dur_us = std::max(span.end_ms - span.start_ms, 0.0) * 1000.0;
      std::string event = "{\"name\":\"";
      event += span.name;  // a stage name: nothing to escape
      event += "\",\"cat\":\"aims\",\"ph\":\"X\",\"ts\":";
      std::snprintf(buf, sizeof(buf), "%.3f", ts_us);
      event += buf;
      event += ",\"dur\":";
      std::snprintf(buf, sizeof(buf), "%.3f", dur_us);
      event += buf;
      event += ",\"pid\":1,\"tid\":" + std::to_string(trace.request_id()) +
               ",\"args\":{\"span_id\":" + std::to_string(span.id) +
               ",\"parent_id\":" + std::to_string(span.parent_id) +
               ",\"request_id\":" + std::to_string(trace.request_id()) + "}}";
      append_event(event);
    }
  }
  out += "]}";
  return out;
}

}  // namespace aims::obs
