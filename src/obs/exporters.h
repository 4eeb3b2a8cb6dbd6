#pragma once

#include <string>

#include <vector>

#include "obs/cache_stats.h"
#include "obs/cost_ledger.h"
#include "obs/metrics.h"
#include "obs/shard_stats.h"
#include "obs/slo.h"
#include "obs/tracer.h"
#include "obs/wal_stats.h"

/// \file exporters.h
/// \brief Standard-format exporters over the obs primitives, so AIMS dumps
/// plug into existing tooling instead of needing bespoke parsers:
///
///   * PrometheusExport — the Prometheus text exposition format for a
///     MetricsRegistry: counters, gauges (level + high-water mark),
///     histograms as cumulative `_bucket{le=...}` series with `_sum` /
///     `_count`, plus companion `_quantile{quantile=...}` gauges carrying
///     p50/p95/p99 interpolated from the fixed buckets, since AIMS
///     histograms are bucketed, not sampled.
///   * ChromeTraceExport — Chrome `trace_event` JSON ("X" complete events)
///     from a Tracer, loadable directly in Perfetto / chrome://tracing.
///     Each request becomes its own named track (tid = request id) and
///     span nesting follows the parent/child ids recorded in the trace.

namespace aims::obs {

/// \brief Version baked in at configure time (CMake project VERSION), or
/// "unknown" outside the CMake build.
const char* BuildVersion();
/// \brief Abbreviated git commit baked in at configure time, or "unknown"
/// when the build happened outside a git checkout.
const char* BuildGitSha();
/// \brief Seconds since this process's obs library was initialized —
/// the `aims_uptime_seconds` gauge. Monotonic (steady clock).
double ProcessUptimeSeconds();

/// \brief Prometheus text exposition of every registered metric, in the
/// registry's stable name-sorted order. Metric names are sanitized
/// (non-alphanumeric -> '_') and prefixed "aims_". The exposition leads
/// with the `aims_build_info{version,git_sha}` identity series, the
/// `aims_uptime_seconds` gauge, and (where /proc/self is readable) the
/// self-sampled `aims_process_rss_bytes` / `aims_process_open_fds` /
/// `aims_process_cpu_seconds_total` resource series, so every scrape is
/// self-identifying and self-describing. After the histograms it appends
/// `aims_histogram_overflow_total{histogram=...}`, counting observations
/// past each histogram's last finite bound (where quantile gauges clamp).
std::string PrometheusExport(const MetricsRegistry& registry);

/// \brief Extended exposition: the registry as above, then (when non-null)
/// the tracer's ring health as `aims_tracer_*` — recorded/dropped totals,
/// retained count, and the oldest retained trace's age, so dashboards can
/// see the trace window's actual coverage, not just that eviction happened
/// — and the cost ledger as the `aims_tenant_*` family, one
/// `{tenant="<id>"}` labelled series per tenant per cost dimension — and
/// a block-cache snapshot (e.g. ShardedCatalog::TotalCacheStats()) as the
/// `aims_cache_*` family: hit/miss/eviction/invalidation/insertion
/// counters plus resident-bytes/blocks and capacity gauges — and a WAL
/// snapshot (e.g. ShardedCatalog::TotalWalStats()) as the `aims_wal_*`
/// family: record/commit/sync/checkpoint counters, the group-commit
/// batch-size high-water mark, the current lag in bytes, and the last
/// recovery's replay/discard accounting — and per-shard health probes
/// (e.g. ShardedCatalog::ShardStats()) as the `aims_shard_*` family, one
/// `{shard="<i>"}` labelled series per shard per probe: session/tenant
/// placement, ingest/query totals, lock-wait p50/p99, WAL lag, and queue
/// depth — and the latest SLO judgements (e.g. HealthSnapshot::slo) as the
/// `aims_slo_*` family: objective, fast/slow burn rates, and the 0/1
/// burning flag, one `{objective="<name>"}` labelled series each.
std::string PrometheusExport(const MetricsRegistry& registry,
                             const Tracer* tracer,
                             const CostLedger* ledger = nullptr,
                             const CacheStats* cache = nullptr,
                             const WalStats* wal = nullptr,
                             const std::vector<ShardStatsEntry>* shards =
                                 nullptr,
                             const std::vector<SloStatus>* slo = nullptr);

/// \brief One Prometheus-sanitized metric name: "span.query_ms" ->
/// "aims_span_query_ms". Exposed for tests and dashboards.
std::string PrometheusName(const std::string& name);

/// \brief Chrome trace_event JSON for every trace the tracer retains:
/// {"displayTimeUnit":"ms","traceEvents":[...]}. Timestamps are in
/// microseconds relative to the earliest retained trace, so concurrent
/// requests line up on one absolute timeline. Each span becomes a complete
/// ("ph":"X") event with its span id/parent id in "args"; each request
/// gets a thread-name metadata event carrying the trace label.
std::string ChromeTraceExport(const Tracer& tracer);

}  // namespace aims::obs
