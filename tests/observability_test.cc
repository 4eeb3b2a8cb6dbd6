#include <algorithm>
#include <chrono>
#include <cmath>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "obs/exporters.h"
#include "obs/metrics.h"
#include "obs/stats_reporter.h"
#include "obs/tracer.h"
#include "server/server.h"
#include "test_util.h"

/// \file observability_test.cc
/// \brief The aims::obs contracts: the Prometheus export matches its golden
/// file byte for byte and exposes interpolated quantiles for every
/// registered histogram; the Chrome trace export is syntactically valid
/// trace_event JSON with correctly nested complete events; the tracer ring
/// buffer evicts oldest-first and counts its drops; one SubmitQuery, one
/// IngestRecording, and one StreamSamples each produce exactly one
/// end-to-end trace whose spans nest under a single root; and the
/// StatsReporter derives rates and health levels from the registry, both on
/// demand and from its background thread (run with -DAIMS_SANITIZE=thread
/// to check the reporter against live traffic).

namespace aims::obs {
namespace {

// ---- Minimal JSON syntax checker ------------------------------------------
// The exporters hand-build JSON; this recursive-descent validator rejects
// unbalanced braces, bad escapes, and malformed numbers without needing a
// JSON library in the image.

class JsonChecker {
 public:
  explicit JsonChecker(const std::string& text) : text_(text) {}

  bool Valid() {
    SkipWs();
    if (!Value()) return false;
    SkipWs();
    return pos_ == text_.size();
  }

 private:
  void SkipWs() {
    while (pos_ < text_.size() && (text_[pos_] == ' ' || text_[pos_] == '\n' ||
                                   text_[pos_] == '\t' || text_[pos_] == '\r')) {
      ++pos_;
    }
  }
  bool Literal(const char* word) {
    size_t len = std::string(word).size();
    if (text_.compare(pos_, len, word) != 0) return false;
    pos_ += len;
    return true;
  }
  bool String() {
    if (text_[pos_] != '"') return false;
    ++pos_;
    while (pos_ < text_.size() && text_[pos_] != '"') {
      if (text_[pos_] == '\\') {
        ++pos_;
        if (pos_ >= text_.size()) return false;
      }
      ++pos_;
    }
    if (pos_ >= text_.size()) return false;
    ++pos_;  // closing quote
    return true;
  }
  bool Number() {
    size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-')) {
      ++pos_;
    }
    return pos_ > start;
  }
  bool Value() {
    if (pos_ >= text_.size()) return false;
    char c = text_[pos_];
    if (c == '{') return Object();
    if (c == '[') return Array();
    if (c == '"') return String();
    if (c == 't') return Literal("true");
    if (c == 'f') return Literal("false");
    if (c == 'n') return Literal("null");
    return Number();
  }
  bool Object() {
    ++pos_;  // '{'
    SkipWs();
    if (pos_ < text_.size() && text_[pos_] == '}') {
      ++pos_;
      return true;
    }
    while (true) {
      SkipWs();
      if (!String()) return false;
      SkipWs();
      if (pos_ >= text_.size() || text_[pos_] != ':') return false;
      ++pos_;
      SkipWs();
      if (!Value()) return false;
      SkipWs();
      if (pos_ >= text_.size()) return false;
      if (text_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (text_[pos_] == '}') {
        ++pos_;
        return true;
      }
      return false;
    }
  }
  bool Array() {
    ++pos_;  // '['
    SkipWs();
    if (pos_ < text_.size() && text_[pos_] == ']') {
      ++pos_;
      return true;
    }
    while (true) {
      SkipWs();
      if (!Value()) return false;
      SkipWs();
      if (pos_ >= text_.size()) return false;
      if (text_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (text_[pos_] == ']') {
        ++pos_;
        return true;
      }
      return false;
    }
  }

  const std::string& text_;
  size_t pos_ = 0;
};

size_t CountOccurrences(const std::string& haystack, const std::string& needle) {
  size_t count = 0;
  for (size_t pos = haystack.find(needle); pos != std::string::npos;
       pos = haystack.find(needle, pos + needle.size())) {
    ++count;
  }
  return count;
}

const TraceSpan* FindSpan(const Trace& trace, const std::string& name) {
  for (const TraceSpan& span : trace.spans()) {
    if (span.name == name) return &span;
  }
  return nullptr;
}

size_t CountSpans(const Trace& trace, const std::string& name) {
  size_t count = 0;
  for (const TraceSpan& span : trace.spans()) {
    if (span.name == name) ++count;
  }
  return count;
}

// ---- MetricsRegistry ------------------------------------------------------

TEST(MetricsRegistryTest, DumpTextIsNameSortedAcrossKinds) {
  MetricsRegistry registry;
  // Register deliberately out of name order and across kinds.
  registry.GetHistogram("zeta.lat", {1.0, 2.0})->Record(0.5);
  registry.GetCounter("beta.count")->Increment(2);
  registry.GetGauge("alpha.depth")->AddTracked(3);
  registry.GetCounter("alpha.count")->Increment();

  std::string dump = registry.DumpText();
  size_t a_count = dump.find("counter alpha.count 1");
  size_t a_depth = dump.find("gauge alpha.depth 3 max 3");
  size_t b_count = dump.find("counter beta.count 2");
  size_t z_lat = dump.find("histogram zeta.lat");
  ASSERT_NE(a_count, std::string::npos);
  ASSERT_NE(a_depth, std::string::npos);
  ASSERT_NE(b_count, std::string::npos);
  ASSERT_NE(z_lat, std::string::npos);
  // One global name-sorted order, regardless of metric kind.
  EXPECT_LT(a_count, a_depth);
  EXPECT_LT(a_depth, b_count);
  EXPECT_LT(b_count, z_lat);
  // Stable: a second dump is identical.
  EXPECT_EQ(dump, registry.DumpText());
}

TEST(MetricsRegistryTest, ResetZeroesEverythingButKeepsPointersValid) {
  MetricsRegistry registry;
  Counter* c = registry.GetCounter("c");
  Gauge* g = registry.GetGauge("g");
  Histogram* h = registry.GetHistogram("h", {1.0});
  c->Increment(5);
  g->AddTracked(7);
  h->Record(0.5);

  registry.Reset();
  EXPECT_EQ(c->value(), 0u);
  EXPECT_EQ(g->value(), 0);
  EXPECT_EQ(g->max(), 0);
  EXPECT_EQ(h->count(), 0u);
  EXPECT_EQ(h->sum(), 0.0);
  // The registered objects survive a Reset: old pointers keep recording.
  c->Increment();
  EXPECT_EQ(registry.GetCounter("c")->value(), 1u);
}

// ---- Prometheus export ----------------------------------------------------

// The identity prologue varies per build (version/git sha) and per call
// (uptime, process RSS/fds/CPU); pin those values to placeholders so golden
// and prefix comparisons stay exact without freezing the build identity or
// the process's live resource usage in the test.
std::string NormalizeIdentity(std::string out) {
  const std::string kInfo = "aims_build_info{";
  size_t start = out.find(kInfo);
  if (start != std::string::npos) {
    size_t end = out.find('\n', start);
    out.replace(start, end - start,
                "aims_build_info{version=\"<version>\",git_sha=\"<git_sha>\"}"
                " 1");
  }
  auto mask_value = [&out](const std::string& series,
                           const std::string& placeholder) {
    const std::string key = "\n" + series + " ";
    size_t value = out.find(key);
    if (value == std::string::npos) return;
    value += key.size();
    size_t end = out.find('\n', value);
    out.replace(value, end - value, placeholder);
  };
  mask_value("aims_uptime_seconds", "<uptime>");
  mask_value("aims_process_rss_bytes", "<rss>");
  mask_value("aims_process_open_fds", "<fds>");
  mask_value("aims_process_cpu_seconds_total", "<cpu>");
  return out;
}

TEST(PrometheusExportTest, ExpositionLeadsWithBuildIdentityAndUptime) {
  MetricsRegistry registry;
  const std::string out = PrometheusExport(registry);
  // The identity series come first, so every scrape is self-identifying
  // even from an empty registry.
  EXPECT_EQ(out.rfind("# TYPE aims_build_info gauge\naims_build_info{", 0), 0u)
      << out;
  EXPECT_NE(out.find("# TYPE aims_uptime_seconds gauge\naims_uptime_seconds "),
            std::string::npos);
  EXPECT_NE(out.find("version=\"" + std::string(BuildVersion()) + "\""),
            std::string::npos);
  EXPECT_NE(out.find("git_sha=\"" + std::string(BuildGitSha()) + "\""),
            std::string::npos);
  EXPECT_GE(ProcessUptimeSeconds(), 0.0);
}

TEST(PrometheusExportTest, MatchesGoldenFile) {
  MetricsRegistry registry;
  registry.GetCounter("demo.requests")->Increment(42);
  Gauge* depth = registry.GetGauge("demo.queue_depth");
  depth->AddTracked(3);
  depth->AddTracked(2);
  depth->AddTracked(-1);
  Histogram* latency =
      registry.GetHistogram("demo.latency_ms", {1.0, 2.0, 4.0, 8.0});
  for (double v : {0.5, 1.5, 1.5, 3.0, 6.0, 20.0}) latency->Record(v);

  std::ifstream golden(std::string(AIMS_TEST_DATA_DIR) +
                       "/prometheus_golden.txt");
  ASSERT_TRUE(golden.good()) << "missing tests/testdata/prometheus_golden.txt";
  std::stringstream expected;
  expected << golden.rdbuf();
  EXPECT_EQ(NormalizeIdentity(PrometheusExport(registry)), expected.str());
}

TEST(PrometheusExportTest, NameSanitization) {
  EXPECT_EQ(PrometheusName("span.query_ms"), "aims_span_query_ms");
  EXPECT_EQ(PrometheusName("a-b c/d"), "aims_a_b_c_d");
}

TEST(PrometheusExportTest, EveryRegisteredHistogramExposesQuantiles) {
  MetricsRegistry registry;
  registry.GetHistogram("one.ms", MetricsRegistry::DefaultLatencyBoundsMs())
      ->Record(1.0);
  registry.GetHistogram("two.ms", MetricsRegistry::DefaultProfileBoundsMs());

  std::string out = PrometheusExport(registry);
  for (const auto& [name, hist] : registry.Histograms()) {
    (void)hist;
    std::string prom = PrometheusName(name);
    for (const char* q : {"0.5", "0.95", "0.99"}) {
      EXPECT_NE(out.find(prom + "_quantile{quantile=\"" + q + "\"} "),
                std::string::npos)
          << prom << " lacks p" << q;
    }
    EXPECT_NE(out.find(prom + "_bucket{le=\"+Inf\"} "), std::string::npos);
    EXPECT_NE(out.find(prom + "_sum "), std::string::npos);
    EXPECT_NE(out.find(prom + "_count "), std::string::npos);
  }
}

TEST(PrometheusExportTest, ExtendedOverloadEmitsTracerAndTenantFamilies) {
  MetricsRegistry registry;
  registry.GetCounter("demo.requests")->Increment(1);

  Tracer tracer(2);
  for (uint64_t i = 1; i <= 3; ++i) tracer.Record(Trace(i));  // one evicted

  CostLedger ledger;
  TenantLedger* tenant = ledger.ForTenant(7);
  tenant->ChargeCpuNs(1234);
  tenant->ChargeRead(4, 2048);
  tenant->ChargeQueueMs(2.5);
  tenant->CountQuery();

  const std::string base = NormalizeIdentity(PrometheusExport(registry));
  const std::string out =
      NormalizeIdentity(PrometheusExport(registry, &tracer, &ledger));

  // The single-arg export (pinned by the golden file) stays untouched; the
  // extended overload appends the new families after it.
  EXPECT_EQ(out.compare(0, base.size(), base), 0);

  // Tracer family, including the trace-window coverage gauge that makes
  // ring eviction visible: operators can tell how far back traces reach.
  EXPECT_NE(out.find("aims_tracer_traces_recorded_total 3"), std::string::npos);
  EXPECT_NE(out.find("aims_tracer_traces_dropped_total 1"), std::string::npos);
  EXPECT_NE(out.find("aims_tracer_traces_retained 2"), std::string::npos);
  EXPECT_NE(out.find("aims_tracer_oldest_trace_age_ms "), std::string::npos);

  // Tenant family: one labelled sample per tenant per dimension.
  EXPECT_NE(out.find("aims_tenant_cpu_ns_total{tenant=\"7\"} 1234"),
            std::string::npos);
  EXPECT_NE(out.find("aims_tenant_blocks_read_total{tenant=\"7\"} 4"),
            std::string::npos);
  EXPECT_NE(out.find("aims_tenant_bytes_read_total{tenant=\"7\"} 2048"),
            std::string::npos);
  EXPECT_NE(out.find("aims_tenant_queries_total{tenant=\"7\"} 1"),
            std::string::npos);
  EXPECT_NE(out.find("aims_tenant_queue_ms_total{tenant=\"7\"} 2.5"),
            std::string::npos);

  // Null extras degrade to the base export exactly.
  EXPECT_EQ(NormalizeIdentity(PrometheusExport(registry, nullptr, nullptr)),
            base);
}

TEST(PrometheusExportTest, CacheFamilyExportsCountersAndGauges) {
  MetricsRegistry registry;
  CacheStats cache;
  cache.hits = 90;
  cache.misses = 10;
  cache.evictions = 3;
  cache.invalidations = 2;
  cache.insertions = 10;
  cache.bytes_cached = 4096;
  cache.blocks_cached = 8;
  cache.capacity_bytes = 8192;

  const std::string base = NormalizeIdentity(PrometheusExport(registry));
  const std::string out =
      NormalizeIdentity(PrometheusExport(registry, nullptr, nullptr, &cache));
  EXPECT_EQ(out.compare(0, base.size(), base), 0);

  EXPECT_NE(out.find("# TYPE aims_cache_hits_total counter\n"
                     "aims_cache_hits_total 90"),
            std::string::npos);
  EXPECT_NE(out.find("aims_cache_misses_total 10"), std::string::npos);
  EXPECT_NE(out.find("aims_cache_evictions_total 3"), std::string::npos);
  EXPECT_NE(out.find("aims_cache_invalidations_total 2"), std::string::npos);
  EXPECT_NE(out.find("aims_cache_insertions_total 10"), std::string::npos);
  EXPECT_NE(out.find("# TYPE aims_cache_bytes gauge\n"
                     "aims_cache_bytes 4096"),
            std::string::npos);
  EXPECT_NE(out.find("aims_cache_blocks 8"), std::string::npos);
  EXPECT_NE(out.find("aims_cache_capacity_bytes 8192"), std::string::npos);

  // A null cache leaves the export without the family at all.
  EXPECT_EQ(PrometheusExport(registry, nullptr, nullptr, nullptr).find(
                "aims_cache_"),
            std::string::npos);
}

TEST(CacheStatsTest, AccumulateAndHitRate) {
  CacheStats a;
  a.hits = 3;
  a.misses = 1;
  a.bytes_cached = 100;
  CacheStats b;
  b.hits = 1;
  b.misses = 3;
  b.blocks_cached = 2;
  a.Accumulate(b);
  EXPECT_EQ(a.hits, 4u);
  EXPECT_EQ(a.misses, 4u);
  EXPECT_EQ(a.bytes_cached, 100u);
  EXPECT_EQ(a.blocks_cached, 2u);
  EXPECT_DOUBLE_EQ(a.HitRate(), 0.5);
  EXPECT_DOUBLE_EQ(CacheStats{}.HitRate(), 0.0) << "no accesses, no rate";
}

TEST(PrometheusExportTest, QuantilesInterpolateWithinBuckets) {
  MetricsRegistry registry;
  Histogram* h = registry.GetHistogram("h", {10.0, 20.0});
  // 100 observations spread evenly through the (10, 20] bucket: p50 should
  // interpolate to the middle of the bucket, not snap to an edge.
  for (int i = 0; i < 100; ++i) h->Record(15.0);
  double p50 = h->ApproxQuantile(0.5);
  EXPECT_GT(p50, 10.0);
  EXPECT_LT(p50, 20.0);
}

// ---- Chrome trace export --------------------------------------------------

TEST(ChromeTraceExportTest, EmitsValidJsonWithCompleteEvents) {
  Tracer tracer(8);
  Trace trace(tracer.NextRequestId());
  trace.set_label("test \"quoted\" request");
  size_t root = trace.BeginSpan(Stage::kQuery);
  size_t child = trace.BeginSpan(Stage::kRefinement);
  trace.AddMarker(Stage::kBlockIo);
  trace.EndSpan(child);
  trace.EndSpan(root);
  tracer.Record(std::move(trace));

  std::string json = ChromeTraceExport(tracer);
  JsonChecker checker(json);
  EXPECT_TRUE(checker.Valid()) << json;
  EXPECT_EQ(json.find("{\"displayTimeUnit\":\"ms\",\"traceEvents\":["), 0u);
  // One complete ("X") event per span, one metadata ("M") event per trace.
  EXPECT_EQ(CountOccurrences(json, "\"ph\":\"X\""), 3u);
  EXPECT_EQ(CountOccurrences(json, "\"ph\":\"M\""), 1u);
  // Every complete event carries ts / dur / pid / tid and the span ids.
  EXPECT_EQ(CountOccurrences(json, "\"ts\":"), 3u);
  EXPECT_EQ(CountOccurrences(json, "\"dur\":"), 3u);
  EXPECT_EQ(CountOccurrences(json, "\"span_id\":"), 3u);
  EXPECT_EQ(CountOccurrences(json, "\"parent_id\":"), 3u);
  // The label survives JSON escaping.
  EXPECT_NE(json.find("test \\\"quoted\\\" request"), std::string::npos);
}

TEST(ChromeTraceExportTest, EmptyTracerExportsEmptyEventList) {
  Tracer tracer(4);
  std::string json = ChromeTraceExport(tracer);
  JsonChecker checker(json);
  EXPECT_TRUE(checker.Valid()) << json;
  EXPECT_EQ(json, "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[]}");
}

// ---- Trace nesting + tracer ring buffer -----------------------------------

TEST(TraceTest, ImplicitParentStackNestsSpans) {
  Trace trace(1);
  size_t root = trace.BeginSpan(Stage::kQuery);
  size_t child = trace.BeginSpan(Stage::kRefinement);
  trace.AddMarker(Stage::kBlockIo);
  trace.EndSpan(child);
  trace.AddSpan(Stage::kAdmissionWait, 0.0, 0.1);
  trace.EndSpan(root);

  const std::vector<TraceSpan>& spans = trace.spans();
  ASSERT_EQ(spans.size(), 4u);
  EXPECT_EQ(spans[0].name, "query");
  EXPECT_EQ(spans[0].stage, Stage::kQuery);
  EXPECT_EQ(spans[0].parent_id, 0u);  // root
  EXPECT_EQ(spans[1].parent_id, spans[0].id);
  EXPECT_EQ(spans[2].name, "block_io");
  EXPECT_EQ(spans[2].parent_id, spans[1].id);  // child was open
  EXPECT_EQ(spans[3].name, "admission_wait");
  EXPECT_EQ(spans[3].parent_id, spans[0].id);  // child had closed
  for (const TraceSpan& span : spans) EXPECT_GE(span.end_ms, span.start_ms);
}

TEST(TracerTest, RingBufferEvictsOldestAndCountsDrops) {
  Tracer tracer(4);
  EXPECT_EQ(tracer.capacity(), 4u);
  for (uint64_t i = 1; i <= 10; ++i) {
    Trace trace(i);
    trace.BeginSpan(Stage::kQuery);
    tracer.Record(std::move(trace));
  }
  EXPECT_EQ(tracer.total_recorded(), 10u);
  EXPECT_EQ(tracer.dropped(), 6u);

  std::vector<Trace> retained = tracer.Snapshot();
  ASSERT_EQ(retained.size(), 4u);
  // Oldest evicted first: ids 7..10 survive, oldest first.
  for (size_t i = 0; i < retained.size(); ++i) {
    EXPECT_EQ(retained[i].request_id(), 7u + i);
  }
  // Record() closed the open span before storing.
  EXPECT_GE(retained[0].spans()[0].end_ms, 0.0);
}

TEST(TracerTest, SurfacesRetainedCountAndOldestTraceAge) {
  Tracer tracer(4);
  EXPECT_EQ(tracer.retained(), 0u);
  EXPECT_EQ(tracer.OldestRetainedAgeMs(), 0.0) << "empty ring has no window";

  tracer.Record(Trace(1));
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  for (uint64_t i = 2; i <= 4; ++i) tracer.Record(Trace(i));
  EXPECT_EQ(tracer.retained(), 4u);
  // The oldest retained trace is the 50ms-old one — its age IS the
  // trace-window coverage an operator sees.
  const double full_window = tracer.OldestRetainedAgeMs();
  EXPECT_GE(full_window, 50.0);

  // Eviction narrows the window: dropping trace 1 makes the just-recorded
  // trace 2 the oldest, so the reported coverage shrinks.
  tracer.Record(Trace(5));
  EXPECT_EQ(tracer.retained(), 4u);
  EXPECT_LT(tracer.OldestRetainedAgeMs(), full_window);
}

TEST(TracerTest, EvictionSinkObservesEvictedTracesAndAccountingIsExact) {
  std::vector<uint64_t> evicted_ids;
  Tracer tracer(4, nullptr, [&](const Trace& trace) {
    evicted_ids.push_back(trace.request_id());
  });

  for (uint64_t i = 1; i <= 10; ++i) {
    Trace trace(i);
    trace.BeginSpan(Stage::kQuery);
    tracer.Record(std::move(trace));
  }
  // The sink saw exactly the evicted traces, oldest first, and the
  // dropped counter is unchanged by its presence.
  ASSERT_EQ(evicted_ids.size(), 6u);
  for (size_t i = 0; i < evicted_ids.size(); ++i) {
    EXPECT_EQ(evicted_ids[i], i + 1);
  }
  EXPECT_EQ(tracer.dropped(), 6u);
  EXPECT_EQ(tracer.total_recorded(), 10u);
  EXPECT_EQ(tracer.retained(), 4u);
}

TEST(TracerTest, RetainsTracesAtTheirExactSize) {
  // A 64-frame stream batch grows its span vector one span at a time; the
  // ring keeps (and evicts) the spans without the room growth left.
  size_t evicted_size = 0, evicted_capacity = 0;
  Tracer tracer(1, nullptr, [&](Trace&& trace) {
    evicted_size = trace.spans().size();
    evicted_capacity = trace.spans().capacity();
  });
  Trace stream(1);
  stream.BeginSpan(Stage::kStreamSamples);
  for (int frame = 0; frame < 64; ++frame) {
    stream.AddMarker(Stage::kRecognizerUpdate);
  }
  ASSERT_EQ(stream.spans().size(), 65u);
  ASSERT_GT(stream.spans().capacity(), 65u) << "growth left no spare room";
  tracer.Record(std::move(stream));
  std::vector<Trace> retained = tracer.Snapshot();
  ASSERT_EQ(retained.size(), 1u);
  EXPECT_EQ(retained[0].spans().size(), 65u);
  tracer.Record(Trace(2));  // evicts the stream trace, moved out of the ring
  EXPECT_EQ(evicted_size, 65u);
  EXPECT_EQ(evicted_capacity, 65u);
}

// ---- End-to-end traces through the server ---------------------------------

streams::Recording MakeRecording(size_t frames, size_t channels) {
  streams::Recording rec;
  rec.sample_rate_hz = 100.0;
  for (size_t f = 0; f < frames; ++f) {
    streams::Frame frame;
    frame.timestamp = static_cast<double>(f) / 100.0;
    frame.values.resize(channels);
    for (size_t c = 0; c < channels; ++c) {
      frame.values[c] = std::sin(0.1 * static_cast<double>(f * (c + 1)));
    }
    rec.Append(std::move(frame));
  }
  return rec;
}

TEST(EndToEndTraceTest, IngestProducesOneNestedTrace) {
  server::ServerConfig config;
  config.num_shards = 1;
  config.num_threads = 2;
  server::AimsServer server(config);
  ASSERT_TRUE(server.OpenSession({1}).ok());

  constexpr size_t kChannels = 2;
  auto response = server.IngestRecording({1, "rec", MakeRecording(64, kChannels)});
  ASSERT_TRUE(response.ok());

  std::vector<Trace> traces = server.tracer().Snapshot();
  ASSERT_EQ(traces.size(), 1u) << "one ingest -> exactly one trace";
  const Trace& trace = traces[0];
  EXPECT_NE(trace.label().find("ingest"), std::string::npos);

  const TraceSpan* root = FindSpan(trace, "ingest");
  ASSERT_NE(root, nullptr);
  EXPECT_EQ(root->parent_id, 0u);
  // The full pipeline, every stage nested under the root: admission ->
  // shard lock -> per-channel seal + transform + block write.
  for (const char* stage : {"admission", "shard_lock"}) {
    const TraceSpan* span = FindSpan(trace, stage);
    ASSERT_NE(span, nullptr) << stage;
    EXPECT_EQ(span->parent_id, root->id) << stage;
  }
  EXPECT_EQ(CountSpans(trace, "seal"), kChannels);
  EXPECT_EQ(CountSpans(trace, "transform"), kChannels);
  EXPECT_EQ(CountSpans(trace, "block_write"), kChannels);
  for (const TraceSpan& span : trace.spans()) {
    EXPECT_GE(span.end_ms, span.start_ms) << span.name;
  }

  // The export of the real trace is valid Chrome trace_event JSON.
  std::string json = ChromeTraceExport(server.tracer());
  JsonChecker checker(json);
  EXPECT_TRUE(checker.Valid()) << json;
}

TEST(EndToEndTraceTest, QueryProducesOneNestedTrace) {
  server::ServerConfig config;
  config.num_shards = 1;
  config.num_threads = 2;
  config.system.block_size_bytes = 64;  // many blocks -> many block_io spans
  server::AimsServer server(config);
  ASSERT_TRUE(server.OpenSession({1}).ok());
  auto ingest = server.IngestRecording({1, "rec", MakeRecording(256, 1)});
  ASSERT_TRUE(ingest.ok());

  server::QueryRequest query;
  query.session = ingest->session;
  query.channel = 0;
  query.first_frame = 7;
  query.last_frame = 246;  // ragged range -> multi-step progressive query
  auto submitted = server.SubmitQuery({1, query});
  ASSERT_TRUE(submitted.ok());
  server::QueryOutcome outcome = submitted->ticket->Wait();
  ASSERT_EQ(outcome.state, server::QueryState::kComplete);
  ASSERT_GT(outcome.answer.blocks_read, 1u);

  const Trace& trace = outcome.trace;
  EXPECT_EQ(trace.request_id(), submitted->ticket->id());
  const TraceSpan* root = FindSpan(trace, "query");
  ASSERT_NE(root, nullptr);
  EXPECT_EQ(root->parent_id, 0u);
  EXPECT_EQ(root->start_ms, 0.0);  // covers the request from submission

  const TraceSpan* refinement = FindSpan(trace, "refinement");
  ASSERT_NE(refinement, nullptr);
  for (const char* stage : {"admission_wait", "shard_lock", "refinement"}) {
    const TraceSpan* span = FindSpan(trace, stage);
    ASSERT_NE(span, nullptr) << stage;
    EXPECT_EQ(span->parent_id, root->id) << stage;
  }
  EXPECT_EQ(CountSpans(trace, "block_io"), outcome.answer.blocks_read);
  for (const TraceSpan& span : trace.spans()) {
    if (span.name == "block_io") {
      EXPECT_EQ(span.parent_id, refinement->id);
    }
  }

  // Ingest trace + query trace share the server-wide id source: distinct.
  std::vector<Trace> traces = server.tracer().Snapshot();
  ASSERT_EQ(traces.size(), 2u);
  EXPECT_NE(traces[0].request_id(), traces[1].request_id());
}

TEST(EndToEndTraceTest, StreamSamplesProducesOneNestedTrace) {
  server::ServerConfig config;
  config.num_shards = 1;
  config.num_threads = 1;
  server::AimsServer server(config);

  constexpr size_t kChannels = 2;
  linalg::Matrix segment(8, kChannels);
  for (size_t r = 0; r < 8; ++r) {
    segment.SetRow(r, {static_cast<double>(r), 1.0});
  }
  ASSERT_TRUE(server.AddVocabularyEntry("wave", segment).ok());
  ASSERT_TRUE(server.OpenSession({5, /*enable_recognition=*/true}).ok());

  constexpr size_t kFrames = 6;
  server::StreamSamplesRequest request;
  request.client = 5;
  for (size_t f = 0; f < kFrames; ++f) {
    streams::Frame frame;
    frame.timestamp = static_cast<double>(f) / 100.0;
    frame.values = {12.0 * std::sin(0.3 * static_cast<double>(f)), 1.0};
    request.frames.push_back(std::move(frame));
  }
  auto response = server.StreamSamples(std::move(request));
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response->frames_pushed, kFrames);

  std::vector<Trace> traces = server.tracer().Snapshot();
  ASSERT_EQ(traces.size(), 1u) << "one batch -> exactly one trace";
  const Trace& trace = traces[0];
  EXPECT_NE(trace.label().find("stream_samples"), std::string::npos);
  const TraceSpan* root = FindSpan(trace, "stream_samples");
  ASSERT_NE(root, nullptr);
  EXPECT_EQ(root->parent_id, 0u);
  EXPECT_EQ(CountSpans(trace, "recognizer_update"), kFrames);
  for (const TraceSpan& span : trace.spans()) {
    if (span.name == "recognizer_update") {
      EXPECT_EQ(span.parent_id, root->id);
    }
  }
  ASSERT_TRUE(server.CloseSession({5}).ok());
}

TEST(ObsConfigTest, DisablingObservabilityLeavesServicesWorking) {
  server::ServerConfig config;
  config.num_shards = 1;
  config.num_threads = 1;
  config.obs.enable_metrics = false;
  config.obs.enable_tracing = false;
  server::AimsServer server(config);
  ASSERT_TRUE(server.OpenSession({1}).ok());
  auto ingest = server.IngestRecording({1, "rec", MakeRecording(32, 1)});
  ASSERT_TRUE(ingest.ok());
  server::QueryRequest query;
  query.session = ingest->session;
  query.last_frame = 31;
  auto submitted = server.SubmitQuery({1, query});
  ASSERT_TRUE(submitted.ok());
  EXPECT_EQ(submitted->ticket->Wait().state, server::QueryState::kComplete);
  // Nothing was recorded anywhere.
  EXPECT_EQ(server.tracer().Snapshot().size(), 0u);
  EXPECT_EQ(server.metrics().DumpText(), "");
  // Health still answers (on-demand evaluation over the empty registry).
  auto health = server.GetHealth({});
  ASSERT_TRUE(health.ok());
  EXPECT_EQ(health->health.level, HealthLevel::kOk);
}

// ---- StatsReporter --------------------------------------------------------

TEST(StatsReporterTest, CounterRatesOverTheWindow) {
  MetricsRegistry registry;
  Counter* c = registry.GetCounter("work.done");
  c->Increment(10);

  StatsReporter reporter(&registry, {});
  HealthSnapshot first = reporter.SnapshotNow();
  EXPECT_EQ(first.sequence, 1u);
  ASSERT_EQ(first.rates.count("work.done"), 1u);
  EXPECT_EQ(first.rates.at("work.done").value, 10u);
  EXPECT_EQ(first.rates.at("work.done").per_sec, 0.0);  // no prior window

  c->Increment(40);
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  HealthSnapshot second = reporter.SnapshotNow();
  EXPECT_EQ(second.sequence, 2u);
  EXPECT_EQ(second.rates.at("work.done").value, 50u);
  EXPECT_GT(second.rates.at("work.done").per_sec, 0.0);
  EXPECT_GT(second.window_ms, 0.0);
  EXPECT_GE(second.uptime_ms, second.window_ms);
}

TEST(StatsReporterTest, HealthLevelsFromSaturationAndLatency) {
  MetricsRegistry registry;
  Gauge* depth = registry.GetGauge("ingest.queue_depth");
  Histogram* lat = registry.GetHistogram(
      "span.query_ms", MetricsRegistry::DefaultLatencyBoundsMs());

  StatsReporterConfig config;
  config.p99_target_ms = 1.0;
  config.saturation_capacity = 4.0;
  StatsReporter reporter(&registry, config);

  EXPECT_EQ(reporter.SnapshotNow().level, HealthLevel::kOk);

  depth->Set(3);  // 75% of capacity -> degraded
  HealthSnapshot degraded = reporter.SnapshotNow();
  EXPECT_EQ(degraded.level, HealthLevel::kDegraded);
  EXPECT_NEAR(degraded.queue_saturation, 0.75, 1e-9);
  ASSERT_FALSE(degraded.reasons.empty());
  EXPECT_NE(degraded.reasons[0].find("capacity"), std::string::npos);

  depth->Set(5);  // over capacity -> saturated
  EXPECT_EQ(reporter.SnapshotNow().level, HealthLevel::kSaturated);

  depth->Set(0);
  for (int i = 0; i < 100; ++i) lat->Record(1.6);  // p99 ~1.6x target
  HealthSnapshot slow = reporter.SnapshotNow();
  EXPECT_EQ(slow.level, HealthLevel::kDegraded);
  EXPECT_GT(slow.p99_ms, config.p99_target_ms);

  for (int i = 0; i < 400; ++i) lat->Record(3.0);  // p99 > 2x target
  EXPECT_EQ(reporter.SnapshotNow().level, HealthLevel::kSaturated);

  EXPECT_STREQ(HealthLevelName(HealthLevel::kOk), "Ok");
  EXPECT_STREQ(HealthLevelName(HealthLevel::kDegraded), "Degraded");
  EXPECT_STREQ(HealthLevelName(HealthLevel::kSaturated), "Saturated");
}

TEST(StatsReporterTest, RealQueriesDegradeHealthPastTheirP99Target) {
  // The latency check reads the query stage's histogram, fed by the spans
  // of real scheduled queries: a target below any real query's latency
  // degrades the server once queries ran, and not before.
  server::ServerConfig config;
  config.num_shards = 1;
  config.num_threads = 2;
  config.obs.reporter.p99_target_ms = 1e-6;
  server::AimsServer server(config);
  ASSERT_TRUE(server.OpenSession({1}).ok());
  auto ingest = server.IngestRecording({1, "rec", MakeRecording(256, 1)});
  ASSERT_TRUE(ingest.ok());
  EXPECT_EQ(server.reporter().SnapshotNow().level, HealthLevel::kOk);

  for (size_t q = 0; q < 5; ++q) {
    server::QueryRequest query;
    query.session = ingest->session;
    query.first_frame = q;
    query.last_frame = 200;
    auto submitted = server.SubmitQuery({1, query});
    ASSERT_TRUE(submitted.ok());
    ASSERT_EQ(submitted->ticket->Wait().state, server::QueryState::kComplete);
  }
  HealthSnapshot snapshot = server.reporter().SnapshotNow();
  EXPECT_NE(snapshot.level, HealthLevel::kOk);
  EXPECT_GT(snapshot.p99_ms, config.obs.reporter.p99_target_ms);
  bool latency_reason = false;
  for (const std::string& reason : snapshot.reasons) {
    latency_reason |= reason.find("span.query_ms p99") != std::string::npos;
  }
  EXPECT_TRUE(latency_reason);
}

TEST(StatsReporterTest, SnapshotsCarryTheLastHealthTransition) {
  MetricsRegistry registry;
  Gauge* depth = registry.GetGauge("ingest.queue_depth");
  StatsReporterConfig config;
  config.saturation_capacity = 4.0;
  StatsReporter reporter(&registry, config);

  // No level change yet: no transition to report.
  EXPECT_FALSE(reporter.SnapshotNow().last_transition.has_value());

  depth->Set(5);  // over capacity -> Saturated
  HealthSnapshot saturated = reporter.SnapshotNow();
  ASSERT_TRUE(saturated.last_transition.has_value());
  EXPECT_EQ(saturated.last_transition->from, HealthLevel::kOk);
  EXPECT_EQ(saturated.last_transition->to, HealthLevel::kSaturated);
  EXPECT_EQ(saturated.last_transition->sequence, saturated.sequence);
  EXPECT_FALSE(saturated.last_transition->reasons.empty())
      << "the transition carries the violated inputs";

  // A steady level keeps carrying the SAME transition (the WHY behind the
  // current WHAT), not a fresh one per snapshot.
  HealthSnapshot still = reporter.SnapshotNow();
  ASSERT_TRUE(still.last_transition.has_value());
  EXPECT_EQ(still.last_transition->sequence, saturated.sequence);

  // Recovery is a transition too — back to Ok, with no breaches in force.
  depth->Set(0);
  HealthSnapshot recovered = reporter.SnapshotNow();
  EXPECT_EQ(recovered.level, HealthLevel::kOk);
  ASSERT_TRUE(recovered.last_transition.has_value());
  EXPECT_EQ(recovered.last_transition->from, HealthLevel::kSaturated);
  EXPECT_EQ(recovered.last_transition->to, HealthLevel::kOk);
  EXPECT_TRUE(recovered.last_transition->reasons.empty());

  // The JSON body names the transition for /healthz consumers.
  const std::string json = HealthSnapshotJson(recovered);
  EXPECT_NE(json.find("\"last_transition\""), std::string::npos);
  EXPECT_NE(json.find("\"from\":\"Saturated\""), std::string::npos);
  EXPECT_NE(json.find("\"to\":\"Ok\""), std::string::npos);
}

TEST(StatsReporterTest, SlowQueryRateDegradesHealth) {
  MetricsRegistry registry;
  Counter* slow = registry.GetCounter("scheduler.slow_queries");

  StatsReporterConfig config;
  config.slow_query_rate_per_sec = 1.0;
  StatsReporter reporter(&registry, config);

  // First window establishes the baseline; no rate yet, health Ok.
  HealthSnapshot first = reporter.SnapshotNow();
  EXPECT_EQ(first.level, HealthLevel::kOk);
  EXPECT_EQ(first.slow_query_per_sec, 0.0);

  // A burst of slow queries inside a short window is a rate far above
  // 1/s: the reporter must call that Degraded, not Ok — persistent slow
  // queries are an early saturation signal even while p99 still looks fine.
  slow->Increment(50);
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  HealthSnapshot burst = reporter.SnapshotNow();
  EXPECT_GT(burst.slow_query_per_sec, config.slow_query_rate_per_sec);
  EXPECT_EQ(burst.level, HealthLevel::kDegraded);
  bool mentioned = false;
  for (const std::string& reason : burst.reasons) {
    if (reason.find("slow_queries") != std::string::npos) mentioned = true;
  }
  EXPECT_TRUE(mentioned) << "reasons must name the slow-query counter";

  // Threshold 0 disables the input entirely.
  StatsReporter relaxed(&registry, {});
  relaxed.SnapshotNow();
  slow->Increment(50);
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_EQ(relaxed.SnapshotNow().level, HealthLevel::kOk);
}

TEST(StatsReporterTest, HealthJsonKeepsItsTopLevelKeyOrder) {
  // The /healthz body: load balancers and dashboards parse it, so keys are
  // only ever appended. Nested objects (last_transition, rates, slo) must
  // not leak their keys into the top level.
  MetricsRegistry registry;
  registry.GetCounter("work.done")->Increment(3);
  registry.GetGauge("ingest.queue_depth")->Set(5);
  StatsReporterConfig config;
  config.saturation_capacity = 4.0;
  StatsReporter reporter(&registry, config);
  HealthSnapshot snapshot = reporter.SnapshotNow();
  ASSERT_TRUE(snapshot.last_transition.has_value());
  snapshot.slo.resize(1);
  snapshot.slo[0].name = "demo";
  const std::string json = HealthSnapshotJson(snapshot);
  EXPECT_EQ(testutil::TopLevelJsonKeys(json),
            (std::vector<std::string>{
                "sequence", "uptime_ms", "window_ms", "level", "reasons",
                "queue_saturation", "wal_lag_saturation", "p99_ms",
                "shard_lock_p99_ms", "slow_query_per_sec", "last_transition",
                "rates", "slo"}))
      << json;
}

TEST(StatsReporterTest, BackgroundThreadPublishesSnapshots) {
  MetricsRegistry registry;
  registry.GetCounter("tick")->Increment();
  StatsReporter reporter(&registry, {});
  EXPECT_FALSE(reporter.running());
  reporter.Start(2.0);
  EXPECT_TRUE(reporter.running());

  // Wait (bounded) for at least two periodic snapshots.
  for (int i = 0; i < 500 && reporter.Latest().sequence < 3; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  EXPECT_GE(reporter.Latest().sequence, 3u);
  reporter.Stop();
  EXPECT_FALSE(reporter.running());
  reporter.Stop();  // idempotent
  uint64_t at_stop = reporter.Latest().sequence;
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  EXPECT_EQ(reporter.Latest().sequence, at_stop);  // thread really stopped
}

TEST(StatsReporterTest, LatestComputesOnDemandWhenNoThreadRan) {
  MetricsRegistry registry;
  StatsReporter reporter(&registry, {});
  HealthSnapshot snap = reporter.Latest();
  EXPECT_EQ(snap.sequence, 1u);  // never an empty sequence-0 report
}

TEST(AimsServerFacadeTest, GetHealthReportsThroughTypedApi) {
  server::ServerConfig config;
  config.num_shards = 1;
  config.num_threads = 2;
  config.obs.reporter_interval_ms = 5.0;
  config.obs.reporter.saturation_capacity =
      static_cast<double>(config.admission.queue_capacity);
  server::AimsServer server(config);
  ASSERT_TRUE(server.OpenSession({1}).ok());

  // Traffic while the reporter thread snapshots concurrently (TSan food).
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(server.IngestRecording({1, "rec", MakeRecording(64, 1)}).ok());
  }
  auto health = server.GetHealth({/*force_refresh=*/true});
  ASSERT_TRUE(health.ok());
  EXPECT_GE(health->health.sequence, 1u);
  EXPECT_TRUE(health->reporter_running);
  EXPECT_EQ(health->health.level, HealthLevel::kOk);
  ASSERT_EQ(health->health.rates.count("ingest.completed"), 1u);
  EXPECT_EQ(health->health.rates.at("ingest.completed").value, 4u);

  server.Shutdown();
  auto after = server.GetHealth({});
  ASSERT_TRUE(after.ok());
  EXPECT_FALSE(after->reporter_running);
}

TEST(PrometheusExportTest, ShardFamilyExportsLabelledSeries) {
  MetricsRegistry registry;
  std::vector<ShardStatsEntry> shards(2);
  shards[0].shard = 0;
  shards[0].sessions = 3;
  shards[0].tenants = 2;
  shards[0].ingests = 5;
  shards[0].queries = 11;
  shards[0].lock_wait_p99_ms = 1.25;
  shards[0].wal_lag_bytes = 4096;
  shards[0].queue_depth = 1;
  shards[1].shard = 1;
  shards[1].sessions = 1;
  std::string out = PrometheusExport(registry, nullptr, nullptr, nullptr,
                                     nullptr, &shards);
  EXPECT_NE(out.find("# TYPE aims_shard_sessions gauge"), std::string::npos);
  EXPECT_NE(out.find("aims_shard_sessions{shard=\"0\"} 3"), std::string::npos);
  EXPECT_NE(out.find("aims_shard_sessions{shard=\"1\"} 1"), std::string::npos);
  EXPECT_NE(out.find("aims_shard_tenants{shard=\"0\"} 2"), std::string::npos);
  EXPECT_NE(out.find("aims_shard_ingests_total{shard=\"0\"} 5"),
            std::string::npos);
  EXPECT_NE(out.find("aims_shard_queries_total{shard=\"0\"} 11"),
            std::string::npos);
  EXPECT_NE(out.find("aims_shard_lock_wait_p99_ms{shard=\"0\"} 1.25"),
            std::string::npos);
  EXPECT_NE(out.find("aims_shard_wal_lag_bytes{shard=\"0\"} 4096"),
            std::string::npos);
  EXPECT_NE(out.find("aims_shard_queue_depth{shard=\"0\"} 1"),
            std::string::npos);
  // Omitted entirely when no snapshot is passed.
  EXPECT_EQ(PrometheusExport(registry, nullptr).find("aims_shard_"),
            std::string::npos);
}

TEST(StatsReporterTest, JudgesShardLockP99AgainstTarget) {
  MetricsRegistry registry;
  Gauge* p99_us = registry.GetGauge("catalog.shard_lock_p99_us");
  StatsReporterConfig config;
  config.shard_lock_p99_target_ms = 2.0;
  StatsReporter reporter(&registry, config);

  p99_us->Set(500);  // 0.5 ms, under target
  HealthSnapshot snap = reporter.SnapshotNow();
  EXPECT_EQ(snap.level, HealthLevel::kOk);
  EXPECT_DOUBLE_EQ(snap.shard_lock_p99_ms, 0.5);

  p99_us->Set(3000);  // 3 ms: degraded
  snap = reporter.SnapshotNow();
  EXPECT_EQ(snap.level, HealthLevel::kDegraded);
  ASSERT_EQ(snap.reasons.size(), 1u);
  EXPECT_NE(snap.reasons[0].find("shard lock-wait p99"), std::string::npos);

  p99_us->Set(9000);  // 9 ms: over 2x target
  snap = reporter.SnapshotNow();
  EXPECT_EQ(snap.level, HealthLevel::kSaturated);
}

}  // namespace
}  // namespace aims::obs
