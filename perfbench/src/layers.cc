#include "layers.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <unordered_map>

#include "common/gorilla.h"
#include "core/aims.h"
#include "recognition/similarity.h"
#include "recognition/vocabulary.h"
#include "signal/dwpt.h"
#include "signal/dwt.h"
#include "storage/allocation.h"
#include "storage/block_device.h"
#include "storage/wavelet_store.h"

namespace perfbench {

using aims::obs::Trace;
using aims::obs::TraceSpan;

namespace {

/// Keeps the replayed kernels' results observable so none is optimized out.
volatile size_t g_sink = 0;

double Duration(const TraceSpan& s) { return s.end_ms - s.start_ms; }

/// Length of the union of [start, end) intervals.
double UnionLength(std::vector<std::pair<double, double>> intervals) {
  std::sort(intervals.begin(), intervals.end());
  double total = 0.0;
  double cur_start = 0.0;
  double cur_end = -1.0;
  for (const auto& [s, e] : intervals) {
    if (e <= s) continue;
    if (s > cur_end) {
      if (cur_end > cur_start) total += cur_end - cur_start;
      cur_start = s;
      cur_end = e;
    } else {
      cur_end = std::max(cur_end, e);
    }
  }
  if (cur_end > cur_start) total += cur_end - cur_start;
  return total;
}

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

size_t NextPowerOfTwo(size_t n) {
  size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

double MicrosSince(Clock::time_point t) {
  return std::chrono::duration<double, std::micro>(Clock::now() - t).count();
}

/// Replays recordings through the ingest kernels AimsSystem runs per
/// channel, with the library's default configuration, timing each call.
void ReplayIngestKernels(
    const std::vector<const aims::streams::Recording*>& inputs,
    MetricMap* out) {
  const aims::core::AimsConfig defaults;
  const aims::signal::WaveletFilter filter =
      aims::signal::WaveletFilter::Make(defaults.filter);
  aims::storage::MemBlockDevice device(defaults.block_size_bytes);
  const size_t block_items = defaults.block_size_bytes / sizeof(double);
  std::vector<double> seal_us, dwt_us, dwpt_us, put_us;
  size_t sink = 0;
  for (const aims::streams::Recording* rec : inputs) {
    const size_t n = rec->num_frames();
    const size_t padded = NextPowerOfTwo(n);
    std::vector<int64_t> t_us;
    for (const aims::streams::Frame& f : rec->frames) {
      t_us.push_back(static_cast<int64_t>(std::llround(f.timestamp * 1e6)));
    }
    for (size_t c = 0; c < rec->num_channels(); ++c) {
      const std::vector<double> channel = rec->Channel(c);

      auto t0 = Clock::now();
      aims::gorilla::GorillaEncoder encoder;
      for (size_t i = 0; i < n; ++i) encoder.Append(t_us[i], channel[i]);
      sink += encoder.size_bytes();
      seal_us.push_back(MicrosSince(t0));

      double mean = 0.0;
      for (double v : channel) mean += v;
      mean /= static_cast<double>(n);
      std::vector<double> centered(padded, 0.0);
      for (size_t i = 0; i < n; ++i) centered[i] = channel[i] - mean;

      t0 = Clock::now();
      auto tree = aims::signal::WaveletPacketTree::Build(filter, centered, 6);
      if (tree.ok()) sink += tree->BestBasis(defaults.basis_cost).size();
      dwpt_us.push_back(MicrosSince(t0));

      t0 = Clock::now();
      auto coeffs = aims::signal::ForwardDwt(filter, centered);
      dwt_us.push_back(MicrosSince(t0));
      if (!coeffs.ok()) continue;

      aims::storage::WaveletStore store(
          &device,
          std::make_unique<aims::storage::SubtreeTilingAllocator>(padded,
                                                                  block_items),
          padded);
      t0 = Clock::now();
      if (store.Put(*coeffs).ok()) ++sink;
      put_us.push_back(MicrosSince(t0));
    }
  }
  (*out)["common.gorilla.seal_us_per_channel"] = {Quantile(seal_us, 0.5), "us"};
  (*out)["signal.dwt_us_per_channel"] = {Quantile(dwt_us, 0.5), "us"};
  (*out)["signal.dwpt_best_basis_us_per_channel"] = {Quantile(dwpt_us, 0.5),
                                                     "us"};
  (*out)["storage.wavelet_store.put_us_per_channel"] = {Quantile(put_us, 0.5),
                                                        "us"};
  g_sink = sink;
}

}  // namespace

StorageCounters ReadStorageCounters(aims::server::AimsServer& srv) {
  StorageCounters c;
  auto health = srv.GetHealth({});
  if (health.ok()) {
    c.wal = health->wal;
    c.cache = health->cache;
  }
  c.blocks_read = static_cast<double>(srv.catalog().total_blocks_read());
  c.blocks_written = static_cast<double>(srv.catalog().total_blocks_written());
  return c;
}

void CollectLayerMetrics(const LayerInputs& in, MetricMap* out) {
  // ---- server + core + storage, from the server's own traces ----
  std::unordered_map<std::string, double> client_ingest_ms;
  for (const ClientSpan& s : in.client_spans) {
    if (s.name == "IngestRecording") client_ingest_ms[s.link] = s.end_ms - s.start_ms;
  }
  std::vector<double> queue_wait, hold, apply_lock, transform, block_write,
      wal_sync, update, query_lock_wait;
  double client_total = 0.0;
  double unattributed = 0.0;
  for (const Trace& trace : in.traces) {
    if (!in.window.Contains(trace.epoch()) || trace.spans().empty()) continue;
    const TraceSpan& root = trace.spans().front();
    if (root.name == "ingest") {
      double qw = 0.0, tf = 0.0, bw = 0.0;
      const TraceSpan* lock = nullptr;
      const TraceSpan* sync = nullptr;
      std::vector<std::pair<double, double>> covered;
      for (const TraceSpan& s : trace.spans()) {
        if (s.parent_id != 0) covered.emplace_back(s.start_ms, s.end_ms);
        if (s.name == "admission" || s.name == "queue_wait") qw += Duration(s);
        if (s.name == "transform") tf += Duration(s);
        if (s.name == "block_write") bw += Duration(s);
        if (s.name == "shard_lock" && lock == nullptr) lock = &s;
        if (s.name == "wal_sync") {
          sync = &s;
          wal_sync.push_back(Duration(s));
        }
        if (s.name == "shard_apply_lock") apply_lock.push_back(Duration(s));
      }
      queue_wait.push_back(qw);
      transform.push_back(tf);
      block_write.push_back(bw);
      if (lock != nullptr) {
        const double release = sync != nullptr ? sync->start_ms : root.end_ms;
        hold.push_back(release - lock->end_ms);
      }
      auto client = client_ingest_ms.find(trace.label());
      if (client != client_ingest_ms.end()) {
        client_total += client->second;
        unattributed +=
            std::max(0.0, client->second - UnionLength(std::move(covered)));
      }
    } else if (root.name == "query") {
      // Dispatch to the start of refinement: the shard's shared lock (an
      // ANALYZE query's planning takes it first, so its wait lands there).
      const TraceSpan* admitted = nullptr;
      for (const TraceSpan& s : trace.spans()) {
        if (s.name == "admission_wait") admitted = &s;
        if (s.name == "refinement" && admitted != nullptr) {
          query_lock_wait.push_back(s.start_ms - admitted->end_ms);
        }
      }
    } else if (root.name == "stream_samples") {
      for (const TraceSpan& s : trace.spans()) {
        if (s.name == "recognizer_update") update.push_back(Duration(s));
      }
    }
  }
  MetricMap& m = *out;
  m["server.ingest.queue_wait_ms_p99"] = {Quantile(queue_wait, 0.99), "ms"};
  m["server.catalog.ingest_lock_hold_ms_p50"] = {Quantile(hold, 0.5), "ms"};
  m["server.catalog.ingest_lock_hold_ms_p99"] = {Quantile(hold, 0.99), "ms"};
  m["server.catalog.apply_lock_ms_p99"] = {Quantile(apply_lock, 0.99), "ms"};
  m["server.recognition.update_ms_p99"] = {Quantile(update, 0.99), "ms"};
  m["core.ingest.transform_ms"] = {Quantile(transform, 0.5), "ms"};
  m["core.ingest.block_write_ms"] = {Quantile(block_write, 0.5), "ms"};
  m["core.ingest.unattributed_share"] = {Ratio(unattributed, client_total),
                                         "share"};
  m["storage.wal.sync_wait_ms_p99"] = {Quantile(wal_sync, 0.99), "ms"};

  // ---- query path, from EXPLAIN ANALYZE ----
  std::vector<double> admission, refinement, fetched, coefficients;
  double exact_runs = 0.0, reconciled = 0.0;
  for (const AnalyzeSample& a : in.analyze) {
    admission.push_back(a.admission_wait_ms);
    refinement.push_back(a.refinement_ms);
    fetched.push_back(a.blocks_fetched);
    coefficients.push_back(a.query_coefficients);
    if (a.ran_to_exact) {
      exact_runs += 1.0;
      if (a.reconciled) reconciled += 1.0;
    }
  }
  m["server.catalog.query_lock_wait_ms_p99"] = {Quantile(query_lock_wait, 0.99),
                                                "ms"};
  m["server.scheduler.admission_wait_ms_p99"] = {Quantile(admission, 0.99),
                                                 "ms"};
  m["core.query.refinement_ms_p50"] = {Quantile(refinement, 0.5), "ms"};
  m["core.query.blocks_fetched_per_query"] = {Mean(fetched), "count"};
  m["core.query.reconciled_share"] = {Ratio(reconciled, exact_runs), "share"};
  m["propolyne.query_coefficients_per_query"] = {Mean(coefficients), "count"};

  // ---- storage counters over the window ----
  const StorageCounters& b = in.before;
  const StorageCounters& a = in.after;
  const double commits = static_cast<double>(a.wal.commits - b.wal.commits);
  const double syncs = static_cast<double>(a.wal.syncs - b.wal.syncs);
  const double wal_bytes =
      static_cast<double>(a.wal.bytes_appended - b.wal.bytes_appended);
  const double hits = static_cast<double>(a.cache.hits - b.cache.hits);
  const double misses = static_cast<double>(a.cache.misses - b.cache.misses);
  m["storage.wal.commits_per_sync"] = {Ratio(commits, syncs), "count"};
  m["storage.wal.bytes_per_input_byte"] = {Ratio(wal_bytes, in.window_raw_bytes),
                                           "ratio"};
  m["storage.device.blocks_written_per_ingest"] = {
      Ratio(a.blocks_written - b.blocks_written, in.ingests), "count"};
  m["storage.device.blocks_read_per_query"] = {
      Ratio(a.blocks_read - b.blocks_read, in.queries), "count"};
  m["storage.cache.hit_ratio"] = {Ratio(hits, hits + misses), "share"};

  // ---- space, after the drain, over everything the server stored ----
  aims::server::AimsServer& srv = *in.server;
  const double segment_bytes =
      static_cast<double>(srv.catalog().TotalSegmentBytes());
  double block_bytes = 0.0;
  auto usage = srv.GetTenantUsage({std::nullopt});
  if (usage.ok()) block_bytes = static_cast<double>(usage->total.bytes_written);
  m["storage.tslife.segment_bytes_per_raw_byte"] = {
      Ratio(segment_bytes, in.total_raw_bytes), "ratio"};
  m["storage.stored_bytes_per_input_byte"] = {
      Ratio(block_bytes + segment_bytes, in.total_raw_bytes), "ratio"};

  // ---- single-layer replays on the workload's own inputs ----
  ReplayIngestKernels(in.kernel_inputs, out);
  m["recognition.push_us_p50"] = {Quantile(in.push_us, 0.5), "us"};
  m["recognition.push_us_p99"] = {Quantile(in.push_us, 0.99), "us"};

  // ---- obs ----
  std::vector<double> scrape_ms;
  if (srv.metrics_scraper() != nullptr) {
    for (int i = 0; i < 9; ++i) {
      auto t0 = Clock::now();
      srv.metrics_scraper()->ScrapeOnce();
      scrape_ms.push_back(MsBetween(t0, Clock::now()));
    }
  }
  m["obs.scrape_once_ms"] = {Quantile(scrape_ms, 0.5), "ms"};
  m["obs.tracer.dropped"] = {static_cast<double>(srv.tracer().dropped()),
                             "count"};

  // ---- the load generator and the benchmark's own instrumentation ----
  const RunResult& run = *in.run;
  m["client.due_ms_p50"] = {Quantile(run.due.latency_ms, 0.5), "ms"};
  m["client.due_ms_tail"] = {Quantile(run.due.latency_ms, run.due_tail_q), "ms"};
  m["client.reply_ms_p50"] = {Quantile(run.reply.latency_ms, 0.5), "ms"};
  m["client.reply_ms_tail"] = {Quantile(run.reply.latency_ms, run.reply_tail_q),
                               "ms"};
  std::vector<double> lag = run.due.lag_ms;
  lag.insert(lag.end(), run.reply.lag_ms.begin(), run.reply.lag_ms.end());
  m["bench.generator_lag_ms_p99"] = {Quantile(lag, 0.99), "ms"};
  m["bench.failed_op_share"] = {
      Ratio(static_cast<double>(run.Failed()), static_cast<double>(run.Attempted())),
      "share"};
  const double traced = Quantile(run.reply.traced_ms, 0.5);
  const double untraced = Quantile(run.reply.untraced_ms, 0.5);
  m["bench.tracing_overhead_share"] = {
      untraced > 0.0 ? traced / untraced - 1.0 : 0.0, "share"};
}

aims::recognition::StreamRecognizerConfig ScaledRecognizerConfig(
    size_t factor) {
  aims::recognition::StreamRecognizerConfig config;
  config.evaluation_stride *= factor;
  config.activity_window *= factor;
  config.off_debounce_frames *= factor;
  config.min_segment_frames *= factor;
  return config;
}

ReferenceEvent ToReference(const aims::recognition::RecognitionEvent& e) {
  return {e.label, e.start_frame, e.end_frame};
}

std::vector<ReferenceEvent> ReferenceEvents(
    const std::vector<SignTemplate>& templates,
    const aims::recognition::StreamRecognizerConfig& config,
    const std::vector<aims::streams::Frame>& frames,
    std::vector<double>* push_us) {
  aims::recognition::Vocabulary vocabulary;
  for (const SignTemplate& t : templates) vocabulary.Add(t.label, t.segment);
  aims::recognition::WeightedSvdSimilarity measure;
  aims::recognition::StreamRecognizer recognizer(&vocabulary, &measure, config);
  std::vector<ReferenceEvent> events;
  for (const aims::streams::Frame& frame : frames) {
    auto t0 = Clock::now();
    auto event = recognizer.Push(frame);
    if (push_us != nullptr) push_us->push_back(MicrosSince(t0));
    if (event.ok() && event->has_value()) events.push_back(ToReference(**event));
  }
  auto last = recognizer.Finish();
  if (last.ok() && last->has_value()) events.push_back(ToReference(**last));
  return events;
}

}  // namespace perfbench
