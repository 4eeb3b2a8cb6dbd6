// bench_observability — cost of the aims::obs instrumentation.
//
// The same mixed ingest + query + recognition workload is driven through
// an AimsServer twice: once with metrics, tracing, and the StatsReporter
// thread all enabled, and once with ObsConfig disabling metrics and
// tracing so every service runs with null registry/tracer pointers. The
// disk cost model is NOT in simulate_io_wait mode — with no artificial
// waits the instrumentation cost is the only difference between the two
// configurations, which is exactly what this bench measures.
//
// Every gate compares two kinds of leg, each on a fresh server: a base
// leg and the same leg with the cost under test switched on. A leg is
// timed in process CPU seconds (every server and client thread, so the
// queries clients run on their own threads count too), not wall-clock
// time, which follows the host's other tenants. The legs run interleaved,
// base, test, base, test, ..., base: kTestLegs test legs, each bracketed
// by two base legs, and a gate bounds the median over the test legs of
// test / mean(bracketing bases). The bracket cancels a steady drift of
// the host's speed, which would otherwise bias the leg that runs second.
// The instrumentation must cost under kMaxOverheadPct; the admin plane
// under a prober hammer and the metrics-history pipeline (self-scrape
// thread, Gorilla TSDB, SLO burn-rate evaluation) under 2% each. Results
// go to stdout as JSON (progress notes to stderr). With an output
// directory argument the instrumented run's Prometheus dump, Chrome trace
// JSON, and the metrics-history dump are written there so CI can archive
// them:
//
//   bench_observability [output_dir]

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/macros.h"
#include "obs/exporters.h"
#include "obs/json_util.h"
#include "obs/timeseries.h"
#include "server/server.h"
#include "synth/cyberglove.h"

namespace aims {
namespace {

using streams::Recording;

constexpr int kSchemaVersion = 2;

constexpr size_t kClients = 4;
constexpr size_t kIngestsPerClient = 3;
constexpr size_t kQueriesPerIngest = 2;
constexpr size_t kStreamFrames = 96;
constexpr size_t kSliceFrames = 128;
/// Test legs per gate (each bracketed by base legs); odd, so the median
/// ratio is one leg's.
constexpr int kTestLegs = 21;
constexpr size_t kOnOffIters = 8;  ///< workload passes per on/off leg
constexpr double kMaxOverheadPct = 5.0;

/// The admin-plane acceptance: 64 concurrent loopback probers hammering
/// /healthz (and periodically /metrics) must cost the data plane < 2%.
/// Each prober cycles at a real load-balancer health-check cadence; the
/// probers are staggered across the interval, so from t=0 the admin plane
/// fields a steady kAdminHammerConns / interval request rate. The server
/// side of every request is the cost being bounded; the probers' own CPU
/// is the load generator's and is not counted.
constexpr size_t kAdminHammerConns = 64;
constexpr double kAdminProbeIntervalMs = 2000.0;
constexpr size_t kAdminHammerIters = 16;  ///< workload passes per timed leg
constexpr double kAdminOverheadLimitPct = 2.0;

/// The metrics-history acceptance: the self-scrape pipeline — scraper
/// thread at a tight cadence, Gorilla TSDB appends for every registry
/// series, the reporter's SLO burn-rate judgement of every scrape — must
/// cost the instrumented data plane < 2% of its CPU. 25ms is 40x a
/// production scrape cadence, so the bound holds with a wide margin in
/// deployment.
constexpr double kHistoryScrapeIntervalMs = 25.0;
constexpr size_t kHistoryIters = 16;  ///< workload passes per timed leg
constexpr double kHistoryOverheadLimitPct = 2.0;

/// CPU seconds consumed so far by \p clock (a process or thread clock).
double CpuSeconds(clockid_t clock) {
  timespec ts{};
  AIMS_CHECK(::clock_gettime(clock, &ts) == 0);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

/// CPU seconds of the legs of one gate, in run order: base[i] ran before
/// test[i] and base[i + 1] after it.
struct PairedCpu {
  std::vector<double> base;
  std::vector<double> test;

  /// Runs the interleaved legs: \p run_leg(is_test, is_last_test).
  template <typename RunLeg>
  static PairedCpu Run(RunLeg run_leg) {
    PairedCpu cpu;
    cpu.base.push_back(run_leg(false, false));
    for (int i = 0; i < kTestLegs; ++i) {
      cpu.test.push_back(run_leg(true, i == kTestLegs - 1));
      cpu.base.push_back(run_leg(false, false));
    }
    return cpu;
  }
  static double Median(std::vector<double> values) {
    std::sort(values.begin(), values.end());
    return values[values.size() / 2];
  }
  /// The gated figure, in %: the median over test legs of test / mean of
  /// the two bracketing base legs, minus 1.
  double OverheadPct() const {
    std::vector<double> ratios;
    for (size_t i = 0; i < test.size(); ++i) {
      ratios.push_back(test[i] / (0.5 * (base[i] + base[i + 1])));
    }
    return (Median(ratios) - 1.0) * 100.0;
  }
  /// JSON fields shared by every gate.
  std::string Json(double limit_pct) const {
    auto list = [](const std::vector<double>& values) {
      std::string out = "[";
      for (size_t i = 0; i < values.size(); ++i) {
        out += (i == 0 ? "" : ", ") + obs::TrimmedDouble(values[i]);
      }
      return out + "]";
    };
    std::string out = "\"test_legs\": " + std::to_string(test.size());
    out += ", \"base_cpu_seconds\": " + list(base);
    out += ", \"test_cpu_seconds\": " + list(test);
    out += ", \"overhead_pct\": " + obs::TrimmedDouble(OverheadPct());
    out += ", \"overhead_limit_pct\": " + obs::TrimmedDouble(limit_pct);
    return out;
  }
};

/// A \p len-frame window of \p rec starting at \p start.
Recording Slice(const Recording& rec, size_t start, size_t len) {
  Recording out;
  out.sample_rate_hz = rec.sample_rate_hz;
  for (size_t i = start; i < start + len && i < rec.num_frames(); ++i) {
    out.frames.push_back(rec.frames[i]);
  }
  AIMS_CHECK(out.num_frames() >= 2);
  return out;
}

struct Workload {
  std::vector<std::vector<Recording>> ingests;  // per client
  Recording stream;                             // shared live-frame source
  std::vector<std::pair<std::string, linalg::Matrix>> vocabulary;
};

/// One workload, generated outside every timed region and reused by both
/// configurations so the work is identical to the frame.
Workload MakeWorkload() {
  synth::CyberGloveSimulator glove(synth::DefaultAslVocabulary(), 23);
  synth::SubjectProfile subject = glove.MakeSubject();
  auto sequence =
      glove.GenerateSequence({0, 1, 2, 3, 4, 5}, subject, 0.3, nullptr);
  AIMS_CHECK(sequence.ok());
  const Recording& source = sequence.ValueOrDie();

  Workload work;
  work.ingests.resize(kClients);
  for (size_t c = 0; c < kClients; ++c) {
    for (size_t i = 0; i < kIngestsPerClient; ++i) {
      size_t start = ((c * kIngestsPerClient + i) * kSliceFrames) %
                     (source.num_frames() - kSliceFrames);
      work.ingests[c].push_back(Slice(source, start, kSliceFrames));
    }
  }
  work.stream = Slice(source, 0, kStreamFrames);

  for (size_t s = 0; s < 4; ++s) {
    auto sign = glove.GenerateSign(s, subject);
    AIMS_CHECK(sign.ok());
    const Recording& rec = sign.ValueOrDie();
    linalg::Matrix segment(rec.num_frames(), rec.num_channels());
    for (size_t r = 0; r < rec.num_frames(); ++r) {
      segment.SetRow(r, rec.frames[r].values);
    }
    work.vocabulary.emplace_back(synth::DefaultAslVocabulary()[s].name,
                                 std::move(segment));
  }
  return work;
}

server::ServerConfig MakeConfig(bool observability, bool admin = false) {
  server::ServerConfig config;
  config.num_shards = kClients;
  config.num_threads = kClients;
  // No simulated I/O wait: the workload is pure CPU, so the delta between
  // the two modes is the instrumentation itself.
  config.system.disk_cost.simulate_io_wait = false;
  config.obs.enable_metrics = observability;
  config.obs.enable_tracing = observability;
  // Metrics history has its own paired mode (RunHistoryMode); keeping it
  // out of the base configurations keeps the on-vs-off delta pure
  // instrumentation and the hammer legs pure admin traffic.
  config.obs.enable_metrics_history = false;
  if (admin) config.obs.admin_port = 0;  // ephemeral loopback admin plane
  if (observability) {
    // Run the reporter thread at a service-like cadence so its snapshot
    // cost lands inside the timed region.
    config.obs.reporter_interval_ms = 10.0;
    config.obs.reporter.saturation_capacity =
        static_cast<double>(config.admission.queue_capacity);
  }
  return config;
}

/// Drives the full workload through \p srv with one thread per client.
size_t RunWorkload(server::AimsServer& srv, const Workload& work) {
  std::vector<std::thread> clients;
  for (size_t c = 0; c < kClients; ++c) {
    clients.emplace_back([c, &srv, &work] {
      server::ClientId client = c;
      AIMS_CHECK(srv.OpenSession({client, /*enable_recognition=*/true}).ok());
      for (const Recording& rec : work.ingests[c]) {
        auto stored = srv.IngestRecording({client, "bench", rec});
        AIMS_CHECK(stored.ok());
        for (size_t q = 0; q < kQueriesPerIngest; ++q) {
          server::QueryRequest query;
          query.session = stored->session;
          query.channel = (c + q) % rec.num_channels();
          query.first_frame = q * (rec.num_frames() / 2);
          query.last_frame = rec.num_frames() - 1;
          auto submitted = srv.SubmitQuery({client, query});
          AIMS_CHECK(submitted.ok());
          server::QueryOutcome outcome = submitted->ticket->Wait();
          AIMS_CHECK(outcome.state == server::QueryState::kComplete);
        }
      }
      AIMS_CHECK(srv.StreamSamples({client, work.stream.frames}).ok());
      AIMS_CHECK(srv.CloseSession({client}).ok());
    });
  }
  for (auto& t : clients) t.join();
  return kClients * kIngestsPerClient * (1 + kQueriesPerIngest) + kClients;
}

/// \p iters back-to-back workload passes through \p srv; returns the
/// process CPU seconds they took (every thread of the process).
double CpuWorkloadIters(server::AimsServer& srv, const Workload& work,
                        size_t iters, size_t* ops) {
  const double start = CpuSeconds(CLOCK_PROCESS_CPUTIME_ID);
  size_t total = 0;
  for (size_t i = 0; i < iters; ++i) total += RunWorkload(srv, work);
  if (ops != nullptr) *ops = total;
  return CpuSeconds(CLOCK_PROCESS_CPUTIME_ID) - start;
}

struct OnOffResult {
  PairedCpu cpu;  ///< base = observability off, test = on
  size_t ops = 0;  ///< per leg
  size_t traces_recorded = 0;
  size_t traces_dropped = 0;
};

/// One on/off leg on a FRESH server: kOnOffIters workload passes. When
/// \p export_dir is non-empty the instrumented server's Prometheus and
/// Chrome-trace dumps are written there.
double RunOnOffLeg(bool observability, const Workload& work,
                   OnOffResult* result, const std::string& export_dir) {
  server::AimsServer srv(MakeConfig(observability));
  for (const auto& [label, segment] : work.vocabulary) {
    AIMS_CHECK(srv.AddVocabularyEntry(label, segment).ok());
  }
  const double cpu = CpuWorkloadIters(srv, work, kOnOffIters, &result->ops);
  if (observability) {
    result->traces_recorded = srv.tracer().total_recorded();
    result->traces_dropped = srv.tracer().dropped();
    if (!export_dir.empty()) {
      std::ofstream prom(export_dir + "/observability_metrics.prom");
      prom << obs::PrometheusExport(srv.metrics());
      std::ofstream trace(export_dir + "/observability_trace.json");
      trace << obs::ChromeTraceExport(srv.tracer());
      AIMS_CHECK(prom.good() && trace.good());
      std::fprintf(stderr,
                   "bench_observability: wrote %s/observability_metrics.prom"
                   " and %s/observability_trace.json\n",
                   export_dir.c_str(), export_dir.c_str());
    }
  }
  srv.Shutdown();
  return cpu;
}

OnOffResult RunOnOffMode(const Workload& work, const std::string& export_dir) {
  OnOffResult result;
  result.cpu = PairedCpu::Run([&](bool on, bool last) {
    return RunOnOffLeg(on, work, &result, last ? export_dir : "");
  });
  return result;
}

/// One blocking loopback HTTP/1.1 GET; returns the status code or -1.
/// Reads to EOF — the admin plane always answers Connection: close.
int AdminGet(int port, const std::string& target) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  const std::string request =
      "GET " + target + " HTTP/1.1\r\nHost: localhost\r\n\r\n";
  size_t sent = 0;
  while (sent < request.size()) {
    ssize_t n = ::send(fd, request.data() + sent, request.size() - sent, 0);
    if (n <= 0) break;
    sent += static_cast<size_t>(n);
  }
  std::string raw;
  char buffer[4096];
  ssize_t n;
  while ((n = ::recv(fd, buffer, sizeof(buffer), 0)) > 0) {
    raw.append(buffer, static_cast<size_t>(n));
  }
  ::close(fd);
  if (raw.rfind("HTTP/1.1 ", 0) != 0 || raw.size() < 12) return -1;
  return std::atoi(raw.substr(9, 3).c_str());
}

struct HammerResult {
  PairedCpu cpu;              ///< base = admin idle, test = probers live
  size_t ops = 0;             ///< per leg
  size_t admin_requests = 0;  ///< served by the admin plane, last pair
  size_t admin_rejected = 0;  ///< canned 503s under overload, last pair
  size_t hammer_gets = 0;     ///< prober-side completed GETs, last pair
  double prober_cpu_seconds = 0.0;  ///< probers' own CPU, last pair
};

/// One timed leg on a FRESH server: kAdminHammerIters workload passes,
/// with the prober fleet live when \p with_hammer is set. Both legs are
/// structurally identical — same construction, same empty catalog — so
/// the only difference between them is the admin traffic. (A single
/// shared server would skew the comparison: the catalog accumulates
/// recordings across passes, so a second leg is always slower.) Returns
/// the leg's process CPU seconds less the probers' own thread CPU.
double RunHammerLeg(const Workload& work, bool with_hammer,
                    HammerResult* result) {
  server::AimsServer srv(MakeConfig(/*observability=*/true, /*admin=*/true));
  AIMS_CHECK(srv.admin_status().ok());
  const int port = srv.admin_http()->port();
  for (const auto& [label, segment] : work.vocabulary) {
    AIMS_CHECK(srv.AddVocabularyEntry(label, segment).ok());
  }

  // Probers are staggered across the probe interval, so the request rate
  // is at its steady kAdminHammerConns / interval from t=0 — no
  // synchronized connect burst, no settling wait. Each adds its own
  // thread CPU to prober_ns when it exits.
  std::mutex stop_mutex;
  std::condition_variable stop_cv;
  bool stop = false;
  std::atomic<size_t> gets{0};
  std::atomic<uint64_t> prober_ns{0};
  std::vector<std::thread> hammer;
  const auto interval =
      std::chrono::duration<double, std::milli>(kAdminProbeIntervalMs);
  auto sleep_unless_stopped = [&](auto duration) {
    std::unique_lock<std::mutex> lock(stop_mutex);
    return !stop_cv.wait_for(lock, duration, [&] { return stop; });
  };
  if (with_hammer) {
    for (size_t h = 0; h < kAdminHammerConns; ++h) {
      hammer.emplace_back([&, h] {
        if (sleep_unless_stopped(interval * h / kAdminHammerConns)) {
          for (size_t i = 0;; ++i) {
            const char* target = (i % 16 == 15) ? "/metrics" : "/healthz";
            if (AdminGet(port, target) > 0) {
              gets.fetch_add(1, std::memory_order_relaxed);
            }
            if (!sleep_unless_stopped(interval)) break;
          }
        }
        prober_ns.fetch_add(
            static_cast<uint64_t>(CpuSeconds(CLOCK_THREAD_CPUTIME_ID) * 1e9),
            std::memory_order_relaxed);
      });
    }
  }

  const double start = CpuSeconds(CLOCK_PROCESS_CPUTIME_ID);
  for (size_t i = 0; i < kAdminHammerIters; ++i) {
    result->ops = RunWorkload(srv, work) * kAdminHammerIters;
  }
  // Read before the probers stop: waking and joining 64 threads is the
  // load generator's cost, not the admin plane's.
  const double end = CpuSeconds(CLOCK_PROCESS_CPUTIME_ID);
  {
    std::lock_guard<std::mutex> lock(stop_mutex);
    stop = true;
  }
  stop_cv.notify_all();
  for (std::thread& t : hammer) t.join();
  // A prober's CPU before the first pass (thread start) and after the
  // end reading (its wake-up on stop) is a few microseconds.
  const double prober_seconds = static_cast<double>(prober_ns.load()) * 1e-9;
  const double cpu = end - start - prober_seconds;

  if (with_hammer) {
    result->admin_requests = srv.admin_http()->requests();
    result->admin_rejected = srv.admin_http()->rejected();
    result->hammer_gets = gets.load();
    result->prober_cpu_seconds = prober_seconds;
  }
  srv.Shutdown();
  return cpu;
}

/// The fully-instrumented workload with the admin plane idle vs. under the
/// kAdminHammerConns prober fleet, interleaved.
HammerResult RunAdminHammerMode(const Workload& work) {
  HammerResult result;
  result.cpu = PairedCpu::Run([&](bool with_hammer, bool) {
    return RunHammerLeg(work, with_hammer, &result);
  });
  return result;
}

struct HistoryResult {
  PairedCpu cpu;   ///< base = history disabled, test = scraper + SLO live
  size_t ops = 0;  ///< per leg
  // Store + scraper state after the last history leg.
  size_t scrapes = 0;
  obs::TimeSeriesStats stats;
  size_t slo_objectives = 0;
  size_t slo_burning = 0;
};

/// Writes the metrics-history dump artifact CI archives: store stats,
/// every series name, and one evaluated range query so the artifact
/// proves real samples survived compression, not just counters.
void WriteHistoryDump(server::AimsServer& srv, const std::string& path) {
  std::ofstream out(path);
  const obs::TimeSeriesStats stats = srv.metrics_history()->Stats();
  out << "{\n  \"artifact\": \"metrics_history_dump\",\n";
  out << "  \"stats\": {\"series\": " << stats.series
      << ", \"samples_appended\": " << stats.samples_appended
      << ", \"samples_retained\": " << stats.samples_retained
      << ", \"compressed_bytes\": " << stats.compressed_bytes
      << ", \"sealed_chunks\": " << stats.sealed_chunks
      << ", \"out_of_order_dropped\": " << stats.out_of_order_dropped
      << ", \"compression_ratio\": "
      << obs::TrimmedDouble(stats.compression_ratio) << "},\n";
  out << "  \"series\": [";
  const std::vector<std::string> names = srv.metrics_history()->SeriesNames();
  for (size_t i = 0; i < names.size(); ++i) {
    out << (i == 0 ? "" : ", ") << "\"" << obs::JsonEscape(names[i]) << "\"";
  }
  out << "],\n";
  server::QueryMetricsHistoryRequest query;
  query.series = "ingest.completed";
  query.func = obs::RangeFunc::kRate;
  query.start_ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                       std::chrono::system_clock::now().time_since_epoch())
                       .count() -
                   120'000;
  query.end_ms = 0;  // now
  query.step_ms = 1000;
  out << "  \"sample_query\": {\"series\": \"ingest.completed\", "
      << "\"func\": \"rate\", \"step_ms\": 1000, \"points\": [";
  auto evaluated = srv.QueryMetricsHistory(query);
  if (evaluated.ok()) {
    const auto& points = evaluated.ValueOrDie().points;
    for (size_t i = 0; i < points.size(); ++i) {
      out << (i == 0 ? "" : ", ") << "["
          << obs::TrimmedDouble(points[i].t_ms / 1000.0) << ", "
          << obs::TrimmedDouble(points[i].value) << "]";
    }
  }
  out << "]}\n}\n";
  AIMS_CHECK(out.good());
}

/// One leg on a FRESH server, fully instrumented either way, timed in
/// process CPU seconds; when \p with_history is set the Gorilla TSDB, the
/// self-scrape thread at kHistoryScrapeIntervalMs, and one SLO objective
/// (judged by the reporter once per scrape) are all live, so the delta
/// between the legs is the entire metrics-history pipeline.
double RunHistoryLeg(const Workload& work, bool with_history,
                     HistoryResult* result, const std::string& export_dir) {
  server::ServerConfig config = MakeConfig(/*observability=*/true);
  config.obs.enable_metrics_history = with_history;
  if (with_history) {
    config.obs.history_scrape_interval_ms = kHistoryScrapeIntervalMs;
    obs::SloObjective slo;
    slo.name = "ingest-availability";
    slo.kind = obs::SloKind::kErrorRatio;
    slo.objective = 0.999;
    slo.series = "ingest.failed";
    slo.total_series = "ingest.completed";
    config.obs.slos.push_back(slo);
  }
  server::AimsServer srv(config);
  for (const auto& [label, segment] : work.vocabulary) {
    AIMS_CHECK(srv.AddVocabularyEntry(label, segment).ok());
  }

  const double cpu = CpuWorkloadIters(srv, work, kHistoryIters, &result->ops);
  if (with_history) {
    result->scrapes = srv.metrics_scraper()->scrapes();
    result->stats = srv.metrics_history()->Stats();
    const std::vector<obs::SloStatus> slos = srv.reporter().Latest().slo;
    result->slo_objectives = slos.size();
    result->slo_burning = 0;
    for (const obs::SloStatus& status : slos) {
      if (status.burning) ++result->slo_burning;
    }
    if (!export_dir.empty()) {
      const std::string path = export_dir + "/observability_history.json";
      WriteHistoryDump(srv, path);
      std::fprintf(stderr, "bench_observability: wrote %s\n", path.c_str());
    }
  }
  srv.Shutdown();
  return cpu;
}

/// The fully-instrumented workload with metrics history off vs. with the
/// scrape->append->SLO pipeline live, interleaved.
HistoryResult RunHistoryMode(const Workload& work,
                             const std::string& export_dir) {
  HistoryResult result;
  result.cpu = PairedCpu::Run([&](bool with_history, bool last) {
    return RunHistoryLeg(work, with_history, &result,
                         last ? export_dir : "");
  });
  return result;
}

}  // namespace
}  // namespace aims

int main(int argc, char** argv) {
  const std::string export_dir = argc > 1 ? argv[1] : "";

  std::fprintf(stderr, "bench_observability: generating workload...\n");
  aims::Workload work = aims::MakeWorkload();

  // Warm-up: touch every code path once (allocator, page cache, lazily
  // built tables) so neither leg pays first-run costs.
  std::fprintf(stderr, "bench_observability: warm-up...\n");
  aims::OnOffResult warmup;
  aims::RunOnOffLeg(/*observability=*/false, work, &warmup, "");

  std::fprintf(stderr,
               "bench_observability: observability off/on (%d test legs)...\n",
               aims::kTestLegs);
  aims::OnOffResult onoff = aims::RunOnOffMode(work, export_dir);
  std::fprintf(stderr,
               "bench_observability: admin hammer, %zu connections "
               "(%d test legs)...\n",
               aims::kAdminHammerConns, aims::kTestLegs);
  aims::HammerResult hammer = aims::RunAdminHammerMode(work);
  std::fprintf(stderr,
               "bench_observability: metrics history, %.0fms scrape cadence "
               "(%d test legs)...\n",
               aims::kHistoryScrapeIntervalMs, aims::kTestLegs);
  aims::HistoryResult history = aims::RunHistoryMode(work, export_dir);

  const double overhead_pct = onoff.cpu.OverheadPct();
  const double admin_overhead_pct = hammer.cpu.OverheadPct();
  const double history_overhead_pct = history.cpu.OverheadPct();

  std::printf("{\n  \"bench\": \"bench_observability\",\n");
  std::printf("  \"schema_version\": %d,\n", aims::kSchemaVersion);
  std::printf(
      "  \"config\": {\"clients\": %zu, \"ingests_per_client\": %zu, "
      "\"queries_per_ingest\": %zu, \"stream_frames\": %zu, "
      "\"slice_frames\": %zu, \"test_legs\": %d},\n",
      aims::kClients, aims::kIngestsPerClient, aims::kQueriesPerIngest,
      aims::kStreamFrames, aims::kSliceFrames, aims::kTestLegs);
  std::printf(
      "  \"onoff\": {\"iters_per_leg\": %zu, \"ops_per_leg\": %zu, "
      "\"traces_recorded\": %zu, \"traces_dropped\": %zu, %s},\n",
      aims::kOnOffIters, onoff.ops, onoff.traces_recorded,
      onoff.traces_dropped, onoff.cpu.Json(aims::kMaxOverheadPct).c_str());
  std::printf(
      "  \"admin\": {\"connections\": %zu, \"probe_interval_ms\": %.0f, "
      "\"ops_per_leg\": %zu, \"hammer_gets\": %zu, "
      "\"admin_requests\": %zu, \"admin_rejected\": %zu, "
      "\"prober_cpu_seconds\": %s, %s},\n",
      aims::kAdminHammerConns, aims::kAdminProbeIntervalMs, hammer.ops,
      hammer.hammer_gets, hammer.admin_requests, hammer.admin_rejected,
      aims::obs::TrimmedDouble(hammer.prober_cpu_seconds).c_str(),
      hammer.cpu.Json(aims::kAdminOverheadLimitPct).c_str());
  std::printf(
      "  \"history\": {\"scrape_interval_ms\": %.0f, \"ops_per_leg\": %zu, "
      "\"scrapes\": %zu, \"series\": %llu, \"samples_appended\": %llu, "
      "\"samples_retained\": %llu, \"compressed_bytes\": %llu, "
      "\"compression_ratio\": %.2f, \"slo_objectives\": %zu, "
      "\"slo_burning\": %zu, %s}\n}\n",
      aims::kHistoryScrapeIntervalMs, history.ops, history.scrapes,
      static_cast<unsigned long long>(history.stats.series),
      static_cast<unsigned long long>(history.stats.samples_appended),
      static_cast<unsigned long long>(history.stats.samples_retained),
      static_cast<unsigned long long>(history.stats.compressed_bytes),
      history.stats.compression_ratio, history.slo_objectives,
      history.slo_burning,
      history.cpu.Json(aims::kHistoryOverheadLimitPct).c_str());
  // The report must reach the artifact even when a gate below aborts.
  std::fflush(stdout);

  // The contract this bench exists to enforce: full observability (metrics
  // + tracing + reporter thread) costs less than kMaxOverheadPct of the
  // CPU of a CPU-bound mixed workload.
  AIMS_CHECK(overhead_pct < aims::kMaxOverheadPct);
  // And the admin plane under a 64-connection hammer costs the data plane
  // less than kAdminOverheadLimitPct on top of instrumentation itself.
  AIMS_CHECK(hammer.admin_requests > 0);
  AIMS_CHECK(admin_overhead_pct < aims::kAdminOverheadLimitPct);
  // And the whole metrics-history pipeline — scraper thread, Gorilla
  // appends, SLO evaluation — costs less than kHistoryOverheadLimitPct
  // even at a 40x-production scrape cadence, with real data flowing.
  AIMS_CHECK(history.scrapes > 0);
  AIMS_CHECK(history.stats.samples_appended > 0);
  AIMS_CHECK(history.slo_objectives == 1);
  AIMS_CHECK(history_overhead_pct < aims::kHistoryOverheadLimitPct);
  return 0;
}
