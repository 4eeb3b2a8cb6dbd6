#include "workloads.h"

#include <malloc.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <deque>
#include <filesystem>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <tuple>

#include "inputs.h"
#include "layers.h"

namespace perfbench {

using aims::server::AimsServer;
using aims::server::ClientId;
using aims::server::GlobalSessionId;
using aims::server::QueryOutcome;
using aims::server::QueryRequest;
using aims::server::QueryState;
using aims::streams::Frame;
using aims::streams::Recording;

namespace {

/// Set-ups per run: at least kMinSetups, and more (up to kMaxSetups)
/// while their wall time adds up to less than kMinSetupTotalS. The
/// reported set-up time is the median of their process CPU time: on a
/// shared host, the wall time of the parallel preload moved by 40% from
/// run to run with the neighbours' load.
constexpr size_t kMinSetups = 3;
constexpr size_t kMaxSetups = 200;
constexpr double kMinSetupTotalS = 2.0;
/// Generator threads start this long after the last set-up.
constexpr double kStartDelayMs = 50.0;
/// Seed of the vocabulary templates. The vocabulary is the server's
/// configuration, not the workload's input, so it does not vary with
/// --seed: each evaluation's cost depends on the templates' lengths.
constexpr uint64_t kTemplateSeed = 77;

/// Untimed warm-up before the window. A process that starts on an idle
/// host runs its first seconds slower, so the warm-up spans several.
double WarmupSeconds(const Options& options) {
  return options.small ? 0.3 : 3.0;
}

[[noreturn]] void Die(const std::string& what) {
  std::fprintf(stderr, "perfbench: %s\n", what.c_str());
  std::exit(2);
}

void CheckOk(const aims::Status& status, const std::string& what) {
  if (!status.ok()) Die(what + ": " + status.ToString());
}

Clock::time_point After(Clock::time_point t, double ms) {
  return t + std::chrono::duration_cast<Clock::duration>(
                 std::chrono::duration<double, std::milli>(ms));
}

Window MakeWindow(const Options& options, double warmup_s,
                  Clock::time_point begin) {
  Window w;
  w.start = After(begin, warmup_s * 1000.0);
  w.end = After(w.start, options.seconds * 1000.0);
  w.trace = options.trace;
  return w;
}

/// Compares answers with the exact ones; optionally corrupts the first
/// expected answer so a correct server must be reported wrong.
class AnswerChecker {
 public:
  explicit AnswerChecker(bool corrupt) : corrupt_(corrupt) {}
  bool Check(double sum, double error_bound, ExactRange exact) {
    if (corrupt_ && !corrupted_.exchange(true)) {
      exact.sum += 1.0 + std::fabs(exact.sum);
    }
    return AnswerWithinBound(sum, error_bound, exact);
  }

 private:
  const bool corrupt_;
  std::atomic<bool> corrupted_{false};
};

/// Shared state of one run's client threads.
struct RunContext {
  AimsServer* server = nullptr;
  Window window;
  SpanLog spans;
  AnalyzeLog analyze;
  AnswerChecker* checker = nullptr;

  double RelMs(Clock::time_point t) const { return MsBetween(window.start, t); }
};

/// The labels the server gives its ingest and stream-batch traces; the
/// benchmark's spans carry them to link to those traces.
std::string IngestLabel(ClientId client, const std::string& name) {
  return std::string("ingest client=") + std::to_string(client) + " name=" +
         name;
}
std::string StreamLabel(ClientId client, size_t frames) {
  return std::string("stream_samples client=") + std::to_string(client) +
         " frames=" + std::to_string(frames);
}

/// One acknowledged ingest and the recording it stored.
struct Acked {
  GlobalSessionId id = 0;
  const Recording* rec = nullptr;
};

/// Thread-safe list of acknowledged ingests, with the most recent window.
class AckLog {
 public:
  explicit AckLog(size_t recent) : recent_cap_(recent) {}
  void Add(Acked a) {
    std::lock_guard<std::mutex> lock(mutex_);
    all_.push_back(a);
    recent_.push_back(a);
    if (recent_.size() > recent_cap_) recent_.pop_front();
  }
  /// A uniformly chosen recent ingest (rec == nullptr when none yet).
  Acked PickRecent(BenchRng& rng) {
    std::lock_guard<std::mutex> lock(mutex_);
    if (recent_.empty()) return {};
    return recent_[rng.Below(recent_.size())];
  }
  std::vector<Acked> All() {
    std::lock_guard<std::mutex> lock(mutex_);
    return all_;
  }

 private:
  const size_t recent_cap_;
  std::mutex mutex_;
  std::deque<Acked> recent_;
  std::vector<Acked> all_;
};

/// One scheduled open-loop ingest.
struct IngestJob {
  Clock::time_point due;
  ClientId client = 0;
  std::string name;
  const Recording* rec = nullptr;
};

/// Open-loop ingest generator: sends each job when it is due, times it
/// from that moment, and records the generator's lateness.
void RunIngestGenerator(RunContext& ctx, uint64_t thread_id,
                        std::vector<IngestJob> jobs, AckLog* acks, OpLog* log,
                        double* window_raw_bytes) {
  std::sort(jobs.begin(), jobs.end(),
            [](const IngestJob& a, const IngestJob& b) { return a.due < b.due; });
  for (IngestJob& job : jobs) {
    aims::server::IngestRecordingRequest request{job.client, job.name, *job.rec};
    SleepUntil(job.due);
    const auto sent = Clock::now();
    auto result = ctx.server->IngestRecording(std::move(request));
    const auto reply = Clock::now();
    const bool good =
        result.ok() && result->num_frames == job.rec->num_frames();
    if (ctx.window.Contains(job.due)) {
      ++log->attempted;
      log->latency_ms.push_back(MsBetween(job.due, reply));
      log->lag_ms.push_back(MsBetween(job.due, sent));
      *window_raw_bytes += RawBytes(*job.rec);
      if (!good) ++log->failed;
    } else {
      ++log->warmup_attempted;
      if (!good) ++log->warmup_failed;
    }
    if (good) acks->Add({result->session, job.rec});
    if (ctx.window.Traced(sent)) {
      ctx.spans.Add({"IngestRecording", thread_id, ctx.RelMs(sent),
                     ctx.RelMs(reply),
                     IngestLabel(job.client, job.name)});
    }
  }
}

/// One query an analyst is about to send.
struct QueryJob {
  QueryRequest request;
  const Recording* rec = nullptr;
  /// > 0: stop refining at this share of the range's sum of magnitudes.
  double target_share = 0.0;
};

/// Open-loop analyst: queries arrive as a Poisson process at \p rate_per_s,
/// so the work in the window is fixed by the seed. The analyst sends each
/// query when it is due (late, if the previous answer came after that),
/// waits for the answer, checks it against the exact sum, and times it
/// from send to reply.
void RunAnalyst(RunContext& ctx, uint64_t thread_id, ClientId client,
                uint64_t seed, double rate_per_s,
                const std::function<QueryJob(BenchRng&)>& pick, OpLog* log) {
  BenchRng rng(seed);
  const double mean_gap_ms = 1000.0 / rate_per_s;
  for (auto due = Clock::now();;) {
    due = After(due, -mean_gap_ms * std::log(1.0 - rng.Uniform()));
    if (due >= ctx.window.end) break;
    SleepUntil(due);
    QueryJob job = pick(rng);
    if (job.rec == nullptr) continue;
    QueryRequest& q = job.request;
    const ExactRange exact =
        ExactRangeSum(*job.rec, q.channel, q.first_frame, q.last_frame);
    if (job.target_share > 0.0) {
      q.target_error_bound = job.target_share * (exact.abs_sum + 1.0);
    }
    const auto start = Clock::now();
    const bool in_window = ctx.window.Contains(due);
    const bool traced = ctx.window.Traced(start);
    if (traced) q.explain = aims::server::ExplainMode::kAnalyze;
    auto submitted = ctx.server->SubmitQuery({client, q});
    QueryOutcome outcome;
    if (submitted.ok()) outcome = submitted->ticket->Wait();
    const auto end = Clock::now();

    bool good = submitted.ok() && outcome.status.ok() &&
                (outcome.state == QueryState::kComplete ||
                 outcome.state == QueryState::kPartialDeadline) &&
                outcome.answer.count == q.last_frame - q.first_frame + 1;
    // A deadline can expire before the first block; such an answer carries
    // no estimate to check.
    const bool has_estimate = outcome.answer.blocks_read > 0 ||
                              outcome.state == QueryState::kComplete;
    if (good && has_estimate) {
      good = ctx.checker->Check(outcome.answer.sum, outcome.answer.error_bound,
                                exact);
    }
    if (!in_window) {
      ++log->warmup_attempted;
      if (!good) ++log->warmup_failed;
      continue;
    }
    ++log->attempted;
    if (!good) ++log->failed;
    const double ms = MsBetween(start, end);
    log->latency_ms.push_back(ms);
    log->lag_ms.push_back(MsBetween(due, start));
    if (ctx.window.trace) (traced ? log->traced_ms : log->untraced_ms).push_back(ms);
    if (!traced) continue;
    ctx.spans.Add({"SubmitQuery+Wait", thread_id, ctx.RelMs(start),
                   ctx.RelMs(end),
                   std::string("query request_id=") +
                       std::to_string(outcome.trace.request_id())});
    if (outcome.breakdown.has_value() && outcome.plan.has_value()) {
      const aims::server::QueryBreakdown& b = *outcome.breakdown;
      AnalyzeSample a;
      a.admission_wait_ms = b.admission_wait_ms;
      a.refinement_ms = b.refinement_ms;
      a.blocks_fetched = static_cast<double>(b.blocks_fetched);
      a.query_coefficients =
          static_cast<double>(outcome.plan->num_query_coefficients);
      a.ran_to_exact = outcome.state == QueryState::kComplete &&
                       q.target_error_bound == 0.0;
      a.reconciled = b.blocks_read == b.predicted_cold_blocks;
      ctx.analyze.Add(a);
    }
  }
}

/// Ingests \p items (client, name, recording) from four threads; returns
/// the acknowledged ids in input order.
std::vector<GlobalSessionId> Preload(
    AimsServer& srv,
    const std::vector<std::tuple<ClientId, std::string, const Recording*>>&
        items) {
  std::vector<GlobalSessionId> ids(items.size(), 0);
  std::vector<std::thread> threads;
  std::atomic<bool> failed{false};
  for (size_t t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      for (size_t i = t; i < items.size(); i += 4) {
        const auto& [client, name, rec] = items[i];
        auto result = srv.IngestRecording({client, name, *rec});
        if (!result.ok()) {
          failed = true;
          return;
        }
        ids[i] = result->session;
      }
    });
  }
  for (std::thread& t : threads) t.join();
  if (failed) Die("preload ingest failed");
  return ids;
}

/// Opens one session per client id.
void OpenSessions(AimsServer& srv, const std::vector<ClientId>& clients,
                  bool recognition) {
  for (ClientId c : clients) {
    CheckOk(srv.OpenSession({c, recognition}).status(), "OpenSession");
  }
}

/// What the coordinating thread measures over the window.
struct WindowMeasure {
  StorageCounters before;
  StorageCounters after;
};

/// Runs on the coordinating thread while \p threads load the server, then
/// joins them. Samples the resident set every 20 ms over the window, and
/// measures the process CPU time from the window's start until the last
/// request due in it has been answered. Every request is due at a time
/// fixed by the seed, so that CPU time is the cost of a fixed amount of
/// work, even when the host slows the run and the answers come late.
WindowMeasure MeasureWindow(AimsServer& srv, const Window& w,
                            std::vector<std::thread>* threads,
                            RunResult* run) {
  WindowMeasure m;
  SleepUntil(w.start);
  const CpuTimes cpu0 = ProcessCpuTimes();
  m.before = ReadStorageCounters(srv);
  for (auto t = w.start; t < w.end; t = After(t, 20.0)) {
    SleepUntil(t);
    run->peak_rss_mb = std::max(run->peak_rss_mb, RssMb());
  }
  for (std::thread& t : *threads) t.join();
  const CpuTimes cpu1 = ProcessCpuTimes();
  run->cpu = {cpu1.user - cpu0.user, cpu1.system - cpu0.system};
  run->window_s = w.seconds();
  m.after = ReadStorageCounters(srv);
  return m;
}

/// Set-up repeated as above; all but the last server are torn down.
/// \p make builds and fills one server, \p teardown disposes of it.
std::unique_ptr<AimsServer> RepeatSetup(
    const Options& options, RunResult* run,
    const std::function<std::unique_ptr<AimsServer>(size_t)>& make,
    const std::function<void(std::unique_ptr<AimsServer>, size_t)>& teardown) {
  std::unique_ptr<AimsServer> srv;
  std::vector<double> wall_s;
  double total_s = 0.0;
  for (size_t r = 0;; ++r) {
    const auto t0 = Clock::now();
    const CpuTimes cpu0 = ProcessCpuTimes();
    srv = make(r);
    const CpuTimes cpu1 = ProcessCpuTimes();
    wall_s.push_back(MsBetween(t0, Clock::now()) / 1000.0);
    run->setup_s.push_back(cpu1.user - cpu0.user + cpu1.system - cpu0.system);
    total_s += wall_s.back();
    const bool done = options.small || r + 1 == kMaxSetups ||
                      (r + 1 >= kMinSetups && total_s >= kMinSetupTotalS);
    if (done) {
      std::fprintf(stderr,
                   "perfbench: %zu set-ups, CPU min %.6f median %.6f max %.6f "
                   "s, wall median %.6f s\n",
                   run->setup_s.size(), Quantile(run->setup_s, 0.0),
                   Quantile(run->setup_s, 0.5), Quantile(run->setup_s, 1.0),
                   Quantile(wall_s, 0.5));
      return srv;
    }
    teardown(std::move(srv), r);
    // Hand the torn-down server's memory back, so the next set-up (and the
    // window's peak resident set) starts from the same footprint.
    malloc_trim(0);
  }
}

/// Reads back \p count seeded picks of \p acked through QueryRange, every
/// channel over its whole range, against the exact sums.
void ReadBack(AimsServer& srv, const std::vector<Acked>& acked, size_t count,
              uint64_t seed, AnswerChecker& checker, RunResult* run) {
  BenchRng rng(seed);
  for (size_t i = 0; i < std::min(count, acked.size()); ++i) {
    const Acked& a = acked[rng.Below(acked.size())];
    const size_t last = a.rec->num_frames() - 1;
    bool good = true;
    for (size_t c = 0; c < a.rec->num_channels(); ++c) {
      auto stats = srv.catalog().QueryRange(a.id, c, 0, last);
      good = good && stats.ok() &&
             checker.Check(stats->sum, 0.0, ExactRangeSum(*a.rec, c, 0, last));
    }
    ++run->checks;
    if (!good) ++run->check_failures;
  }
}

/// Traced runs: writes the span file and fills the per-layer metrics.
void FinishTracedRun(const Options& options, RunContext& ctx, LayerInputs in,
                     RunResult* run) {
  in.server = ctx.server;
  in.window = ctx.window;
  in.client_spans = ctx.spans.Take();
  in.analyze = ctx.analyze.Take();
  in.traces = ctx.server->tracer().Snapshot();
  in.run = run;
  const std::string path =
      options.work_dir + "/spans-" + options.workload + ".json";
  if (!WriteFile(path, SpanFileJson(options.workload, options.seed,
                                    in.client_spans, in.traces,
                                    ctx.window.start))) {
    Die("cannot write " + path);
  }
  std::fprintf(stderr, "perfbench: wrote %zu client spans and %zu traces to %s\n",
               in.client_spans.size(), in.traces.size(), path.c_str());
  CollectLayerMetrics(in, &run->layers);
}

std::string StoreDir(const Options& options, size_t repeat) {
  return options.work_dir + "/store-" + options.workload + "-" +
         std::to_string(repeat);
}

void RemoveDir(const std::string& dir) {
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
}

}  // namespace

// ---------------------------------------------------------------------------
// capture_durable_800hz
// ---------------------------------------------------------------------------

RunResult RunCapture(const Options& options) {
  // Every ~8th durable ingest also checkpoints and takes 2-3x longer. At 18
  // gloves, concurrent ingests pushed that slow mode down to the median,
  // which then jumped between the modes from run to run; at 9 the median
  // stays on the fast mode.
  constexpr size_t kGloves = 9;
  constexpr size_t kGenerators = 3;
  constexpr size_t kChunk = 512;
  constexpr size_t kFactor = 8;
  constexpr size_t kPreload = 64;
  constexpr size_t kRecent = 64;
  constexpr ClientId kAnalyst = 100;
  // Queries per second of the analyst (Poisson arrivals).
  constexpr double kQueriesPerS = 1000.0;
  const double period_ms = 1000.0 * kChunk / 800.0;
  const double warmup_s = WarmupSeconds(options);
  const size_t live = static_cast<size_t>(
      std::ceil((warmup_s + options.seconds) * 1000.0 / period_ms)) + 1;
  const size_t preload_per_glove = (kPreload + kGloves - 1) / kGloves;

  // Inputs: one continuous 800 Hz stream per glove, cut into 512-frame
  // recordings; the first few per glove are the preload.
  std::vector<std::vector<Recording>> chunks(kGloves);
  for (size_t g = 0; g < kGloves; ++g) {
    const size_t total = preload_per_glove + live;
    Recording stream = Upsample(
        GloveStream(SubSeed(options.seed, g), g, total * kChunk / kFactor + 2),
        kFactor);
    for (size_t j = 0; j < total; ++j) {
      chunks[g].push_back(Slice(stream, j * kChunk, kChunk));
    }
  }
  std::vector<std::tuple<ClientId, std::string, const Recording*>> preload;
  for (size_t i = 0; i < kPreload; ++i) {
    const size_t g = i % kGloves;
    const size_t j = i / kGloves;
    preload.emplace_back(g + 1, std::string("pre-g") + std::to_string(g) + "-" +
                                    std::to_string(j),
                         &chunks[g][j]);
  }

  std::vector<ClientId> clients;
  for (size_t g = 0; g < kGloves; ++g) clients.push_back(g + 1);
  clients.push_back(kAnalyst);

  RunResult run;
  run.due_period_ms = period_ms * kGenerators / kGloves;
  std::vector<GlobalSessionId> preload_ids;
  auto make = [&](size_t r) {
    const std::string dir = StoreDir(options, r);
    RemoveDir(dir);
    aims::server::ServerConfig config = BaseServerConfig();
    config.system.durability.path = dir;
    config.system.durability.sync_mode =
        aims::storage::durable::WalSyncMode::kFsync;
    config.system.durability.group_commit_ms = 1.0;
    auto srv = std::make_unique<AimsServer>(config);
    CheckOk(srv->catalog().init_status(), "durable open");
    OpenSessions(*srv, clients, false);
    preload_ids = Preload(*srv, preload);
    return srv;
  };
  auto teardown = [&](std::unique_ptr<AimsServer> srv, size_t r) {
    srv->Shutdown();
    srv.reset();
    RemoveDir(StoreDir(options, r));
  };
  std::unique_ptr<AimsServer> srv = RepeatSetup(options, &run, make, teardown);
  AckLog acks(kRecent);
  for (size_t i = 0; i < preload_ids.size(); ++i) {
    acks.Add({preload_ids[i], std::get<2>(preload[i])});
  }

  AnswerChecker checker(options.corrupt_expected);
  RunContext ctx;
  ctx.server = srv.get();
  ctx.checker = &checker;
  const auto begin = After(Clock::now(), kStartDelayMs);
  ctx.window = MakeWindow(options, warmup_s, begin);

  std::vector<OpLog> gen_logs(kGenerators);
  std::vector<double> gen_bytes(kGenerators, 0.0);
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kGenerators; ++t) {
    std::vector<IngestJob> jobs;
    for (size_t g = t; g < kGloves; g += kGenerators) {
      const double phase_ms = period_ms * static_cast<double>(g) / kGloves;
      for (size_t k = 0; k < live; ++k) {
        IngestJob job;
        job.due = After(begin, phase_ms + period_ms * static_cast<double>(k));
        if (job.due >= ctx.window.end) break;
        job.client = g + 1;
        job.name = std::string("g") + std::to_string(g) + "-" + std::to_string(k);
        job.rec = &chunks[g][preload_per_glove + k];
        jobs.push_back(std::move(job));
      }
    }
    threads.emplace_back(RunIngestGenerator, std::ref(ctx), t + 1,
                         std::move(jobs), &acks, &gen_logs[t], &gen_bytes[t]);
  }
  // The analyst reads the 64 most recently acknowledged sessions.
  OpLog analyst_log;
  auto pick = [&](BenchRng& rng) {
    QueryJob job;
    Acked a = acks.PickRecent(rng);
    if (a.rec == nullptr) return job;
    job.rec = a.rec;
    job.request.session = a.id;
    job.request.channel = rng.Below(a.rec->num_channels());
    const size_t width = rng.LogUniform(16, a.rec->num_frames());
    job.request.first_frame = rng.Below(a.rec->num_frames() - width + 1);
    job.request.last_frame = job.request.first_frame + width - 1;
    return job;
  };
  threads.emplace_back(RunAnalyst, std::ref(ctx), 100, kAnalyst,
                       SubSeed(options.seed, 100), kQueriesPerS, pick,
                       &analyst_log);
  const WindowMeasure measure =
      MeasureWindow(*srv, ctx.window, &threads, &run);

  double window_raw = 0.0;
  for (size_t t = 0; t < kGenerators; ++t) {
    run.due.Merge(gen_logs[t]);
    window_raw += gen_bytes[t];
  }
  run.reply.Merge(analyst_log);
  run.due_tail_q = TailQuantileFor(run.due.latency_ms.size());
  run.reply_tail_q = 0.999;

  const std::vector<Acked> all = acks.All();
  ReadBack(*srv, all, 16, SubSeed(options.seed, 999), checker, &run);

  if (options.trace) {
    LayerInputs in;
    in.before = measure.before;
    in.after = measure.after;
    in.ingests = static_cast<double>(run.due.attempted);
    in.queries = static_cast<double>(run.reply.attempted);
    in.window_raw_bytes = window_raw;
    in.total_raw_bytes = 0.0;
    for (const Acked& a : all) in.total_raw_bytes += RawBytes(*a.rec);
    // The kernels replay the last 8 recordings, taken round-robin over
    // the gloves.
    for (size_t i = 0; i < 8; ++i) {
      const std::vector<Recording>& glove = chunks[i % kGloves];
      in.kernel_inputs.push_back(&glove[glove.size() - 1 - i / kGloves]);
    }
    FinishTracedRun(options, ctx, std::move(in), &run);
  }
  srv->Shutdown();
  srv.reset();
  RemoveDir(StoreDir(options, run.setup_s.size() - 1));
  return run;
}

// ---------------------------------------------------------------------------
// analysis_mem_100hz
// ---------------------------------------------------------------------------

RunResult RunAnalysis(const Options& options) {
  const size_t kSessions = options.small ? 8 : 64;
  const size_t kFrames = options.small ? 1024 : 4096;
  constexpr size_t kWriterFrames = 512;
  constexpr double kWriterPeriodMs = 100.0;
  constexpr size_t kAnalysts = 3;
  constexpr size_t kTenants = 16;
  constexpr ClientId kWriter = 200;
  // Queries per second of each analyst (Poisson arrivals).
  constexpr double kQueriesPerS = 1000.0;
  const double warmup_s = WarmupSeconds(options);

  // Inputs: alternating glove (28 channels) and classroom (24 channels)
  // sessions at 100 Hz, and the writer's 512-frame glove sessions.
  std::vector<Recording> sessions;
  for (size_t i = 0; i < kSessions; ++i) {
    const uint64_t s = SubSeed(options.seed, 1000 + i);
    sessions.push_back(i % 2 == 0 ? Slice(GloveStream(s, i, kFrames), 0, kFrames)
                                  : ClassroomStream(s, kFrames));
  }
  const size_t writes = static_cast<size_t>(std::ceil(
      (warmup_s + options.seconds) * 1000.0 / kWriterPeriodMs)) + 1;
  std::vector<Recording> writer_recs;
  for (size_t j = 0; j < writes; ++j) {
    writer_recs.push_back(Slice(
        GloveStream(SubSeed(options.seed, 5000 + j), 200 + j % 8, kWriterFrames), 0,
        kWriterFrames));
  }

  // The block cache holds about a quarter of the preloaded catalog's
  // blocks (a channel of n coefficients fills n*8/512 blocks).
  double catalog_bytes = 0.0;
  double total_raw = 0.0;
  for (const Recording& r : sessions) {
    catalog_bytes += static_cast<double>(r.num_channels() * kFrames * 8);
    total_raw += RawBytes(r);
  }
  const size_t cache_per_shard =
      static_cast<size_t>(catalog_bytes / 4.0 / 4.0);

  std::vector<std::tuple<ClientId, std::string, const Recording*>> preload;
  for (size_t i = 0; i < kSessions; ++i) {
    preload.emplace_back(1 + i % kTenants, std::string("s") + std::to_string(i),
                         &sessions[i]);
  }
  std::vector<ClientId> clients;
  for (size_t t = 0; t < kTenants; ++t) clients.push_back(1 + t);
  for (size_t a = 0; a < kAnalysts; ++a) clients.push_back(101 + a);
  clients.push_back(kWriter);

  RunResult run;
  run.due_period_ms = kWriterPeriodMs;
  std::vector<GlobalSessionId> ids;
  auto make = [&](size_t) {
    aims::server::ServerConfig config = BaseServerConfig();
    config.system.block_cache.capacity_bytes = cache_per_shard;
    auto srv = std::make_unique<AimsServer>(config);
    OpenSessions(*srv, clients, false);
    ids = Preload(*srv, preload);
    return srv;
  };
  auto teardown = [](std::unique_ptr<AimsServer> srv, size_t) {
    srv->Shutdown();
  };
  std::unique_ptr<AimsServer> srv = RepeatSetup(options, &run, make, teardown);
  std::fprintf(stderr,
               "perfbench: analysis catalog %.1f MB of coefficients, block "
               "cache %.1f MB (4 shards x %.1f MB)\n",
               catalog_bytes / 1e6, 4.0 * cache_per_shard / 1e6,
               cache_per_shard / 1e6);

  AnswerChecker checker(options.corrupt_expected);
  RunContext ctx;
  ctx.server = srv.get();
  ctx.checker = &checker;
  const auto begin = After(Clock::now(), kStartDelayMs);
  ctx.window = MakeWindow(options, warmup_s, begin);

  // Session popularity: Zipf over a seeded permutation of the sessions.
  std::vector<size_t> order(kSessions);
  for (size_t i = 0; i < kSessions; ++i) order[i] = i;
  BenchRng perm_rng(SubSeed(options.seed, 7));
  for (size_t i = kSessions; i > 1; --i) {
    std::swap(order[i - 1], order[perm_rng.Below(i)]);
  }
  const Zipf zipf(kSessions, 1.0);
  auto pick = [&](BenchRng& rng) {
    QueryJob job;
    const size_t s = order[zipf.Sample(rng)];
    job.rec = &sessions[s];
    QueryRequest& q = job.request;
    q.session = ids[s];
    q.channel = rng.Below(job.rec->num_channels());
    const size_t width = rng.LogUniform(16, kFrames);
    q.first_frame = rng.Below(kFrames - width + 1);
    q.last_frame = q.first_frame + width - 1;
    // Half run to exactness, a quarter stop at a 1% error bound, a quarter
    // carry a 0.5 ms deadline; three in ten use the batch lane.
    const size_t mode = rng.Below(4);
    if (mode == 2) job.target_share = 0.01;
    if (mode == 3) q.deadline_ms = 0.5;
    q.priority = rng.Below(10) < 3 ? aims::server::QueryPriority::kBatch
                                   : aims::server::QueryPriority::kInteractive;
    return job;
  };

  std::vector<IngestJob> jobs;
  for (size_t j = 0; j < writes; ++j) {
    IngestJob job;
    job.due = After(begin, kWriterPeriodMs * static_cast<double>(j));
    if (job.due >= ctx.window.end) break;
    job.client = kWriter;
    job.name = std::string("w") + std::to_string(j);
    job.rec = &writer_recs[j];
    jobs.push_back(std::move(job));
  }
  AckLog acks(1);
  OpLog writer_log;
  double window_raw = 0.0;
  std::vector<std::thread> threads;
  threads.emplace_back(RunIngestGenerator, std::ref(ctx), 1, std::move(jobs),
                       &acks, &writer_log, &window_raw);
  std::vector<OpLog> analyst_logs(kAnalysts);
  for (size_t a = 0; a < kAnalysts; ++a) {
    threads.emplace_back(RunAnalyst, std::ref(ctx), 101 + a, 101 + a,
                         SubSeed(options.seed, 101 + a), kQueriesPerS, pick,
                         &analyst_logs[a]);
  }
  const WindowMeasure measure =
      MeasureWindow(*srv, ctx.window, &threads, &run);

  run.due.Merge(writer_log);
  for (const OpLog& l : analyst_logs) run.reply.Merge(l);
  run.due_tail_q = TailQuantileFor(run.due.latency_ms.size());
  run.reply_tail_q = 0.999;

  const std::vector<Acked> written = acks.All();
  ReadBack(*srv, written, 8, SubSeed(options.seed, 999), checker, &run);

  if (options.trace) {
    LayerInputs in;
    in.before = measure.before;
    in.after = measure.after;
    in.ingests = static_cast<double>(run.due.attempted);
    in.queries = static_cast<double>(run.reply.attempted);
    in.window_raw_bytes = window_raw;
    in.total_raw_bytes = total_raw;
    for (const Acked& a : written) in.total_raw_bytes += RawBytes(*a.rec);
    for (size_t j = 0; j < std::min<size_t>(8, writer_recs.size()); ++j) {
      in.kernel_inputs.push_back(&writer_recs[j]);
    }
    FinishTracedRun(options, ctx, std::move(in), &run);
  }
  srv->Shutdown();
  return run;
}

// ---------------------------------------------------------------------------
// live_recognition_800hz
// ---------------------------------------------------------------------------

RunResult RunRecognition(const Options& options) {
  constexpr size_t kFactor = 8;
  constexpr size_t kStreams = 3;
  // One batch per recognizer evaluation: 64 frames (80 ms at 800 Hz). With
  // 8-frame batches every 10 ms, each evaluation (about 20 ms here) queues
  // the batches behind it, and a host that steals CPU tips the streams into
  // a growing backlog; a batch per evaluation leaves 60 ms of headroom.
  constexpr size_t kBatch = 64;
  constexpr double kBatchPeriodMs = 80.0;
  const double warmup_s = WarmupSeconds(options);
  const aims::recognition::StreamRecognizerConfig rconfig =
      ScaledRecognizerConfig(kFactor);

  const std::vector<SignTemplate> templates =
      SignTemplates(kTemplateSeed, kFactor);
  const size_t stream_frames_100hz = static_cast<size_t>(
      (warmup_s + options.seconds + 1.0) * 100.0);
  std::vector<Recording> streams;
  for (size_t s = 0; s < kStreams; ++s) {
    // One deck sequence, each stream starting a deck further: in a 20 s
    // window each stream signs most of its own deck, so every run's mix of
    // signs is close to the whole vocabulary three times over.
    streams.push_back(Upsample(GloveStream(SubSeed(options.seed, 300), 300 + s,
                                           stream_frames_100hz, 18 * s),
                               kFactor));
  }

  std::vector<ClientId> stream_clients;
  for (size_t s = 0; s < kStreams; ++s) stream_clients.push_back(1 + s);

  RunResult run;
  run.due_period_ms = kBatchPeriodMs;
  auto make = [&](size_t) {
    aims::server::ServerConfig config = BaseServerConfig();
    config.recognizer = rconfig;
    auto srv = std::make_unique<AimsServer>(config);
    for (const SignTemplate& t : templates) {
      CheckOk(srv->AddVocabularyEntry(t.label, t.segment), "AddVocabularyEntry");
    }
    OpenSessions(*srv, stream_clients, true);
    return srv;
  };
  auto teardown = [](std::unique_ptr<AimsServer> srv, size_t) {
    srv->Shutdown();
  };
  std::unique_ptr<AimsServer> srv = RepeatSetup(options, &run, make, teardown);

  RunContext ctx;
  ctx.server = srv.get();
  const auto begin = After(Clock::now(), kStartDelayMs);
  ctx.window = MakeWindow(options, warmup_s, begin);

  // Open loops: each stream sends 64 frames every 80 ms, phases staggered.
  // Each batch is timed twice: from when it was due, and from its send to
  // the reply that carries the recognized events.
  std::vector<OpLog> due_logs(kStreams);
  std::vector<OpLog> reply_logs(kStreams);
  std::vector<std::vector<ReferenceEvent>> stream_events(kStreams);
  std::vector<size_t> frames_sent(kStreams, 0);
  std::vector<std::thread> threads;
  for (size_t s = 0; s < kStreams; ++s) {
    threads.emplace_back([&, s] {
      const ClientId client = stream_clients[s];
      const Recording& rec = streams[s];
      OpLog& log = due_logs[s];
      const double phase_ms = kBatchPeriodMs * static_cast<double>(s) / kStreams;
      for (size_t k = 0;; ++k) {
        const auto due = After(begin, phase_ms + kBatchPeriodMs * static_cast<double>(k));
        const size_t first = k * kBatch;
        if (due >= ctx.window.end || first + kBatch > rec.num_frames()) break;
        aims::server::StreamSamplesRequest request;
        request.client = client;
        request.frames.assign(rec.frames.begin() + static_cast<ptrdiff_t>(first),
                              rec.frames.begin() + static_cast<ptrdiff_t>(first + kBatch));
        SleepUntil(due);
        const auto sent = Clock::now();
        auto result = srv->StreamSamples(std::move(request));
        const auto reply = Clock::now();
        const bool good = result.ok() && result->frames_pushed == kBatch;
        if (ctx.window.Contains(due)) {
          ++log.attempted;
          log.latency_ms.push_back(MsBetween(due, reply));
          log.lag_ms.push_back(MsBetween(due, sent));
          if (!good) ++log.failed;
          const double ms = MsBetween(sent, reply);
          reply_logs[s].latency_ms.push_back(ms);
          if (ctx.window.trace) {
            (ctx.window.Traced(sent) ? reply_logs[s].traced_ms
                                     : reply_logs[s].untraced_ms)
                .push_back(ms);
          }
        } else {
          ++log.warmup_attempted;
          if (!good) ++log.warmup_failed;
        }
        if (result.ok()) {
          for (const auto& e : result->events) stream_events[s].push_back(ToReference(e));
        }
        frames_sent[s] = first + kBatch;
        if (ctx.window.Traced(sent)) {
          ctx.spans.Add({"StreamSamples", 1 + s, ctx.RelMs(sent), ctx.RelMs(reply),
                         StreamLabel(client, kBatch)});
        }
      }
      auto closed = srv->CloseSession({client});
      if (closed.ok() && closed->final_event.has_value()) {
        stream_events[s].push_back(ToReference(*closed->final_event));
      }
    });
  }
  const WindowMeasure measure =
      MeasureWindow(*srv, ctx.window, &threads, &run);

  for (size_t s = 0; s < kStreams; ++s) {
    run.due.Merge(due_logs[s]);
    run.reply.Merge(reply_logs[s]);
  }
  run.due_tail_q = TailQuantileFor(run.due.latency_ms.size());
  run.reply_tail_q = TailQuantileFor(run.reply.latency_ms.size());

  // Event parity: a standalone recognizer fed exactly the frames a stream
  // sent must emit the same events. The references run in parallel.
  std::vector<std::vector<ReferenceEvent>> expected(kStreams);
  std::vector<std::vector<double>> push_us(kStreams);
  std::vector<std::thread> refs;
  for (size_t s = 0; s < kStreams; ++s) {
    refs.emplace_back([&, s] {
      const std::vector<Frame> frames(
          streams[s].frames.begin(),
          streams[s].frames.begin() + static_cast<ptrdiff_t>(frames_sent[s]));
      expected[s] = ReferenceEvents(templates, rconfig, frames,
                                    options.trace ? &push_us[s] : nullptr);
    });
  }
  for (std::thread& t : refs) t.join();
  if (options.corrupt_expected) expected[0].push_back({"corrupted", 0, 0});
  for (size_t s = 0; s < kStreams; ++s) {
    ++run.checks;
    if (stream_events[s] != expected[s]) ++run.check_failures;
    std::fprintf(stderr, "perfbench: stream %zu sent %zu frames, %zu events\n",
                 s, frames_sent[s], stream_events[s].size());
  }

  if (options.trace) {
    LayerInputs in;
    in.before = measure.before;
    in.after = measure.after;
    for (const auto& v : push_us) in.push_us.insert(in.push_us.end(), v.begin(), v.end());
    std::vector<Recording> kernel_recs;
    for (size_t j = 0; j < 8 && (j + 1) * 512 <= streams[0].num_frames(); ++j) {
      kernel_recs.push_back(Slice(streams[0], j * 512, 512));
    }
    for (const Recording& r : kernel_recs) in.kernel_inputs.push_back(&r);
    FinishTracedRun(options, ctx, std::move(in), &run);
  }
  srv->Shutdown();
  return run;
}

}  // namespace perfbench
