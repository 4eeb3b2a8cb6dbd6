#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "server/server.h"

/// \file harness.h
/// \brief Shared machinery of the AIMS benchmark: options, timing, the
/// timed window with its untimed warm-up, latency logs, the benchmark's own
/// spans around each API call, and the metric report printed as the last
/// line of standard output.

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double MsBetween(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::milli>(to - from).count();
}

/// \brief Command-line options of one run.
struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Scratch directory for the durable store (created and removed by the
  /// run) and for the traced run's span file.
  std::string work_dir = ".bench_build/run";
  /// Tiny inputs and short windows, for the self-test.
  bool small = false;
  /// Perturbs one expected answer, so a correct server must be reported as
  /// wrong (the self-test's proof that the checks bite).
  bool corrupt_expected = false;
};

/// \brief q-quantile (0..1) by linear interpolation between order
/// statistics; 0 for an empty sample.
double Quantile(std::vector<double> values, double q);
double Mean(const std::vector<double>& values);

/// \brief Process CPU seconds so far, in user and in system mode.
struct CpuTimes {
  double user = 0.0;
  double system = 0.0;
};
CpuTimes ProcessCpuTimes();
/// \brief Current resident set size of the process, in MB.
double RssMb();

/// \brief The timed window and, in a traced run, which parts of it carry
/// the benchmark's own spans. Requests before `start` are the warm-up.
/// A traced run alternates traced and untraced slices so that the tracing
/// overhead is measured against the same system state.
struct Window {
  Clock::time_point start;
  Clock::time_point end;
  bool trace = false;
  static constexpr double kSliceMs = 250.0;

  bool Contains(Clock::time_point t) const { return t >= start && t < end; }
  bool Traced(Clock::time_point t) const {
    if (!trace || !Contains(t)) return false;
    return static_cast<int64_t>(MsBetween(start, t) / kSliceMs) % 2 == 0;
  }
  double seconds() const {
    return std::chrono::duration<double>(end - start).count();
  }
};

/// \brief One span the benchmark records around an API call, in ms
/// relative to the window start.
struct ClientSpan {
  std::string name;
  uint64_t thread = 0;
  double start_ms = 0.0;
  double end_ms = 0.0;
  /// Links the span to the server trace it caused (e.g. the ingest label).
  std::string link;
};

/// \brief A vector many client threads append to.
template <typename T>
class LockedLog {
 public:
  void Add(T item) {
    std::lock_guard<std::mutex> lock(mutex_);
    items_.push_back(std::move(item));
  }
  std::vector<T> Take() {
    std::lock_guard<std::mutex> lock(mutex_);
    return std::move(items_);
  }

 private:
  std::mutex mutex_;
  std::vector<T> items_;
};
using SpanLog = LockedLog<ClientSpan>;

/// \brief Per-thread operation record, merged after the threads join.
struct OpLog {
  /// Latency of operations counted in the timed window.
  std::vector<double> latency_ms;
  /// Send-to-reply latencies split by tracing slice (traced runs only).
  std::vector<double> traced_ms;
  std::vector<double> untraced_ms;
  /// How late open-loop requests were sent (ms after they were due).
  std::vector<double> lag_ms;
  size_t attempted = 0;
  size_t failed = 0;
  /// Operations of the warm-up: outside the window's latencies, but they
  /// count as attempted, and any that failed as failed.
  size_t warmup_attempted = 0;
  size_t warmup_failed = 0;

  void Merge(const OpLog& other);
};

/// \brief A named metric with its unit.
struct Metric {
  double value = 0.0;
  std::string unit;
};
using MetricMap = std::map<std::string, Metric>;

/// \brief What a workload hands back to main.
struct RunResult {
  /// Process CPU seconds of each set-up repetition.
  std::vector<double> setup_s;
  /// Open-loop requests, timed from when they were due: ingests on capture
  /// and analysis, stream batches on recognition.
  OpLog due;
  /// Requests timed from send to reply: the analysts' queries on capture
  /// and analysis, the stream batches' own service time on recognition.
  OpLog reply;
  /// Correctness checks made outside the loops (read-back, event parity).
  size_t checks = 0;
  size_t check_failures = 0;
  double window_s = 0.0;
  /// Process CPU seconds from the window's start until every request due
  /// in the window was answered.
  CpuTimes cpu;
  /// Largest resident set sampled during the window.
  double peak_rss_mb = 0.0;
  /// Tail percentiles of the two latency logs: the highest with at least
  /// ten samples beyond it, for the workload's sample count.
  double due_tail_q = 0.99;
  double reply_tail_q = 0.99;
  /// Gap between two consecutive requests of one open-loop generator
  /// thread; a generator later than this fell behind its schedule.
  double due_period_ms = 0.0;
  /// Per-layer metrics (traced runs only).
  MetricMap layers;

  /// Every operation and check the run made, warm-up included (the
  /// latency metrics cover the timed window only), and how many failed.
  size_t Attempted() const {
    return due.attempted + due.warmup_attempted + reply.attempted +
           reply.warmup_attempted + checks;
  }
  size_t Failed() const {
    return due.failed + due.warmup_failed + reply.failed +
           reply.warmup_failed + check_failures;
  }
};

/// \brief Highest of p99/p95/p90/p75/p50 with at least ten of \p count
/// samples beyond it.
double TailQuantileFor(size_t count);

/// \brief The server configuration every workload shares: 4 shards, 4
/// pool threads, default observability plus the reporter and the
/// metrics-history scraper at 1000 ms, and a trace ring large enough that
/// a run never evicts a finished trace.
aims::server::ServerConfig BaseServerConfig();

/// \brief Sleeps until \p t (returns at once when already past).
inline void SleepUntil(Clock::time_point t) { std::this_thread::sleep_until(t); }

/// \brief Writes \p text to \p path, creating parent directories.
bool WriteFile(const std::string& path, const std::string& text);

/// \brief JSON string literal for \p s.
std::string JsonString(const std::string& s);

/// \brief Renders the span file of a traced run: the benchmark's own spans
/// and every trace the server finished.
std::string SpanFileJson(const std::string& workload, uint64_t seed,
                         const std::vector<ClientSpan>& client_spans,
                         const std::vector<aims::obs::Trace>& server_traces,
                         Clock::time_point window_start);

}  // namespace perfbench
