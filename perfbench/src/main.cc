// aims_perfbench — the AIMS benchmark driver.
//
//   aims_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                  [--work-dir <dir>] [--small] [--corrupt-expected]
//
// Runs one workload against an in-process AimsServer through the typed
// api.h surface, checks every answer, and prints one JSON object as the
// last line of standard output:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// With --trace 0 the metrics are the end-to-end ones; with --trace 1 they
// are the per-layer ones, and the run also writes its span file. Progress
// and diagnostics go to standard error. The exit code is 0 only when every
// check passed.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "harness.h"
#include "workloads.h"

namespace perfbench {
namespace {

[[noreturn]] void Usage(const char* why) {
  std::fprintf(stderr,
               "aims_perfbench: %s\nusage: aims_perfbench --workload "
               "capture_durable_800hz|analysis_mem_100hz|"
               "live_recognition_800hz --seed N --seconds S --trace 0|1 "
               "[--work-dir DIR] [--small] [--corrupt-expected]\n",
               why);
  std::exit(2);
}

Options ParseOptions(int argc, char** argv) {
  Options options;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) Usage(("missing value for " + arg).c_str());
      return argv[++i];
    };
    if (arg == "--workload") {
      options.workload = value();
      have_workload = true;
    } else if (arg == "--seed") {
      options.seed = std::strtoull(value().c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      options.seconds = std::strtod(value().c_str(), nullptr);
    } else if (arg == "--trace") {
      options.trace = value() != "0";
    } else if (arg == "--work-dir") {
      options.work_dir = value();
    } else if (arg == "--small") {
      options.small = true;
    } else if (arg == "--corrupt-expected") {
      options.corrupt_expected = true;
    } else {
      Usage(("unknown argument " + arg).c_str());
    }
  }
  if (!have_workload) Usage("--workload is required");
  if (!(options.seconds > 0.0) || options.seconds > 120.0) {
    Usage("--seconds must be in (0, 120]");
  }
  return options;
}

void Put(MetricMap* m, const std::string& name, double value,
         const std::string& unit) {
  (*m)[name] = {value, unit};
}

MetricMap EndToEndMetrics(const RunResult& run) {
  MetricMap m;
  const double window = run.window_s > 0.0 ? run.window_s : 1.0;
  Put(&m, "setup_s", Quantile(run.setup_s, 0.5), "s");
  // The latencies are per-layer metrics (client.*): on a shared host they
  // follow the neighbours' load too closely to hold a bound. Every request
  // is due at a time fixed by the seed, so the CPU time is the cost of a
  // fixed amount of work.
  Put(&m, "cpu_cores_busy", (run.cpu.user + run.cpu.system) / window, "cores");
  Put(&m, "peak_rss_mb", run.peak_rss_mb, "MB");
  return m;
}

std::string ResultJson(bool correct, size_t attempted, size_t failed,
                       const MetricMap& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  bool first = true;
  char buf[64];
  for (const auto& [name, metric] : metrics) {
    // JSON has no NaN or infinity; a non-finite value is reported as -1.
    const double v = std::isfinite(metric.value) ? metric.value : -1.0;
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    out += first ? "" : ", ";
    first = false;
    out += JsonString(name) + ": {\"value\": " + buf +
           ", \"unit\": " + JsonString(metric.unit) + "}";
  }
  return out + "}}";
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  const Options options = ParseOptions(argc, argv);
  RunResult run;
  if (options.workload == "capture_durable_800hz") {
    run = RunCapture(options);
  } else if (options.workload == "analysis_mem_100hz") {
    run = RunAnalysis(options);
  } else if (options.workload == "live_recognition_800hz") {
    run = RunRecognition(options);
  } else {
    Usage(("unknown workload " + options.workload).c_str());
  }

  const size_t attempted = run.Attempted();
  const size_t failed = run.Failed();
  const bool correct = failed == 0 && attempted > 0;

  const double lag_p99 = Quantile(run.due.lag_ms, 0.99);
  std::fprintf(stderr,
               "perfbench: %s seed=%llu window=%.2fs due=%zu (tail p%g) "
               "reply=%zu (tail p%g) checks=%zu attempted=%zu failed=%zu "
               "generator_lag_p99=%.3fms cpu_user=%.3fs cpu_system=%.3fs\n",
               options.workload.c_str(),
               static_cast<unsigned long long>(options.seed), run.window_s,
               run.due.latency_ms.size(), run.due_tail_q * 100.0,
               run.reply.latency_ms.size(), run.reply_tail_q * 100.0,
               run.checks, attempted, failed, lag_p99, run.cpu.user,
               run.cpu.system);
  if (lag_p99 > run.due_period_ms) {
    std::fprintf(stderr,
                 "perfbench: WARNING generator fell behind: lag p99 %.3f ms "
                 "exceeds the %.3f ms request gap\n",
                 lag_p99, run.due_period_ms);
  }

  const MetricMap metrics = options.trace ? run.layers : EndToEndMetrics(run);
  if (options.trace && metrics.count("obs.tracer.dropped") != 0 &&
      metrics.at("obs.tracer.dropped").value != 0.0) {
    std::fprintf(stderr, "perfbench: WARNING the tracer dropped traces\n");
  }
  std::printf("%s\n", ResultJson(correct, attempted, failed, metrics).c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}
