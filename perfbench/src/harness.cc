#include "harness.h"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>

namespace perfbench {

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

CpuTimes ProcessCpuTimes() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return {secs(usage.ru_utime), secs(usage.ru_stime)};
}

double RssMb() {
  std::ifstream statm("/proc/self/statm");
  double size_pages = 0.0;
  double resident_pages = 0.0;
  if (statm >> size_pages >> resident_pages) {
    return resident_pages * static_cast<double>(sysconf(_SC_PAGESIZE)) /
           (1024.0 * 1024.0);
  }
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB.
}

void OpLog::Merge(const OpLog& other) {
  latency_ms.insert(latency_ms.end(), other.latency_ms.begin(),
                    other.latency_ms.end());
  traced_ms.insert(traced_ms.end(), other.traced_ms.begin(),
                   other.traced_ms.end());
  untraced_ms.insert(untraced_ms.end(), other.untraced_ms.begin(),
                     other.untraced_ms.end());
  lag_ms.insert(lag_ms.end(), other.lag_ms.begin(), other.lag_ms.end());
  attempted += other.attempted;
  failed += other.failed;
  warmup_attempted += other.warmup_attempted;
  warmup_failed += other.warmup_failed;
}

double TailQuantileFor(size_t count) {
  for (double q : {0.99, 0.95, 0.90, 0.75}) {
    if ((1.0 - q) * static_cast<double>(count) >= 10.0) return q;
  }
  return 0.5;
}

aims::server::ServerConfig BaseServerConfig() {
  aims::server::ServerConfig config;
  config.num_shards = 4;
  config.num_threads = 4;
  config.obs.reporter_interval_ms = 1000.0;
  config.obs.history_scrape_interval_ms = 1000.0;
  config.obs.trace_capacity = size_t{1} << 17;
  return config;
}

bool WriteFile(const std::string& path, const std::string& text) {
  std::error_code ec;
  std::filesystem::create_directories(
      std::filesystem::path(path).parent_path(), ec);
  std::ofstream out(path, std::ios::out | std::ios::trunc);
  out << text;
  return static_cast<bool>(out);
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out + "\"";
}

std::string SpanFileJson(const std::string& workload, uint64_t seed,
                         const std::vector<ClientSpan>& client_spans,
                         const std::vector<aims::obs::Trace>& server_traces,
                         Clock::time_point window_start) {
  std::string out = "{\"workload\":" + JsonString(workload) +
                    ",\"seed\":" + std::to_string(seed) +
                    ",\"time_unit\":\"ms from window start\"" +
                    ",\"client_spans\":[";
  char buf[160];
  for (size_t i = 0; i < client_spans.size(); ++i) {
    const ClientSpan& s = client_spans[i];
    std::snprintf(buf, sizeof(buf),
                  "%s{\"thread\":%llu,\"start_ms\":%.4f,\"end_ms\":%.4f,",
                  i == 0 ? "" : ",", static_cast<unsigned long long>(s.thread),
                  s.start_ms, s.end_ms);
    out += buf;
    out += "\"name\":" + JsonString(s.name) + ",\"link\":" +
           JsonString(s.link) + "}";
  }
  out += "],\"server_traces\":[";
  for (size_t i = 0; i < server_traces.size(); ++i) {
    std::snprintf(buf, sizeof(buf), "%s{\"epoch_ms\":%.4f,\"trace\":",
                  i == 0 ? "" : ",",
                  MsBetween(window_start, server_traces[i].epoch()));
    out += buf;
    out += server_traces[i].ToJson() + "}";
  }
  return out + "]}\n";
}

}  // namespace perfbench
