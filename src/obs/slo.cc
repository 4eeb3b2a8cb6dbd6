#include "obs/slo.h"

#include <algorithm>
#include <cstdio>

#include "obs/json_util.h"

namespace aims::obs {

const char* SloKindName(SloKind kind) {
  switch (kind) {
    case SloKind::kLatencyQuantile:
      return "latency_quantile";
    case SloKind::kErrorRatio:
      return "error_ratio";
    case SloKind::kAvailability:
      return "availability";
  }
  return "error_ratio";
}

namespace {

/// Burn rate over one window ending at now: bad-event fraction divided by
/// the error budget (1 - objective). A burn of 1.0 spends the budget
/// exactly at the promised pace; the alert threshold is a multiple of it.
double BurnOver(const MetricsTimeSeries& store, const SloObjective& slo,
                int64_t now_ms, double window_ms) {
  const int64_t start = now_ms - static_cast<int64_t>(window_ms);
  const double budget = std::max(1.0 - slo.objective, 1e-9);
  double bad_fraction = 0.0;
  switch (slo.kind) {
    case SloKind::kLatencyQuantile: {
      // Scrapes are a uniform cadence, so the violating-sample fraction
      // approximates the violating-time fraction.
      const std::vector<gorilla::Sample> samples =
          store.Query(slo.series, start, now_ms);
      if (samples.empty()) return 0.0;
      size_t violating = 0;
      for (const gorilla::Sample& s : samples) {
        if (s.value > slo.latency_target_ms) ++violating;
      }
      bad_fraction =
          static_cast<double>(violating) / static_cast<double>(samples.size());
      break;
    }
    case SloKind::kErrorRatio:
    case SloKind::kAvailability: {
      const double total = IncreaseOver(store, slo.total_series, start, now_ms);
      if (total <= 0.0) return 0.0;
      const double bad = IncreaseOver(store, slo.series, start, now_ms);
      bad_fraction = std::clamp(bad / total, 0.0, 1.0);
      break;
    }
  }
  return bad_fraction / budget;
}

}  // namespace

SloStatus EvaluateObjective(const MetricsTimeSeries& store,
                            const SloObjective& slo, int64_t now_ms) {
  SloStatus status;
  status.name = slo.name;
  status.kind = slo.kind;
  status.objective = slo.objective;
  status.series = slo.series;
  status.fast_window_ms = slo.fast_window_ms;
  status.slow_window_ms = slo.slow_window_ms;
  status.fast_burn = BurnOver(store, slo, now_ms, slo.fast_window_ms);
  status.slow_burn = BurnOver(store, slo, now_ms, slo.slow_window_ms);
  // Both windows must burn: the fast window reacts, the slow window
  // confirms it is not a blip.
  status.burning = status.fast_burn >= slo.burn_threshold &&
                   status.slow_burn >= slo.burn_threshold;
  if (status.burning) {
    char reason[192];
    std::snprintf(reason, sizeof(reason),
                  "SLO %s burning: %.1fx budget over %.0fs, %.1fx over "
                  "%.0fs (threshold %.1fx)",
                  slo.name.c_str(), status.fast_burn,
                  slo.fast_window_ms / 1000.0, status.slow_burn,
                  slo.slow_window_ms / 1000.0, slo.burn_threshold);
    status.reason = reason;
  }
  return status;
}

void AppendSloJson(std::string* out, const SloStatus& status) {
  *out += "{\"name\":\"" + JsonEscape(status.name) + "\",\"kind\":\"" +
          SloKindName(status.kind) + "\",\"objective\":";
  AppendJsonDouble(out, status.objective);
  *out += ",\"series\":\"" + JsonEscape(status.series) + "\",\"fast_burn\":";
  AppendJsonDouble(out, status.fast_burn);
  *out += ",\"slow_burn\":";
  AppendJsonDouble(out, status.slow_burn);
  *out += ",\"burning\":";
  *out += status.burning ? "true" : "false";
  *out += ",\"reason\":\"" + JsonEscape(status.reason) + "\"}";
}

namespace {

/// Prometheus text-format label-value escaping: backslash, double quote,
/// and newline must be escaped or the series — and every family after it
/// — fails to parse. Objective names are operator-configured free text,
/// so escape rather than trust.
std::string PromLabelEscape(const std::string& value) {
  std::string out;
  out.reserve(value.size());
  for (char c : value) {
    switch (c) {
      case '\\': out += "\\\\"; break;
      case '"': out += "\\\""; break;
      case '\n': out += "\\n"; break;
      default: out += c;
    }
  }
  return out;
}

}  // namespace

void AppendSloFamily(std::string* out, const std::vector<SloStatus>& slos) {
  if (slos.empty()) return;
  struct DoubleDim {
    const char* name;
    double SloStatus::* field;
  };
  static constexpr DoubleDim kDoubleDims[] = {
      {"aims_slo_objective", &SloStatus::objective},
      {"aims_slo_burn_rate_fast", &SloStatus::fast_burn},
      {"aims_slo_burn_rate_slow", &SloStatus::slow_burn},
  };
  for (const DoubleDim& dim : kDoubleDims) {
    *out += std::string("# TYPE ") + dim.name + " gauge\n";
    for (const SloStatus& s : slos) {
      *out += std::string(dim.name) + "{objective=\"" + PromLabelEscape(s.name) +
              "\"} " + TrimmedDouble(s.*dim.field) + "\n";
    }
  }
  *out += "# TYPE aims_slo_burning gauge\n";
  for (const SloStatus& s : slos) {
    *out += "aims_slo_burning{objective=\"" + PromLabelEscape(s.name) +
            "\"} " + std::string(s.burning ? "1" : "0") + "\n";
  }
}

}  // namespace aims::obs
