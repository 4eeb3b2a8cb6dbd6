#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "obs/timeseries.h"

/// \file slo.h
/// \brief Declarative service-level objectives evaluated as multi-window
/// burn rates over the metrics history store (the Google SRE workbook
/// pattern): an objective leaves an error budget (1 - objective), the
/// burn rate is how many budgets per unit time the service is currently
/// spending, and an alert fires only when BOTH a fast window (catches
/// sudden breakage) and a slow window (suppresses blips) burn past the
/// threshold. Because the windows read the history store, the judgement
/// is about trajectories, not the single most recent snapshot.
///
/// The StatsReporter judges every objective as of the newest scrape and
/// carries the statuses in HealthSnapshot::slo. Three surfaces read them:
/// a burning objective degrades the health level with an SLO reason, the
/// aims_slo_* Prometheus family exposes the burn rates, and breach edges
/// become FlightRecorder events — with the bundle embedding each burning
/// series' recent history window.

namespace aims::obs {

/// \brief What an objective judges.
enum class SloKind {
  /// Fraction of scrape intervals where the latency quantile series
  /// (e.g. "span.query_ms.p99") stayed at or under latency_target_ms.
  kLatencyQuantile,
  /// 1 - increase(bad)/increase(total) over the window, from two counter
  /// series (errors vs. operations).
  kErrorRatio,
  /// Same math as kErrorRatio; named separately because the counters mean
  /// "unavailable responses" vs. "requests" (e.g. admission rejections).
  kAvailability,
};

const char* SloKindName(SloKind kind);

/// \brief One declarative objective.
struct SloObjective {
  /// Stable identifier — the {objective=...} label and the health reason.
  std::string name;
  SloKind kind = SloKind::kErrorRatio;
  /// Good-event fraction promised, e.g. 0.999. The error budget is
  /// 1 - objective.
  double objective = 0.999;
  /// kLatencyQuantile: the history series carrying the quantile, and the
  /// target it must stay under.
  std::string series;
  double latency_target_ms = 0.0;
  /// kErrorRatio / kAvailability: bad-event counter series (reuses
  /// `series`) and total-event counter series.
  std::string total_series;
  /// Multi-window burn: both must exceed burn_threshold to alert.
  /// Production-shaped defaults; tests shrink them to drive deterministic
  /// timelines.
  double fast_window_ms = 5 * 60 * 1000.0;
  double slow_window_ms = 60 * 60 * 1000.0;
  /// Budget-per-window multiple that counts as burning (14.4 is the
  /// classic "2% of a 30-day budget in one hour" page threshold).
  double burn_threshold = 14.4;
};

/// \brief One objective's latest judgement.
struct SloStatus {
  std::string name;
  SloKind kind = SloKind::kErrorRatio;
  double objective = 0.999;
  /// The series a post-mortem wants to see for this objective (the
  /// latency-quantile series, or the bad-event counter).
  std::string series;
  double fast_window_ms = 0.0;
  double slow_window_ms = 0.0;
  double fast_burn = 0.0;
  double slow_burn = 0.0;
  bool burning = false;
  /// Human-readable breach summary, empty while not burning.
  std::string reason;
  /// True only in the one HealthSnapshot whose judgement found this
  /// objective's not-burning -> burning edge (the flight recorder logs the
  /// breach from it). Not rendered.
  bool breached = false;
};

/// \brief Judges \p slo as of \p now_ms: the bad-event fraction over
/// the error budget in each window, and burning when both windows reach
/// the threshold. Stateless; the StatsReporter keeps the breach edges.
SloStatus EvaluateObjective(const MetricsTimeSeries& store,
                            const SloObjective& slo, int64_t now_ms);

/// \brief One status as a JSON object — the /healthz "slo" entries and the
/// flight-record bundle's "slo" entries.
void AppendSloJson(std::string* out, const SloStatus& status);

/// \brief The aims_slo_* Prometheus family for a set of statuses:
/// aims_slo_objective, aims_slo_burn_rate_fast/slow, aims_slo_burning —
/// one {objective="<name>"} labelled series each, family-major like the
/// tenant/shard families. Appended by the /metrics handler.
void AppendSloFamily(std::string* out, const std::vector<SloStatus>& slos);

}  // namespace aims::obs
