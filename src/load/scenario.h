#ifndef TSDM_LOAD_SCENARIO_H_
#define TSDM_LOAD_SCENARIO_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/common/status.h"
#include "src/serve/request_queue.h"

namespace tsdm {

/// One workload event: a route query stamped with when it is offered and
/// which tenant / scheduling class offers it. The unit the scenario
/// generator emits, the trace format persists, and the replayer fires —
/// time is an offset from the stream's start so a trace replays at any
/// wall-clock moment (and any speed).
struct TimedQuery {
  double at_seconds = 0.0;  ///< offset from stream start, monotone in-stream
  std::string tenant;
  int priority = 0;
  RouteQuery query;
};

/// The five canonical urban-workload arrival shapes (PAPER.md scenarios:
/// commuter routing, ride-hailing dispatch, city-event monitoring). Each
/// shape is a deterministic intensity function rate(t) the generator draws
/// an inhomogeneous Poisson process from.
enum class ScenarioShape {
  /// Two rush-hour humps (Gaussian bumps at 25% and 75% of the horizon)
  /// over a low base — the classic commuter diurnal.
  kDiurnalCommute,
  /// Flat base, then a ramp to peak_multiplier over [60%, 80%] of the
  /// horizon with a fast decay after — a ride-hailing demand surge.
  kRideHailSurge,
  /// Near-silent, then a step to peak at 50% with exponential relaxation —
  /// a stadium emptying / flash crowd.
  kFlashCrowd,
  /// Base load with periodic square bursts of retry traffic — the query
  /// storm a sensor outage triggers in dashboards and alerting.
  kSensorOutageStorm,
  /// Linear ramp from base to base * peak_multiplier — slow organic growth
  /// that should trigger pre-scaling, not shedding.
  kSlowDrift,
};

/// Human-readable shape name ("diurnal", "surge", ...), for logs/reports.
const char* ScenarioShapeName(ScenarioShape shape);

/// One tenant's arrival process. Everything is seeded: the same spec
/// always generates the identical stream, which is what makes recorded
/// scenarios and replay-determinism tests possible.
struct TenantScenario {
  std::string tenant = kDefaultTenant;
  ScenarioShape shape = ScenarioShape::kDiurnalCommute;
  int priority = 0;            ///< scheduling class of every query
  double base_rate_hz = 50.0;  ///< baseline arrival intensity (queries/sec)
  /// Peak intensity as a multiple of base_rate_hz (shape-dependent use).
  double peak_multiplier = 4.0;
  double duration_seconds = 10.0;  ///< stream horizon
  uint64_t seed = 1;
  /// OD endpoints are drawn uniformly from [0, num_nodes); pass the road
  /// network's node count.
  int num_nodes = 2;
  int k = 4;  ///< candidate routes per query
  /// Fraction of queries issued with an arrival deadline (deadline =
  /// depart + a sampled slack), exercising the on-time-probability path.
  double deadline_fraction = 0.5;
};

/// Shape intensity at offset t, in queries/sec — the deterministic
/// rate function the Poisson thinning draws against. Exposed so tests can
/// assert shape properties (peak position, ramp monotonicity) directly.
double ScenarioRateAt(const TenantScenario& spec, double t);

/// Generates the tenant's timestamped query stream by thinning a
/// homogeneous Poisson process at the shape's maximum intensity:
/// candidate arrivals are drawn with exponential gaps at max-rate and kept
/// with probability rate(t)/max_rate. Deterministic in spec (seed
/// included). InvalidArgument on a non-positive rate/duration or
/// num_nodes < 2.
Result<std::vector<TimedQuery>> GenerateScenario(const TenantScenario& spec);

/// Merges per-tenant streams into one offered-load timeline, stably sorted
/// by timestamp (ties keep input order: stream index, then position).
std::vector<TimedQuery> MergeStreams(
    const std::vector<std::vector<TimedQuery>>& streams);

}  // namespace tsdm

#endif  // TSDM_LOAD_SCENARIO_H_
