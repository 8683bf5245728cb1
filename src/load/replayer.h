#ifndef TSDM_LOAD_REPLAYER_H_
#define TSDM_LOAD_REPLAYER_H_

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "src/common/status.h"
#include "src/load/scenario.h"
#include "src/serve/query_service.h"

namespace tsdm {

/// Open-loop trace replay: fires each TimedQuery at its recorded offset
/// (scaled by `speed`) against a QueryService, never waiting for answers
/// before sending the next request — the load model that actually
/// reproduces overload, since a closed loop would self-throttle exactly
/// when the system falls behind.
class TraceReplayer {
 public:
  struct Options {
    /// Time-axis multiplier: 2.0 replays twice as fast, 1.0 in real time.
    /// <= 0 replays as fast as possible (no pacing) — the mode the
    /// determinism tests use, since it removes wall-clock from the run.
    double speed = 1.0;
    /// Queue budget forwarded on every submission.
    double queue_budget_seconds = 0.25;
    /// Keep every RouteAnswer (in trace order) in Report::answers. Costs
    /// memory proportional to the trace; tests use it for bitwise
    /// answer-set comparison.
    bool collect_answers = false;
  };

  /// Per-tenant slice of a replay run.
  struct TenantOutcome {
    uint64_t offered = 0;    ///< queries fired
    uint64_t accepted = 0;   ///< Submit returned OK
    uint64_t rejected = 0;   ///< shed at the front door (Submit non-OK)
    uint64_t answered_ok = 0;
    uint64_t answered_error = 0;  ///< terminal answer with non-OK status
  };

  /// Everything a replay run produced. answers[i] corresponds to
  /// trace[i] (collect_answers only); a front-door rejection still
  /// produces an answer slot carrying the rejection status, so the
  /// answer set always covers the whole trace.
  struct Report {
    uint64_t offered = 0;
    uint64_t accepted = 0;
    uint64_t rejected = 0;
    uint64_t answered_ok = 0;
    uint64_t answered_error = 0;
    double wall_seconds = 0.0;
    std::map<std::string, TenantOutcome> tenants;
    std::vector<RouteAnswer> answers;  ///< collect_answers only
  };

  explicit TraceReplayer(Options options) : options_(options) {}
  TraceReplayer() : TraceReplayer(Options()) {}

  /// Replays the trace against any QueryService (QueryServer, ShardRouter)
  /// in-process and blocks until every accepted request has answered.
  /// The trace must be time-sorted (MergeStreams output is).
  Result<Report> Replay(const std::vector<TimedQuery>& trace,
                        QueryService* service);

 private:
  Options options_;
};

}  // namespace tsdm

#endif  // TSDM_LOAD_REPLAYER_H_
