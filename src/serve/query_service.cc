#include "src/serve/query_service.h"

#include "src/decision/uncertain/utility.h"
#include "src/obs/flight_recorder.h"

namespace tsdm {

void ScoreCandidates(const RouteQuery& query, const std::vector<Path>& routes,
                     const std::vector<Result<Histogram>>& costs,
                     RouteAnswer* answer) {
  // The deadline is a time of day and the cost histograms are over travel
  // time, so a route is on time when its travel time fits the budget.
  const bool has_deadline = query.arrival_deadline_seconds > 0.0;
  const double budget = query.arrival_deadline_seconds - query.depart_seconds;
  const Decision decision =
      Decide(costs, has_deadline ? DecisionRule::OnTime(budget)
                                 : DecisionRule::MeanCost());
  answer->num_candidates = decision.num_scored;
  if (decision.index < 0) {
    answer->status =
        Status::NotFound("serve: no candidate route has a cost distribution");
    return;
  }
  const size_t best = static_cast<size_t>(decision.index);
  answer->route = routes[best];
  answer->cost_mean_seconds = costs[best].value().Mean();
  answer->on_time_probability = has_deadline ? decision.score : 0.0;
}

bool IsShedCode(StatusCode code) {
  return code == StatusCode::kResourceExhausted ||
         code == StatusCode::kFailedPrecondition ||
         code == StatusCode::kUnavailable;
}

RouteAnswer AnswerUnserved(Status status, uint64_t request_id, int shard,
                           uint64_t client_request_id, std::string tenant,
                           uint64_t queued_ns, bool record) {
  RouteAnswer answer;
  answer.status = std::move(status);
  answer.client_request_id = client_request_id;
  answer.tenant_id = std::move(tenant);
  answer.queue_seconds = 1e-9 * static_cast<double>(queued_ns);
  answer.stages.queue_ns = queued_ns;
  if (record) FlightRecorder::MaybeComplete(request_id, shard, answer);
  return answer;
}

}  // namespace tsdm
