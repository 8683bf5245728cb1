#include "src/serve/query_service.h"

#include "src/obs/flight_recorder.h"

namespace tsdm {

void ScoreCandidates(const RouteQuery& query, const std::vector<Path>& routes,
                     const std::vector<Result<Histogram>>& costs,
                     RouteAnswer* answer) {
  // The deadline is a time of day and the cost histograms are over travel
  // time, so a route is on time when its travel time fits the budget.
  const bool has_deadline = query.arrival_deadline_seconds > 0.0;
  const double budget = query.arrival_deadline_seconds - query.depart_seconds;
  int best = -1;
  double best_score = 0.0;
  for (size_t i = 0; i < costs.size(); ++i) {
    if (!costs[i].ok()) continue;  // model has no coverage for this path
    ++answer->num_candidates;
    double score = has_deadline ? costs[i].value().Cdf(budget)
                                : -costs[i].value().Mean();
    if (best < 0 || score > best_score) {
      best = static_cast<int>(i);
      best_score = score;
    }
  }
  if (best < 0) {
    answer->status =
        Status::NotFound("serve: no candidate route has a cost distribution");
    return;
  }
  const Histogram& best_cost = costs[static_cast<size_t>(best)].value();
  answer->route = routes[static_cast<size_t>(best)];
  answer->cost_mean_seconds = best_cost.Mean();
  answer->on_time_probability = has_deadline ? best_cost.Cdf(budget) : 0.0;
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
