#include "src/decision/routing/stochastic_router.h"

namespace tsdm {

Result<std::vector<RouteCandidate>> StochasticRouter::Candidates(
    int source, int target, int k, double depart_seconds) const {
  Result<std::vector<Path>> paths = KShortestPaths(
      *network_, source, target, k, FreeFlowTimeCost(*network_));
  if (!paths.ok()) return paths.status();

  std::vector<RouteCandidate> candidates;
  for (const Path& p : *paths) {
    Result<Histogram> cost = cost_model_(p.edges, depart_seconds);
    if (!cost.ok()) continue;  // model has no coverage for this path
    RouteCandidate c;
    c.path = p;
    c.cost = *cost;
    candidates.push_back(std::move(c));
  }
  if (candidates.empty()) {
    return Status::NotFound(
        "StochasticRouter: no candidate has a cost distribution");
  }
  return candidates;
}

}  // namespace tsdm
