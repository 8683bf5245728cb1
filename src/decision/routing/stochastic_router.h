#ifndef TSDM_DECISION_ROUTING_STOCHASTIC_ROUTER_H_
#define TSDM_DECISION_ROUTING_STOCHASTIC_ROUTER_H_

#include <vector>

#include "src/common/status.h"
#include "src/governance/uncertainty/histogram.h"
#include "src/governance/uncertainty/travel_cost_models.h"
#include "src/spatial/road_network.h"
#include "src/spatial/shortest_path.h"

namespace tsdm {

/// A candidate route with its travel-time distribution under a cost model.
struct RouteCandidate {
  Path path;
  Histogram cost;
};

/// Stochastic route selection (§II-D): enumerate K shortest candidate
/// paths by free-flow time and attach cost distributions from the model.
/// The decision over them is Decide (src/decision/uncertain/utility.h).
class StochasticRouter {
 public:
  /// The network must outlive the router.
  StochasticRouter(const RoadNetwork* network, PathCostModel cost_model)
      : network_(network), cost_model_(std::move(cost_model)) {}

  /// Enumerates up to k candidate routes with cost distributions.
  /// Candidates whose cost the model cannot estimate are skipped; fails if
  /// none can be estimated.
  Result<std::vector<RouteCandidate>> Candidates(int source, int target,
                                                 int k,
                                                 double depart_seconds) const;

 private:
  const RoadNetwork* network_;
  PathCostModel cost_model_;
};

}  // namespace tsdm

#endif  // TSDM_DECISION_ROUTING_STOCHASTIC_ROUTER_H_
