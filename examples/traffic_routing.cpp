// Traffic routing example: the paper's motivating scenario (§I). An
// autonomous taxi must pick the route with the best chance of an on-time
// airport arrival:
//
//  * multi-modal data: a GPS fleet is map-matched onto the road network
//  * governance: per-edge time-varying travel-time distributions are
//    learned ((I, D) pairs), edge-centric and path-centric
//  * decision: K candidate routes are compared under several risk
//    profiles, with first-order stochastic dominance pruning, plus a
//    multi-objective skyline over (time, distance).

#include <cstdio>

#include "src/decision/multiobj/pareto.h"
#include "src/decision/routing/stochastic_router.h"
#include "src/decision/uncertain/dominance.h"
#include "src/decision/uncertain/utility.h"
#include "src/governance/fusion/map_matcher.h"
#include "src/governance/uncertainty/travel_cost_models.h"
#include "src/sim/road_gen.h"
#include "src/sim/traffic_sim.h"
#include "src/sim/traj_sim.h"

int main() {
  using namespace tsdm;
  Rng rng(11);

  // --- City and ground-truth traffic ------------------------------------
  GridNetworkSpec gspec;
  gspec.rows = 8;
  gspec.cols = 8;
  gspec.diagonal_probability = 0.2;
  RoadNetwork net = GenerateGridNetwork(gspec, &rng);
  TrafficSimulator traffic(&net, TrafficSpec{});
  std::printf("city: %zu intersections, %zu road segments\n", net.NumNodes(),
              net.NumEdges());

  // --- Fleet data collection + map matching (governance/fusion) ---------
  HmmMapMatcher matcher(&net);
  EdgeCentricModel edge_model(static_cast<int>(net.NumEdges()), 24);
  PathCentricModel path_model(24, 6);
  int trips = 0;
  for (int i = 0; i < 800; ++i) {
    std::vector<int> path = RandomPath(net, 4, 20, &rng);
    if (path.empty()) continue;
    double depart = (6.0 + rng.Uniform(0.0, 4.0)) * 3600.0;  // morning
    GpsSpec gps;
    SimulatedDrive drive = SimulateDrive(net, traffic, path, depart, gps,
                                         &rng);
    if (drive.gps.NumPoints() < 3) continue;
    Result<MapMatchResult> match = matcher.Match(drive.gps);
    if (!match.ok()) continue;
    TripObservation trip;
    trip.edge_path = drive.edge_path;
    trip.depart_seconds = depart;
    trip.edge_times = traffic.SamplePathEdgeTimes(path, depart, &rng);
    edge_model.AddTrip(trip);
    path_model.AddTrip(trip);
    ++trips;
  }
  if (!edge_model.Build(32).ok() || !path_model.Build(32, 15).ok()) {
    std::printf("failed to build travel-cost models\n");
    return 1;
  }
  std::printf("map-matched %d fleet trips; %zu path-centric sub-path "
              "distributions learned\n",
              trips, path_model.NumLearnedSubpaths());

  // --- Candidate routes to the "airport" (opposite corner) --------------
  int source = 0;
  int target = static_cast<int>(net.NumNodes()) - 1;
  double depart = 8.0 * 3600.0;  // morning rush
  StochasticRouter router(
      &net, [&](const std::vector<int>& edges, double t) {
        return path_model.PathCostDistribution(edges, t);
      });
  Result<std::vector<RouteCandidate>> candidates =
      router.Candidates(source, target, 8, depart);
  if (!candidates.ok()) {
    std::printf("routing failed: %s\n",
                candidates.status().ToString().c_str());
    return 1;
  }

  std::printf("\n%-6s %-8s %-10s %-10s %-12s\n", "route", "edges",
              "mean[s]", "stdev[s]", "P(on time)");
  std::vector<Histogram> costs;
  double deadline = (*candidates)[0].cost.Quantile(0.85);
  for (size_t i = 0; i < candidates->size(); ++i) {
    const auto& c = (*candidates)[i];
    std::printf("%-6zu %-8zu %-10.1f %-10.1f %-12.3f\n", i,
                c.path.edges.size(), c.cost.Mean(), c.cost.Stdev(),
                c.cost.Cdf(deadline));
    costs.push_back(c.cost);
  }

  // --- Stochastic dominance pruning + risk profiles ---------------------
  PruneStats stats = FsdPruneStats(costs);
  std::printf("\nFSD pruning: %d candidates -> %d survivors (%.0f%% pruned)\n",
              stats.total, stats.survivors, 100.0 * stats.pruned_fraction);
  RiskNeutralUtility neutral;
  ExponentialUtility averse(3.0, costs[0].Mean());
  ExponentialUtility loving(-3.0, costs[0].Mean());
  DeadlineUtility on_time(deadline);
  for (const UtilityFunction* u :
       std::vector<const UtilityFunction*>{&neutral, &averse, &loving,
                                           &on_time}) {
    std::printf("  %-22s -> route %d\n", u->Name().c_str(),
                Decide(costs, DecisionRule::Utility(*u)).index);
  }

  // --- Multi-objective skyline over (time, distance) --------------------
  Result<std::vector<SkylinePath>> skyline = SkylineRoutes(
      net, source, target, {FreeFlowTimeCost(net), LengthCost(net)}, 24);
  if (skyline.ok()) {
    std::printf("\nskyline (time[s], distance[m]): %zu non-dominated routes\n",
                skyline->size());
    for (const auto& sp : *skyline) {
      std::printf("  (%.0f, %.0f)\n", sp.costs[0], sp.costs[1]);
    }
    std::vector<std::vector<double>> sk_costs;
    for (const auto& sp : *skyline) sk_costs.push_back(sp.costs);
    std::printf("  time-focused commuter picks #%d; distance-focused fleet "
                "picks #%d\n",
                ScalarizedBest(sk_costs, {1.0, 0.001}),
                ScalarizedBest(sk_costs, {0.001, 1.0}));
  }
  return 0;
}
