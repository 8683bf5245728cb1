#ifndef TSDM_SPATIAL_SHORTEST_PATH_H_
#define TSDM_SPATIAL_SHORTEST_PATH_H_

#include <functional>
#include <vector>

#include "src/common/status.h"
#include "src/spatial/road_network.h"

namespace tsdm {

/// A routed path: node sequence plus the corresponding edge ids and cost.
struct Path {
  std::vector<int> nodes;
  std::vector<int> edges;
  double cost = 0.0;
};

/// Per-edge cost function; must return a non-negative cost for every edge id.
using EdgeCostFn = std::function<double(int edge_id)>;

/// Edge cost = free-flow travel time.
EdgeCostFn FreeFlowTimeCost(const RoadNetwork& network);
/// Edge cost = length in meters.
EdgeCostFn LengthCost(const RoadNetwork& network);

/// Dijkstra shortest path from `source` to `target` under `cost`.
/// NotFound when target is unreachable.
Result<Path> ShortestPath(const RoadNetwork& network, int source, int target,
                          const EdgeCostFn& cost);

/// One-to-all Dijkstra; returns per-node distances (infinity if unreachable).
std::vector<double> ShortestPathTree(const RoadNetwork& network, int source,
                                     const EdgeCostFn& cost);

/// A* with a Euclidean-distance/speed admissible heuristic over travel time.
/// `max_speed` must upper-bound every edge speed for admissibility.
Result<Path> AStarPath(const RoadNetwork& network, int source, int target,
                       const EdgeCostFn& cost, double max_speed);

/// Yen's algorithm: the K shortest loopless paths (ordered by cost).
/// Returns fewer than K when the graph does not contain K distinct paths.
///
/// Contract:
/// - `cost` is evaluated at most once per edge per call and the value is
///   reused by every search of the call, so it must be pure: the same edge
///   id must always give the same cost.
/// - The candidate order is part of the contract, ties included. Each
///   search settles nodes in (distance, node id) order; the next path is
///   the cheapest candidate, with equal costs broken by lexicographic node
///   sequence (`path_less`). tests/k_shortest_equivalence_test.cc pins both
///   against the original set-based implementation.
/// - With k > 1, one reverse Dijkstra from `target` gives every node a
///   lower bound on its remaining cost. The first search and each spur
///   search drop relaxations that the bound proves cannot come in under
///   the cost they need (the first path's cost, or the cheapest candidates
///   still to be picked), with a 1e-9 relative margin for rounding. Under
///   the total pop order this changes no answer, only the work.
/// - With k == 1 the single path is exactly ShortestPath's path, and
///   errors carry ShortestPath's codes and messages.
Result<std::vector<Path>> KShortestPaths(const RoadNetwork& network,
                                         int source, int target, int k,
                                         const EdgeCostFn& cost);

}  // namespace tsdm

#endif  // TSDM_SPATIAL_SHORTEST_PATH_H_
