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

/// Every edge's cost under `cost`, evaluated once per edge, with negative
/// costs read as zero: the cost table KShortestPaths searches over.
std::vector<double> EdgeCostTable(const RoadNetwork& network,
                                  const EdgeCostFn& cost);

/// Reverse Dijkstra from `target` over an EdgeCostTable: each node's
/// cheapest cost to `target` (infinity when it cannot reach it). Nodes
/// settle in (distance, node id) order, so the array is a pure function of
/// the network, the table and the target. `target` must be a node id.
std::vector<double> ReverseCostTree(const RoadNetwork& network, int target,
                                    const std::vector<double>& edge_costs);

/// Yen's algorithm: the K shortest loopless paths (ordered by cost).
/// Returns fewer than K when the graph does not contain K distinct paths.
///
/// Contract:
/// - `cost` is evaluated exactly once per edge per call (EdgeCostTable) and
///   the value is reused by every search of the call, so it must be pure:
///   the same edge id must always give the same cost.
/// - The candidate order is part of the contract, ties included. Each
///   search settles nodes in (distance, node id) order; the next path is
///   the cheapest candidate, with equal costs broken by lexicographic node
///   sequence (`path_less`). tests/k_shortest_equivalence_test.cc pins both
///   against the original set-based implementation.
/// - The reverse tree of `target` (ReverseCostTree) gives every node a
///   lower bound on its remaining cost. The first search and each spur
///   search drop relaxations that the bound proves cannot come in under
///   the cost they need (the first path's cost, or the cheapest
///   candidates still to be picked), with a 1e-9 relative margin for
///   rounding. Under the total pop order this changes no answer, only the
///   work.
/// - With k == 1 the single path is exactly ShortestPath's path, and
///   errors carry ShortestPath's codes and messages.
/// This overload checks k and the endpoints, builds the table and the
/// tree, and runs the overload below: one search code path.
Result<std::vector<Path>> KShortestPaths(const RoadNetwork& network,
                                         int source, int target, int k,
                                         const EdgeCostFn& cost);

/// KShortestPaths over a prebuilt `edge_costs` = EdgeCostTable(network,
/// cost) and `to_target` = ReverseCostTree(network, target, edge_costs).
/// Both depend only on the network, the cost and the target, so a caller
/// that keeps them across calls (RouteCache) gets exactly the paths, cost
/// bits and errors of the per-call overload: the stored arrays are the
/// doubles that call would have built, so every search and every pruning
/// decision is the same. Errors for k and the endpoints come first, as
/// above; a table or tree whose size does not fit the network, or a tree
/// that is not 0 at `target`, is InvalidArgument.
Result<std::vector<Path>> KShortestPaths(const RoadNetwork& network,
                                         int source, int target, int k,
                                         const std::vector<double>& edge_costs,
                                         const std::vector<double>& to_target);

}  // namespace tsdm

#endif  // TSDM_SPATIAL_SHORTEST_PATH_H_
