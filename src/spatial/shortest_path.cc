#include "src/spatial/shortest_path.h"

#include <algorithm>
#include <cstdint>
#include <limits>
#include <queue>
#include <set>
#include <string>

namespace tsdm {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// `bound` raised by a relative 1e-9: a search bounded by a path cost stops
/// only above this, so summation-order rounding can never make it drop a
/// path the full search would have tied or beaten.
double WithMargin(double bound) { return bound + 1e-9 * bound; }

/// Heap entries order by (priority, node): a total order, so the pop
/// sequence depends only on which entries are in the heap, never on the
/// heap's layout, and dropping entries cannot reorder the ones that remain.
struct QueueEntry {
  double priority;
  int node;
  bool operator>(const QueueEntry& other) const {
    return priority > other.priority ||
           (priority == other.priority && node > other.node);
  }
};

using MinQueue =
    std::priority_queue<QueueEntry, std::vector<QueueEntry>,
                        std::greater<QueueEntry>>;

Status CheckEndpoints(const RoadNetwork& network, int source, int target) {
  const int n = static_cast<int>(network.NumNodes());
  if (source >= 0 && target >= 0 && source < n && target < n) {
    return Status::OK();
  }
  return Status::OutOfRange("ShortestPath: node id out of range");
}

Status CheckKShortestArgs(const RoadNetwork& network, int source, int target,
                          int k) {
  if (k <= 0) return Status::InvalidArgument("KShortestPaths: k must be > 0");
  return CheckEndpoints(network, source, target);
}

Status NoPath(int source, int target) {
  return Status::NotFound("no path from " + std::to_string(source) + " to " +
                          std::to_string(target));
}

/// The edge's cost under `cost`, with negative costs read as zero.
double ClampedCost(const EdgeCostFn& cost, int eid) {
  const double c = cost(eid);
  return c < 0.0 ? 0.0 : c;
}

Result<Path> ReconstructPath(const RoadNetwork& network, int source,
                             int target, const std::vector<int>& parent_edge,
                             const std::vector<double>& dist) {
  if (dist[target] == kInf) return NoPath(source, target);
  Path path;
  path.cost = dist[target];
  int node = target;
  while (node != source) {
    int eid = parent_edge[node];
    path.edges.push_back(eid);
    path.nodes.push_back(node);
    node = network.edge(eid).from;
  }
  path.nodes.push_back(source);
  std::reverse(path.nodes.begin(), path.nodes.end());
  std::reverse(path.edges.begin(), path.edges.end());
  return path;
}

/// The scratch of one call's Dijkstra searches, reused by every search of
/// the call (Yen runs one per spur node). Per-node state and the ban marks
/// are epoch-stamped, so starting a search or a ban set is O(1) rather than
/// a clear of per-node arrays. The workspace reads its edge costs and
/// bounds through pointers and owns neither: `edge_costs` (an
/// EdgeCostTable) or, when null, `cost` evaluated per relaxation, and
/// `to_target` (a ReverseCostTree of the searches' target) or null for
/// unbounded searches.
class DijkstraWorkspace {
 public:
  DijkstraWorkspace(const RoadNetwork& network, const EdgeCostFn* cost,
                    const std::vector<double>* edge_costs = nullptr,
                    const std::vector<double>* to_target = nullptr)
      : network_(network),
        cost_(cost),
        edge_costs_(edge_costs),
        to_target_(to_target),
        dist_(network.NumNodes()),
        parent_edge_(network.NumNodes()),
        mark_(network.NumNodes(), 0),
        banned_node_(network.NumNodes(), 0),
        banned_edge_(network.NumEdges(), 0) {}

  /// The edge's cost, with negative costs read as zero.
  double EdgeCost(int eid) const {
    return edge_costs_ != nullptr ? (*edge_costs_)[eid]
                                  : ClampedCost(*cost_, eid);
  }

  /// Clears the ban set: every node and edge is usable again.
  void NewBans() { ++ban_epoch_; }
  void BanNode(int node) { banned_node_[node] = ban_epoch_; }
  void BanEdge(int eid) { banned_edge_[eid] = ban_epoch_; }

  /// Dijkstra from `source`, skipping the current bans, until `target` is
  /// settled (target -1 settles everything reachable). Nodes pop in
  /// (distance, node) order. Gives up once `offset` plus a popped priority
  /// exceeds `stop_above`: every path still to be found costs at least
  /// that much. With a reverse tree of `target` it also drops each
  /// relaxation whose `offset` + distance + lower bound exceeds
  /// `stop_above`: no path through it can come in under the bound, and
  /// under the total pop order the entries that remain pop exactly as they
  /// would have. Returns whether `target` was settled.
  bool Run(int source, int target, double offset = 0.0,
           double stop_above = kInf) {
    reached_ += 2;
    const uint32_t settled = reached_ + 1;
    const bool bounded = to_target_ != nullptr && stop_above < kInf;
    heap_.clear();
    Reach(source, 0.0, -1);
    heap_.push_back({0.0, source});
    while (!heap_.empty()) {
      std::pop_heap(heap_.begin(), heap_.end(), std::greater<QueueEntry>());
      const QueueEntry top = heap_.back();
      heap_.pop_back();
      if (offset + top.priority > stop_above) return false;
      const int node = top.node;
      if (mark_[node] == settled) continue;
      mark_[node] = settled;
      if (node == target) return true;
      for (int eid : network_.OutEdges(node)) {
        if (banned_edge_[eid] == ban_epoch_) continue;
        const int to = network_.edge(eid).to;
        if (banned_node_[to] == ban_epoch_ || mark_[to] == settled) continue;
        const double candidate = dist_[node] + EdgeCost(eid);
        if (candidate < Dist(to)) {
          if (bounded && offset + candidate + (*to_target_)[to] > stop_above) {
            continue;
          }
          Reach(to, candidate, eid);
          heap_.push_back({candidate, to});
          std::push_heap(heap_.begin(), heap_.end(),
                         std::greater<QueueEntry>());
        }
      }
    }
    return false;
  }

  /// Distance of `node` in the last search (infinity when unreached).
  double Dist(int node) const {
    return mark_[node] >= reached_ ? dist_[node] : kInf;
  }

  /// Appends the last search's path to `target`, minus its source node.
  void AppendPath(int source, int target, std::vector<int>* nodes,
                  std::vector<int>* edges) const {
    size_t hops = 0;
    for (int v = target; v != source; v = network_.edge(parent_edge_[v]).from) {
      ++hops;
    }
    const size_t n0 = nodes->size();
    const size_t e0 = edges->size();
    nodes->resize(n0 + hops);
    edges->resize(e0 + hops);
    int v = target;
    for (size_t h = hops; h > 0; --h) {
      const int eid = parent_edge_[v];
      (*nodes)[n0 + h - 1] = v;
      (*edges)[e0 + h - 1] = eid;
      v = network_.edge(eid).from;
    }
  }

  /// The unbanned shortest path; NotFound when `target` is unreachable.
  /// `stop_above` must not be below the path's cost.
  Result<Path> ShortestPath(int source, int target, double stop_above = kInf) {
    if (!Run(source, target, 0.0, stop_above)) return NoPath(source, target);
    Path path;
    path.cost = dist_[target];
    path.nodes.push_back(source);
    AppendPath(source, target, &path.nodes, &path.edges);
    return path;
  }

 private:
  void Reach(int node, double dist, int parent_edge) {
    mark_[node] = reached_;
    dist_[node] = dist;
    parent_edge_[node] = parent_edge;
  }

  const RoadNetwork& network_;
  const EdgeCostFn* cost_;                 ///< read when edge_costs_ is null
  const std::vector<double>* edge_costs_;  ///< null: cost_ per relaxation
  const std::vector<double>* to_target_;   ///< null: no bound
  std::vector<double> dist_;
  std::vector<int> parent_edge_;
  /// Per-node search state: `reached_` when reached by the current search,
  /// `reached_ + 1` when settled, anything lower when untouched.
  std::vector<uint32_t> mark_;
  uint32_t reached_ = 0;
  std::vector<uint32_t> banned_node_;
  std::vector<uint32_t> banned_edge_;
  uint32_t ban_epoch_ = 1;  ///< the marks start at 0: nothing banned
  std::vector<QueueEntry> heap_;
};

}  // namespace

EdgeCostFn FreeFlowTimeCost(const RoadNetwork& network) {
  return [&network](int eid) { return network.FreeFlowTime(eid); };
}

EdgeCostFn LengthCost(const RoadNetwork& network) {
  return [&network](int eid) { return network.edge(eid).length; };
}

Result<Path> ShortestPath(const RoadNetwork& network, int source, int target,
                          const EdgeCostFn& cost) {
  Status endpoints = CheckEndpoints(network, source, target);
  if (!endpoints.ok()) return endpoints;
  return DijkstraWorkspace(network, &cost).ShortestPath(source, target);
}

std::vector<double> ShortestPathTree(const RoadNetwork& network, int source,
                                     const EdgeCostFn& cost) {
  DijkstraWorkspace workspace(network, &cost);
  workspace.Run(source, /*target=*/-1);
  std::vector<double> dist(network.NumNodes());
  for (size_t v = 0; v < dist.size(); ++v) {
    dist[v] = workspace.Dist(static_cast<int>(v));
  }
  return dist;
}

Result<Path> AStarPath(const RoadNetwork& network, int source, int target,
                       const EdgeCostFn& cost, double max_speed) {
  if (max_speed <= 0.0) {
    return Status::InvalidArgument("AStarPath: max_speed must be positive");
  }
  size_t n = network.NumNodes();
  auto heuristic = [&](int node) {
    return network.NodeDistance(node, target) / max_speed;
  };
  std::vector<double> dist(n, kInf);
  std::vector<int> parent_edge(n, -1);
  std::vector<bool> settled(n, false);
  MinQueue queue;
  dist[source] = 0.0;
  queue.push({heuristic(source), source});
  while (!queue.empty()) {
    auto [priority, node] = queue.top();
    queue.pop();
    if (settled[node]) continue;
    settled[node] = true;
    if (node == target) break;
    for (int eid : network.OutEdges(node)) {
      int to = network.edge(eid).to;
      if (settled[to]) continue;
      double candidate = dist[node] + std::max(0.0, cost(eid));
      if (candidate < dist[to]) {
        dist[to] = candidate;
        parent_edge[to] = eid;
        queue.push({candidate + heuristic(to), to});
      }
    }
  }
  return ReconstructPath(network, source, target, parent_edge, dist);
}

std::vector<double> EdgeCostTable(const RoadNetwork& network,
                                  const EdgeCostFn& cost) {
  std::vector<double> table(network.NumEdges());
  for (size_t e = 0; e < table.size(); ++e) {
    table[e] = ClampedCost(cost, static_cast<int>(e));
  }
  return table;
}

std::vector<double> ReverseCostTree(const RoadNetwork& network, int target,
                                    const std::vector<double>& edge_costs) {
  std::vector<double> to_target(network.NumNodes(), kInf);
  to_target[target] = 0.0;
  std::vector<QueueEntry> heap = {{0.0, target}};
  while (!heap.empty()) {
    std::pop_heap(heap.begin(), heap.end(), std::greater<QueueEntry>());
    const QueueEntry top = heap.back();
    heap.pop_back();
    if (top.priority > to_target[top.node]) continue;  // stale entry
    for (int eid : network.InEdges(top.node)) {
      const int from = network.edge(eid).from;
      const double candidate = top.priority + edge_costs[eid];
      if (candidate < to_target[from]) {
        to_target[from] = candidate;
        heap.push_back({candidate, from});
        std::push_heap(heap.begin(), heap.end(), std::greater<QueueEntry>());
      }
    }
  }
  return to_target;
}

Result<std::vector<Path>> KShortestPaths(const RoadNetwork& network,
                                         int source, int target, int k,
                                         const EdgeCostFn& cost) {
  Status args = CheckKShortestArgs(network, source, target, k);
  if (!args.ok()) return args;
  const std::vector<double> edge_costs = EdgeCostTable(network, cost);
  return KShortestPaths(network, source, target, k, edge_costs,
                        ReverseCostTree(network, target, edge_costs));
}

Result<std::vector<Path>> KShortestPaths(
    const RoadNetwork& network, int source, int target, int k,
    const std::vector<double>& edge_costs,
    const std::vector<double>& to_target) {
  Status args = CheckKShortestArgs(network, source, target, k);
  if (!args.ok()) return args;
  if (edge_costs.size() != network.NumEdges() ||
      to_target.size() != network.NumNodes() || to_target[target] != 0.0) {
    return Status::InvalidArgument(
        "KShortestPaths: cost table or reverse tree does not fit the network "
        "and target");
  }
  DijkstraWorkspace workspace(network, nullptr, &edge_costs, &to_target);
  // The tree's cost at the source is the first path's cost, so it bounds
  // the first search as well.
  Result<Path> first =
      workspace.ShortestPath(source, target, WithMargin(to_target[source]));
  if (!first.ok()) return first.status();

  std::vector<Path> result = {*std::move(first)};
  // Candidate paths ordered by cost; compare node sequences for dedup.
  auto path_less = [](const Path& a, const Path& b) {
    if (a.cost != b.cost) return a.cost < b.cost;
    return a.nodes < b.nodes;
  };
  std::set<std::vector<int>> known = {result[0].nodes};
  std::vector<Path> candidates;
  std::vector<double> candidate_costs;
  std::vector<double> root_costs;

  for (int ki = 1; ki < k; ++ki) {
    const Path& prev = result.back();
    // Once `need` candidates exist, the need-th smallest candidate cost
    // bounds every path still to be picked: a spur path costing more can
    // never be picked, now or later (the bound only falls), so its search
    // stops early and prunes by the reverse-tree bound. No spur node can be
    // skipped outright: root + h[spur] is at most prev's cost, which no
    // remaining candidate undercuts.
    const size_t need = static_cast<size_t>(k - ki);
    // root_costs[i]: cost of prev's first i edges, summed in order.
    root_costs.assign(prev.nodes.size(), 0.0);
    for (size_t i = 1; i < prev.nodes.size(); ++i) {
      const double edge_cost = workspace.EdgeCost(prev.edges[i - 1]);
      root_costs[i] = root_costs[i - 1] + std::max(0.0, edge_cost);
    }
    // Each node of the previous path (except the last) is a spur node,
    // tried from the last to the first. The order cannot change the answer:
    // a search's path under the bound is the same with or without the
    // bound, and the pick is the path_less minimum. Spur nodes near the
    // target make short unbounded searches, so the bound exists sooner.
    for (size_t i = prev.nodes.size() - 1; i-- > 0;) {
      const double root_cost = root_costs[i];
      const int spur_node = prev.nodes[i];
      workspace.NewBans();
      // Ban edges that would recreate an already-known path sharing the root.
      for (const Path& p : result) {
        if (p.nodes.size() > i &&
            std::equal(prev.nodes.begin(), prev.nodes.begin() + i + 1,
                       p.nodes.begin())) {
          if (i < p.edges.size()) workspace.BanEdge(p.edges[i]);
        }
      }
      // Ban root nodes except the spur node to keep paths loopless.
      for (size_t j = 0; j < i; ++j) workspace.BanNode(prev.nodes[j]);

      double stop_above = kInf;
      if (candidates.size() >= need) {
        candidate_costs.clear();
        for (const Path& c : candidates) candidate_costs.push_back(c.cost);
        std::nth_element(candidate_costs.begin(),
                         candidate_costs.begin() + (need - 1),
                         candidate_costs.end());
        stop_above = WithMargin(candidate_costs[need - 1]);
      }
      if (!workspace.Run(spur_node, target, root_cost, stop_above)) continue;

      Path total;
      total.nodes.assign(prev.nodes.begin(), prev.nodes.begin() + i + 1);
      total.edges.assign(prev.edges.begin(), prev.edges.begin() + i);
      workspace.AppendPath(spur_node, target, &total.nodes, &total.edges);
      total.cost = root_cost;
      for (size_t e = i; e < total.edges.size(); ++e) {
        total.cost += std::max(0.0, workspace.EdgeCost(total.edges[e]));
      }
      if (known.insert(total.nodes).second) {
        candidates.push_back(std::move(total));
      }
    }
    if (candidates.empty()) break;
    auto best = std::min_element(candidates.begin(), candidates.end(),
                                 path_less);
    result.push_back(std::move(*best));
    candidates.erase(best);
  }
  return result;
}

}  // namespace tsdm
