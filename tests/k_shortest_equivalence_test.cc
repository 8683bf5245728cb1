/// Differential proof for KShortestPaths: the flat-workspace, bound-pruned
/// Yen must return exactly what the original set-based Yen returned — the
/// same candidate paths in the same order, node for node and edge for edge,
/// with bit-equal costs, and the same status code and message on every
/// error. The original is embedded below as the oracle, unchanged apart
/// from its names and its heap comparator, which breaks priority ties by
/// node id as the library's does (the pop order is total).
///
/// Graphs: the benchmark's 12x12 route network (network seed 12, a seeded
/// sample of OD pairs), a tie-heavy uniform grid (no jitter, one speed
/// class, no diagonals), a diagonal-rich grid and a graph with unreachable
/// targets (all OD pairs on the three small graphs). Cost functions:
/// free-flow time and length; on the three small graphs also integer,
/// zero-cost and negative (clamped) edge costs. k in {1, 2, 3, 4, 8}.
///
/// A concurrency case runs KShortestPaths from four threads over one shared
/// network and compares with the single-threaded answers; the suite is run
/// under TSan and ASan by scripts/check.sh.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <functional>
#include <limits>
#include <queue>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "src/common/rng.h"
#include "src/sim/road_gen.h"
#include "src/spatial/road_network.h"
#include "src/spatial/shortest_path.h"

namespace tsdm {
namespace {

// ---- Oracle: the original set-based Yen (names and tie order aside). ----

namespace reference {

constexpr double kInf = std::numeric_limits<double>::infinity();

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

Result<Path> ReconstructPath(const RoadNetwork& network, int source,
                             int target, const std::vector<int>& parent_edge,
                             const std::vector<double>& dist) {
  if (dist[target] == kInf) {
    return Status::NotFound("no path from " + std::to_string(source) +
                            " to " + std::to_string(target));
  }
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

/// Dijkstra supporting removed nodes/edges (for Yen's spur computation).
Result<Path> DijkstraWithBans(const RoadNetwork& network, int source,
                              int target, const EdgeCostFn& cost,
                              const std::set<int>& banned_nodes,
                              const std::set<int>& banned_edges) {
  size_t n = network.NumNodes();
  std::vector<double> dist(n, kInf);
  std::vector<int> parent_edge(n, -1);
  std::vector<bool> settled(n, false);
  MinQueue queue;
  dist[source] = 0.0;
  queue.push({0.0, source});
  while (!queue.empty()) {
    auto [priority, node] = queue.top();
    queue.pop();
    if (settled[node]) continue;
    settled[node] = true;
    if (node == target) break;
    for (int eid : network.OutEdges(node)) {
      if (banned_edges.count(eid) > 0) continue;
      int to = network.edge(eid).to;
      if (banned_nodes.count(to) > 0 || settled[to]) continue;
      double c = cost(eid);
      if (c < 0.0) c = 0.0;
      double candidate = dist[node] + c;
      if (candidate < dist[to]) {
        dist[to] = candidate;
        parent_edge[to] = eid;
        queue.push({candidate, to});
      }
    }
  }
  return ReconstructPath(network, source, target, parent_edge, dist);
}

Result<Path> ShortestPath(const RoadNetwork& network, int source, int target,
                          const EdgeCostFn& cost) {
  if (source < 0 || target < 0 ||
      source >= static_cast<int>(network.NumNodes()) ||
      target >= static_cast<int>(network.NumNodes())) {
    return Status::OutOfRange("ShortestPath: node id out of range");
  }
  return DijkstraWithBans(network, source, target, cost, {}, {});
}

Result<std::vector<Path>> KShortestPaths(const RoadNetwork& network,
                                         int source, int target, int k,
                                         const EdgeCostFn& cost) {
  if (k <= 0) return Status::InvalidArgument("KShortestPaths: k must be > 0");
  Result<Path> first = reference::ShortestPath(network, source, target, cost);
  if (!first.ok()) return first.status();

  std::vector<Path> result = {*first};
  // Candidate paths ordered by cost; compare node sequences for dedup.
  auto path_less = [](const Path& a, const Path& b) {
    if (a.cost != b.cost) return a.cost < b.cost;
    return a.nodes < b.nodes;
  };
  std::set<std::vector<int>> known = {first->nodes};
  std::vector<Path> candidates;

  for (int ki = 1; ki < k; ++ki) {
    const Path& prev = result.back();
    // Each node of the previous path (except the last) is a spur node.
    for (size_t i = 0; i + 1 < prev.nodes.size(); ++i) {
      int spur_node = prev.nodes[i];
      std::vector<int> root_nodes(prev.nodes.begin(),
                                  prev.nodes.begin() + i + 1);
      std::set<int> banned_edges;
      std::set<int> banned_nodes;
      // Ban edges that would recreate an already-known path sharing the root.
      for (const Path& p : result) {
        if (p.nodes.size() > i &&
            std::equal(root_nodes.begin(), root_nodes.end(),
                       p.nodes.begin())) {
          if (i < p.edges.size()) banned_edges.insert(p.edges[i]);
        }
      }
      // Ban root nodes except the spur node to keep paths loopless.
      for (size_t j = 0; j < i; ++j) banned_nodes.insert(prev.nodes[j]);

      Result<Path> spur = DijkstraWithBans(network, spur_node, target, cost,
                                           banned_nodes, banned_edges);
      if (!spur.ok()) continue;

      Path total;
      total.nodes = root_nodes;
      total.nodes.insert(total.nodes.end(), spur->nodes.begin() + 1,
                         spur->nodes.end());
      total.edges.assign(prev.edges.begin(), prev.edges.begin() + i);
      total.edges.insert(total.edges.end(), spur->edges.begin(),
                         spur->edges.end());
      total.cost = 0.0;
      for (int eid : total.edges) total.cost += std::max(0.0, cost(eid));
      if (known.insert(total.nodes).second) {
        candidates.push_back(std::move(total));
      }
    }
    if (candidates.empty()) break;
    auto best = std::min_element(candidates.begin(), candidates.end(),
                                 path_less);
    result.push_back(*best);
    candidates.erase(best);
  }
  return result;
}

}  // namespace reference

// ---- Harness ------------------------------------------------------------

constexpr int kKs[] = {1, 2, 3, 4, 8};

/// Empty when `got` equals `want` exactly; otherwise what differs.
std::string Diff(const Result<std::vector<Path>>& want,
                 const Result<std::vector<Path>>& got) {
  if (want.ok() != got.ok()) return "ok-ness differs";
  if (!want.ok()) {
    if (want.status().code() != got.status().code()) return "code differs";
    if (want.status().message() != got.status().message()) {
      return "message differs: '" + want.status().message() + "' vs '" +
             got.status().message() + "'";
    }
    return "";
  }
  if (want->size() != got->size()) {
    return "path count " + std::to_string(want->size()) + " vs " +
           std::to_string(got->size());
  }
  for (size_t i = 0; i < want->size(); ++i) {
    const Path& a = (*want)[i];
    const Path& b = (*got)[i];
    if (a.nodes != b.nodes) return "nodes of path " + std::to_string(i);
    if (a.edges != b.edges) return "edges of path " + std::to_string(i);
    if (std::memcmp(&a.cost, &b.cost, sizeof(double)) != 0) {
      return "cost bits of path " + std::to_string(i);
    }
  }
  return "";
}

struct NamedCost {
  const char* name;
  EdgeCostFn fn;
};

std::vector<NamedCost> Costs(const RoadNetwork& net) {
  return {{"free_flow_time", FreeFlowTimeCost(net)},
          {"length", LengthCost(net)}};
}

/// Costs chosen to break a lower-bound pruning that is only almost right:
/// small integers (exact ties on every route), zero-cost edges (many nodes
/// at one distance) and negative costs (clamped to zero by both
/// implementations, so the bound must be built from clamped costs).
std::vector<NamedCost> AdversarialCosts(const RoadNetwork& net) {
  auto small_int = [](int eid) {
    return 1.0 + static_cast<double>((eid * 2654435761u >> 7) % 3);
  };
  return {{"integer", small_int},
          {"zero_every_third",
           [&net](int eid) {
             return eid % 3 == 0 ? 0.0 : net.FreeFlowTime(eid);
           }},
          {"negative_every_fourth", [&net](int eid) {
             return eid % 4 == 0 ? -net.FreeFlowTime(eid)
                                 : net.FreeFlowTime(eid);
           }}};
}

/// Runs both implementations on every (pair, cost, k); returns the number
/// of mismatches and reports the first few.
int CountMismatches(const RoadNetwork& net,
                    const std::vector<std::pair<int, int>>& pairs,
                    const std::vector<NamedCost>& costs) {
  int mismatches = 0;
  for (const NamedCost& cost : costs) {
    for (int k : kKs) {
      for (const auto& [s, t] : pairs) {
        std::string diff =
            Diff(reference::KShortestPaths(net, s, t, k, cost.fn),
                 KShortestPaths(net, s, t, k, cost.fn));
        if (diff.empty()) continue;
        if (++mismatches <= 5) {
          ADD_FAILURE() << cost.name << " k=" << k << " " << s << "->" << t
                        << ": " << diff;
        }
      }
    }
  }
  return mismatches;
}

std::vector<std::pair<int, int>> AllPairs(const RoadNetwork& net) {
  std::vector<std::pair<int, int>> pairs;
  const int n = static_cast<int>(net.NumNodes());
  for (int s = 0; s < n; ++s) {
    for (int t = 0; t < n; ++t) {
      if (s != t) pairs.emplace_back(s, t);
    }
  }
  return pairs;
}

std::vector<std::pair<int, int>> SampledPairs(const RoadNetwork& net,
                                              int count, uint64_t seed) {
  Rng rng(seed);
  const int n = static_cast<int>(net.NumNodes());
  std::vector<std::pair<int, int>> pairs;
  while (static_cast<int>(pairs.size()) < count) {
    int s = rng.Index(n);
    int t = rng.Index(n);
    if (s != t) pairs.emplace_back(s, t);
  }
  return pairs;
}

/// The 12x12 network the route_cold benchmark serves from.
RoadNetwork BenchmarkGrid() {
  GridNetworkSpec spec;
  spec.rows = 12;
  spec.cols = 12;
  Rng rng(12);
  return GenerateGridNetwork(spec, &rng);
}

/// Exact lattice, every edge the same speed, no diagonals: equal-cost
/// paths everywhere, so the heap's tie order decides the answer.
RoadNetwork UniformGrid() {
  GridNetworkSpec spec;
  spec.rows = 6;
  spec.cols = 6;
  spec.jitter = 0.0;
  spec.arterial_fraction = 0.0;
  spec.diagonal_probability = 0.0;
  Rng rng(3);
  return GenerateGridNetwork(spec, &rng);
}

RoadNetwork DiagonalGrid() {
  GridNetworkSpec spec;
  spec.rows = 6;
  spec.cols = 6;
  spec.diagonal_probability = 0.8;
  Rng rng(5);
  return GenerateGridNetwork(spec, &rng);
}

/// A grid with one-way spurs into a sink region, a one-way escape from a
/// source region and an isolated node: many targets are unreachable.
RoadNetwork GraphWithUnreachableTargets() {
  GridNetworkSpec spec;
  spec.rows = 4;
  spec.cols = 4;
  spec.diagonal_probability = 0.3;
  Rng rng(7);
  RoadNetwork net = GenerateGridNetwork(spec, &rng);
  const int sink_a = net.AddNode(2500.0, 0.0);
  const int sink_b = net.AddNode(3000.0, 0.0);
  const int source_a = net.AddNode(-1000.0, 0.0);
  const int source_b = net.AddNode(-1500.0, 500.0);
  net.AddNode(5000.0, 5000.0);  // isolated
  net.AddEdge(3, sink_a, 10.0);
  net.AddEdge(15, sink_a, 5.0);
  net.AddEdge(sink_a, sink_b, 10.0);
  net.AddEdge(sink_b, sink_a, 10.0);
  net.AddEdge(source_a, 0, 10.0);
  net.AddEdge(source_b, source_a, 10.0);
  net.AddEdge(source_b, 12, 8.0);
  return net;
}

TEST(KShortestEquivalenceTest, BenchmarkGridSample) {
  RoadNetwork net = BenchmarkGrid();
  EXPECT_EQ(
      CountMismatches(net, SampledPairs(net, 120, 2025), Costs(net)), 0);
}

TEST(KShortestEquivalenceTest, TieHeavyUniformGridAllPairs) {
  RoadNetwork net = UniformGrid();
  EXPECT_EQ(CountMismatches(net, AllPairs(net), Costs(net)), 0);
}

TEST(KShortestEquivalenceTest, DiagonalRichGridAllPairs) {
  RoadNetwork net = DiagonalGrid();
  EXPECT_EQ(CountMismatches(net, AllPairs(net), Costs(net)), 0);
}

TEST(KShortestEquivalenceTest, UnreachableTargetsAllPairs) {
  RoadNetwork net = GraphWithUnreachableTargets();
  std::vector<std::pair<int, int>> pairs = AllPairs(net);
  int unreachable = 0;
  const EdgeCostFn cost = LengthCost(net);
  for (const auto& [s, t] : pairs) {
    if (!KShortestPaths(net, s, t, 1, cost).ok()) ++unreachable;
  }
  EXPECT_GT(unreachable, 0);
  EXPECT_EQ(CountMismatches(net, pairs, Costs(net)), 0);
}

TEST(KShortestEquivalenceTest, AdversarialCostsAllPairs) {
  const std::pair<const char*, RoadNetwork> graphs[] = {
      {"uniform", UniformGrid()},
      {"diagonal", DiagonalGrid()},
      {"unreachable", GraphWithUnreachableTargets()}};
  for (const auto& [name, net] : graphs) {
    EXPECT_EQ(CountMismatches(net, AllPairs(net), AdversarialCosts(net)), 0)
        << name;
  }
}

TEST(KShortestEquivalenceTest, ErrorsMatchByteForByte) {
  RoadNetwork net = UniformGrid();
  const int n = static_cast<int>(net.NumNodes());
  const EdgeCostFn cost = FreeFlowTimeCost(net);
  const std::vector<std::pair<int, int>> bad_nodes = {
      {-1, 3}, {3, -1}, {n, 0}, {0, n}, {n + 7, n + 9}};
  for (int k : {-3, 0, 1, 4}) {
    for (const auto& [s, t] : bad_nodes) {
      EXPECT_EQ(Diff(reference::KShortestPaths(net, s, t, k, cost),
                     KShortestPaths(net, s, t, k, cost)),
                "")
          << "k=" << k << " " << s << "->" << t;
    }
  }
}

TEST(KShortestEquivalenceTest, KEqualsOneIsShortestPath) {
  RoadNetwork net = DiagonalGrid();
  for (const NamedCost& cost : Costs(net)) {
    for (const auto& [s, t] : AllPairs(net)) {
      Result<Path> shortest = ShortestPath(net, s, t, cost.fn);
      Result<std::vector<Path>> k1 = KShortestPaths(net, s, t, 1, cost.fn);
      ASSERT_EQ(shortest.ok(), k1.ok());
      if (!shortest.ok()) continue;
      ASSERT_EQ(k1->size(), 1u);
      EXPECT_EQ(Diff(std::vector<Path>{*shortest}, k1), "");
    }
  }
}

TEST(KShortestEquivalenceTest, CostEvaluatedAtMostOncePerEdgePerCall) {
  RoadNetwork net = BenchmarkGrid();
  std::vector<int> calls(net.NumEdges(), 0);
  EdgeCostFn counting = [&net, &calls](int eid) {
    ++calls[eid];
    return net.FreeFlowTime(eid);
  };
  for (const auto& [s, t] : SampledPairs(net, 10, 99)) {
    std::fill(calls.begin(), calls.end(), 0);
    ASSERT_TRUE(KShortestPaths(net, s, t, 8, counting).ok());
    EXPECT_LE(*std::max_element(calls.begin(), calls.end()), 1);
  }
}

/// No shared or static scratch: four threads running Yen over one network
/// get exactly the single-threaded answers.
TEST(KShortestEquivalenceTest, ConcurrentCallsMatchSingleThreaded) {
  const RoadNetwork net = BenchmarkGrid();
  const EdgeCostFn cost = FreeFlowTimeCost(net);
  const std::vector<std::pair<int, int>> pairs = SampledPairs(net, 32, 4);
  constexpr int kK = 4;
  std::vector<Result<std::vector<Path>>> expected;
  for (const auto& [s, t] : pairs) {
    expected.push_back(KShortestPaths(net, s, t, kK, cost));
  }

  constexpr int kThreads = 4;
  std::vector<int> mismatches(kThreads, 0);
  std::vector<std::thread> threads;
  for (int w = 0; w < kThreads; ++w) {
    threads.emplace_back([&, w] {
      // Every thread runs every pair, starting at a different offset, so
      // the threads overlap on the same queries.
      for (size_t j = 0; j < pairs.size(); ++j) {
        const size_t q = (j + w * pairs.size() / kThreads) % pairs.size();
        const auto& [s, t] = pairs[q];
        if (!Diff(expected[q], KShortestPaths(net, s, t, kK, cost)).empty()) {
          ++mismatches[w];
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  for (int w = 0; w < kThreads; ++w) {
    EXPECT_EQ(mismatches[w], 0) << "thread " << w;
  }
}

}  // namespace
}  // namespace tsdm
