/// Reusing Yen's per-target inputs is exact: KShortestPaths over a cost
/// table and reverse tree built once per target must return, for every
/// source and k, what the per-call overload returns (same paths, cost bits,
/// status codes and messages), and RouteCache, which keeps one tree per
/// target, must build each tree once and serve the per-call answers from
/// any number of threads. The concurrency case is sanitizer-gated in
/// scripts/check.sh.

#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "src/common/rng.h"
#include "src/obs/trace.h"
#include "src/serve/route_cache.h"
#include "src/sim/road_gen.h"
#include "src/spatial/road_network.h"
#include "src/spatial/shortest_path.h"

namespace tsdm {
namespace {

/// Empty when `got` equals `want` exactly; otherwise what differs.
std::string Diff(const Result<std::vector<Path>>& want,
                 const Result<std::vector<Path>>& got) {
  if (want.ok() != got.ok()) return "ok-ness differs";
  if (!want.ok()) {
    if (want.status().code() != got.status().code()) return "code differs";
    if (want.status().message() != got.status().message()) {
      return "message differs";
    }
    return "";
  }
  if (want->size() != got->size()) return "path count differs";
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

/// A rows x cols grid; the other spec fields keep their defaults unless
/// `tune` changes them.
RoadNetwork Grid(int rows, int cols, uint64_t seed,
                 void (*tune)(GridNetworkSpec*) = nullptr) {
  GridNetworkSpec spec;
  spec.rows = rows;
  spec.cols = cols;
  if (tune != nullptr) tune(&spec);
  Rng rng(seed);
  return GenerateGridNetwork(spec, &rng);
}

/// A 4x4 grid plus a one-way sink pair and an isolated node: reverse trees
/// with unreachable (infinite) entries and targets no source reaches.
RoadNetwork SmallGrid() {
  RoadNetwork net = Grid(4, 4, 7, [](GridNetworkSpec* spec) {
    spec->diagonal_probability = 0.3;
  });
  const int sink_a = net.AddNode(2500.0, 0.0);
  const int sink_b = net.AddNode(3000.0, 0.0);
  net.AddNode(5000.0, 5000.0);  // isolated
  net.AddEdge(3, sink_a, 10.0);
  net.AddEdge(sink_a, sink_b, 10.0);
  return net;
}

/// Exact lattice, one speed class, no diagonals: equal-cost paths
/// everywhere, so the pop order decides every answer.
RoadNetwork UniformGrid() {
  return Grid(6, 6, 3, [](GridNetworkSpec* spec) {
    spec->jitter = 0.0;
    spec->arterial_fraction = 0.0;
    spec->diagonal_probability = 0.0;
  });
}

RoadNetwork DiagonalGrid() {
  return Grid(6, 6, 5, [](GridNetworkSpec* spec) {
    spec->diagonal_probability = 0.8;
  });
}

struct NamedCost {
  const char* name;
  EdgeCostFn fn;
};

std::vector<NamedCost> Costs(const RoadNetwork& net) {
  return {{"free_flow_time", FreeFlowTimeCost(net)},
          {"length", LengthCost(net)},
          {"negative_every_fourth", [&net](int eid) {
             return eid % 4 == 0 ? -net.FreeFlowTime(eid)
                                 : net.FreeFlowTime(eid);
           }}};
}

/// For every target: one table per cost and one tree per target, reused
/// over every source and k; returns the mismatches against per-call Yen
/// (and, at k == 1, against ShortestPath).
int CountReuseMismatches(const RoadNetwork& net) {
  const int n = static_cast<int>(net.NumNodes());
  int mismatches = 0;
  auto report = [&mismatches](const std::string& what) {
    if (++mismatches <= 5) ADD_FAILURE() << what;
  };
  for (const NamedCost& cost : Costs(net)) {
    const std::vector<double> table = EdgeCostTable(net, cost.fn);
    for (int t = 0; t < n; ++t) {
      const std::vector<double> tree = ReverseCostTree(net, t, table);
      for (int s = 0; s < n; ++s) {
        const std::string where = std::string(cost.name) + " " +
                                  std::to_string(s) + "->" +
                                  std::to_string(t);
        for (int k : {1, 2, 4, 8}) {
          const std::string diff =
              Diff(KShortestPaths(net, s, t, k, cost.fn),
                   KShortestPaths(net, s, t, k, table, tree));
          if (!diff.empty()) {
            report(where + " k=" + std::to_string(k) + ": " + diff);
          }
        }
        Result<Path> shortest = ShortestPath(net, s, t, cost.fn);
        Result<std::vector<Path>> one =
            KShortestPaths(net, s, t, 1, table, tree);
        const std::string diff =
            shortest.ok() ? Diff(std::vector<Path>{*shortest}, one)
                          : Diff(shortest.status(), one);
        if (!diff.empty()) report(where + " vs ShortestPath: " + diff);
      }
    }
  }
  return mismatches;
}

TEST(RouteTreeReuseTest, SmallGridEveryTarget) {
  EXPECT_EQ(CountReuseMismatches(SmallGrid()), 0);
}

TEST(RouteTreeReuseTest, TieHeavyUniformGridEveryTarget) {
  EXPECT_EQ(CountReuseMismatches(UniformGrid()), 0);
}

TEST(RouteTreeReuseTest, DiagonalGridEveryTarget) {
  EXPECT_EQ(CountReuseMismatches(DiagonalGrid()), 0);
}

TEST(RouteTreeReuseTest, ErrorsComeFirstThenMisfitInputsAreInvalid) {
  const RoadNetwork net = UniformGrid();
  const int n = static_cast<int>(net.NumNodes());
  const EdgeCostFn cost = FreeFlowTimeCost(net);
  const std::vector<double> table = EdgeCostTable(net, cost);
  const std::vector<double> tree = ReverseCostTree(net, 3, table);
  // Bad k and endpoints answer exactly as the per-call overload, whatever
  // the table and tree.
  const std::vector<double> none;
  for (int k : {-1, 0, 4}) {
    for (const auto& [s, t] :
         std::vector<std::pair<int, int>>{{-1, 3}, {0, n}, {n + 2, -5}}) {
      EXPECT_EQ(Diff(KShortestPaths(net, s, t, k, cost),
                     KShortestPaths(net, s, t, k, none, none)),
                "")
          << "k=" << k << " " << s << "->" << t;
    }
  }
  EXPECT_EQ(KShortestPaths(net, 0, 3, 4, none, tree).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(KShortestPaths(net, 0, 3, 4, table, none).status().code(),
            StatusCode::kInvalidArgument);
  // Another target's tree is not 0 at this target.
  EXPECT_EQ(KShortestPaths(net, 0, 4, 4, table, tree).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_TRUE(KShortestPaths(net, 0, 3, 4, table, tree).ok());
}

/// The 12x12 network the route_cold benchmark serves from.
RoadNetwork BenchmarkGrid() { return Grid(12, 12, 12); }

TEST(RouteTreeReuseTest, RouteCacheBuildsOneTreePerTarget) {
  const RoadNetwork net = Grid(5, 5, 9);
  const int n = static_cast<int>(net.NumNodes());
  const EdgeCostFn cost = FreeFlowTimeCost(net);
  // Both LRUs hold 8 entries: room for the 8 targets' trees, but not for
  // the ~600 (source, target, k) keys, so most Gets miss the route LRU and
  // run Yen, and each of those must reuse its target's tree.
  RouteCache cache(&net, 8);
  std::vector<bool> seen(n, false);
  uint64_t distinct = 0;
  Rng rng(17);
  for (int i = 0; i < 300; ++i) {
    const int s = rng.Index(n);
    const int t = rng.Index(8);  // 8 targets, many sources
    const int k = 2 + rng.Index(3);
    if (!seen[t]) {
      seen[t] = true;
      ++distinct;
    }
    EXPECT_EQ(Diff(KShortestPaths(net, s, t, k, cost),
                   cache.Get(s, t, k, TraceContext{})),
              "")
        << s << "->" << t << " k=" << k;
  }
  EXPECT_EQ(cache.TreesBuilt(), distinct);
  // Out-of-range endpoints build nothing and answer per-call's error.
  EXPECT_EQ(Diff(KShortestPaths(net, 0, n, 4, cost),
                 cache.Get(0, n, 4, TraceContext{})),
            "");
  EXPECT_EQ(cache.TreesBuilt(), distinct);
}

TEST(RouteTreeReuseTest, RouteCacheEvictsTreesLeastRecentlyUsed) {
  const RoadNetwork net = UniformGrid();
  RouteCache cache(&net, 2);
  // Two targets fit; a third evicts the least recently used one.
  ASSERT_TRUE(cache.Get(0, 10, 4, TraceContext{}).ok());
  ASSERT_TRUE(cache.Get(0, 20, 4, TraceContext{}).ok());
  ASSERT_TRUE(cache.Get(1, 10, 4, TraceContext{}).ok());  // 10 now recent
  EXPECT_EQ(cache.TreesBuilt(), 2u);
  ASSERT_TRUE(cache.Get(0, 30, 4, TraceContext{}).ok());  // evicts 20
  ASSERT_TRUE(cache.Get(2, 10, 4, TraceContext{}).ok());
  EXPECT_EQ(cache.TreesBuilt(), 3u);
  ASSERT_TRUE(cache.Get(1, 20, 4, TraceContext{}).ok());
  EXPECT_EQ(cache.TreesBuilt(), 4u);
}

/// Four threads enumerate toward one target through one cache, racing on
/// its tree and route LRUs; every answer is the per-call one.
TEST(RouteTreeReuseTest, ConcurrentGetsOnOneTargetMatchPerCall) {
  const RoadNetwork net = BenchmarkGrid();
  const int n = static_cast<int>(net.NumNodes());
  const EdgeCostFn cost = FreeFlowTimeCost(net);
  constexpr int kTarget = 77;
  constexpr int kK = 4;
  std::vector<Result<std::vector<Path>>> expected;
  for (int s = 0; s < n; ++s) {
    expected.push_back(KShortestPaths(net, s, kTarget, kK, cost));
  }
  RouteCache cache(&net, 16);  // fewer route keys than sources: misses
  constexpr int kThreads = 4;
  std::vector<int> mismatches(kThreads, 0);
  std::vector<std::thread> threads;
  for (int w = 0; w < kThreads; ++w) {
    threads.emplace_back([&, w] {
      for (int j = 0; j < 2 * n; ++j) {
        const int s = (j + w * n / kThreads) % n;
        if (!Diff(expected[s], cache.Get(s, kTarget, kK, TraceContext{}))
                 .empty()) {
          ++mismatches[w];
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  for (int w = 0; w < kThreads; ++w) {
    EXPECT_EQ(mismatches[w], 0) << "thread " << w;
  }
  EXPECT_GE(cache.TreesBuilt(), 1u);
  EXPECT_LE(cache.TreesBuilt(), static_cast<uint64_t>(kThreads));
}

}  // namespace
}  // namespace tsdm
