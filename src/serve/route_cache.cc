#include "src/serve/route_cache.h"

namespace tsdm {

RouteCache::RouteCache(const RoadNetwork* network, size_t entries)
    : network_(network),
      edge_costs_(EdgeCostTable(*network, FreeFlowTimeCost(*network))),
      routes_(entries),
      trees_(entries) {}

Result<std::vector<Path>> RouteCache::Get(int source, int target, int k,
                                          const TraceContext& ctx) {
  const Key key{source, target, k};
  {
    std::unique_lock<std::mutex> lock(mu_);
    if (const std::vector<Path>* hit = routes_.Get(key)) return *hit;
  }
  // Only a route-LRU miss shows up in the trace: warm requests skip Yen's
  // algorithm entirely, and their exec span shrinking is the visible proof.
  TraceSpan span("serve/enumerate_routes", ctx);
  // An out-of-range target gets no tree: KShortestPaths reports the bad
  // endpoint (or k) before it reads one.
  const bool valid_target =
      target >= 0 && static_cast<size_t>(target) < network_->NumNodes();
  const Tree tree =
      valid_target ? TreeFor(target) : std::make_shared<std::vector<double>>();
  Result<std::vector<Path>> paths =
      KShortestPaths(*network_, source, target, k, edge_costs_, *tree);
  if (!paths.ok()) return paths.status();
  {
    std::unique_lock<std::mutex> lock(mu_);
    // A racing caller may have inserted the same key; keep its entry
    // instead of duplicating.
    if (routes_.Peek(key) == nullptr) routes_.Put(key, *paths);
  }
  return paths;
}

RouteCache::Tree RouteCache::TreeFor(int target) {
  {
    std::unique_lock<std::mutex> lock(mu_);
    if (const Tree* hit = trees_.Get(target)) return *hit;
    ++trees_built_;
  }
  Tree tree = std::make_shared<const std::vector<double>>(
      ReverseCostTree(*network_, target, edge_costs_));
  std::unique_lock<std::mutex> lock(mu_);
  if (const Tree* won = trees_.Peek(target)) return *won;  // lost a race
  trees_.Put(target, tree);
  return tree;
}

uint64_t RouteCache::TreesBuilt() const {
  std::unique_lock<std::mutex> lock(mu_);
  return trees_built_;
}

}  // namespace tsdm
