#include "src/serve/route_cache.h"

#include <algorithm>

namespace tsdm {

RouteCache::RouteCache(const RoadNetwork* network, size_t entries)
    : network_(network),
      entries_(std::max<size_t>(1, entries)),
      edge_costs_(EdgeCostTable(*network, FreeFlowTimeCost(*network))) {}

Result<std::vector<Path>> RouteCache::Get(int source, int target, int k,
                                          const TraceContext& ctx) {
  const Key key{source, target, k};
  {
    std::unique_lock<std::mutex> lock(mu_);
    auto it = index_.find(key);
    if (it != index_.end()) {
      lru_.splice(lru_.begin(), lru_, it->second);
      return it->second->second;
    }
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
    auto it = index_.find(key);
    if (it == index_.end()) {
      lru_.emplace_front(key, *paths);
      index_.emplace(key, lru_.begin());
      while (lru_.size() > entries_) {
        index_.erase(lru_.back().first);
        lru_.pop_back();
      }
    }
  }
  return paths;
}

RouteCache::Tree RouteCache::TreeFor(int target) {
  {
    std::unique_lock<std::mutex> lock(mu_);
    auto it = tree_index_.find(target);
    if (it != tree_index_.end()) {
      tree_lru_.splice(tree_lru_.begin(), tree_lru_, it->second);
      return it->second->second;
    }
    ++trees_built_;
  }
  Tree tree = std::make_shared<const std::vector<double>>(
      ReverseCostTree(*network_, target, edge_costs_));
  std::unique_lock<std::mutex> lock(mu_);
  auto it = tree_index_.find(target);
  if (it != tree_index_.end()) return it->second->second;  // lost a race
  tree_lru_.emplace_front(target, tree);
  tree_index_.emplace(target, tree_lru_.begin());
  while (tree_lru_.size() > entries_) {
    tree_index_.erase(tree_lru_.back().first);
    tree_lru_.pop_back();
  }
  return tree;
}

uint64_t RouteCache::TreesBuilt() const {
  std::unique_lock<std::mutex> lock(mu_);
  return trees_built_;
}

}  // namespace tsdm
