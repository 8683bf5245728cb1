#ifndef TSDM_SERVE_ROUTE_CACHE_H_
#define TSDM_SERVE_ROUTE_CACHE_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "src/common/lru_map.h"
#include "src/common/status.h"
#include "src/obs/trace.h"
#include "src/spatial/road_network.h"
#include "src/spatial/shortest_path.h"

namespace tsdm {

/// Bounded LRU of candidate-route enumerations per (source, target, k) —
/// the K-shortest computation is departure-time independent, so one Yen
/// run is shareable across every query of an OD pair. Each QueryServer owns
/// one, and a scattered query enumerates on its source owner's, so every
/// enumeration takes one code path (same KShortestPaths search, free-flow
/// edge cost and trace span): sharded answers are bitwise single-node ones.
///
/// What a miss's Yen run needs besides the OD pair depends only on the
/// network and the target, so the cache keeps it too: the free-flow
/// EdgeCostTable, built once at construction, and the ReverseCostTree of
/// each target it has enumerated for, in a second LRU of at most `entries`
/// trees. A miss's answer is therefore exactly the per-call
/// KShortestPaths(network, source, target, k, FreeFlowTimeCost(network))
/// answer. The network must not change while the cache lives: the table
/// and the trees are never rebuilt.
///
/// Thread-safe: one mutex guards both LRUs; enumerations and tree builds
/// run unlocked, and a racing duplicate insert keeps the first entry
/// instead of doubling.
class RouteCache {
 public:
  /// The network must outlive the cache. `entries` is clamped to >= 1.
  RouteCache(const RoadNetwork* network, size_t entries);

  RouteCache(const RouteCache&) = delete;
  RouteCache& operator=(const RouteCache&) = delete;

  /// Candidate routes for (source, target, k). An LRU miss runs Yen's
  /// algorithm under a `serve/enumerate_routes` span attached to `ctx` —
  /// warm requests skip enumeration entirely and emit nothing.
  Result<std::vector<Path>> Get(int source, int target, int k,
                                const TraceContext& ctx);

  /// Reverse trees built so far: one per tree-LRU miss (racing misses on
  /// one target may each build one).
  uint64_t TreesBuilt() const;

 private:
  struct Key {
    int source = 0;
    int target = 0;
    int k = 0;
    bool operator==(const Key& o) const {
      return source == o.source && target == o.target && k == o.k;
    }
  };
  struct KeyHash {
    size_t operator()(const Key& key) const {
      uint64_t h = static_cast<uint64_t>(key.source) * 0x9e3779b97f4a7c15ull;
      h ^= static_cast<uint64_t>(key.target) + 0x9e3779b97f4a7c15ull +
           (h << 6) + (h >> 2);
      h ^= static_cast<uint64_t>(key.k) + 0x9e3779b97f4a7c15ull + (h << 6) +
           (h >> 2);
      return static_cast<size_t>(h);
    }
  };
  using Tree = std::shared_ptr<const std::vector<double>>;

  /// The reverse tree of `target` (a node id): from the tree LRU, or
  /// built unlocked and inserted.
  Tree TreeFor(int target);

  const RoadNetwork* network_;
  const std::vector<double> edge_costs_;  ///< free-flow EdgeCostTable
  mutable std::mutex mu_;
  LruMap<Key, std::vector<Path>, KeyHash> routes_;
  LruMap<int, Tree> trees_;  ///< reverse trees by target node
  uint64_t trees_built_ = 0;
};

}  // namespace tsdm

#endif  // TSDM_SERVE_ROUTE_CACHE_H_
