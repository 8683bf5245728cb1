#ifndef TSDM_SERVE_ROUTE_CACHE_H_
#define TSDM_SERVE_ROUTE_CACHE_H_

#include <cstdint>
#include <list>
#include <mutex>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/common/status.h"
#include "src/obs/trace.h"
#include "src/spatial/road_network.h"
#include "src/spatial/shortest_path.h"

namespace tsdm {

/// Bounded LRU of candidate-route enumerations per (source, target, k) —
/// the K-shortest computation is departure-time independent, so one Yen
/// run is shareable across every query of an OD pair. Extracted from
/// QueryServer so the shard router enumerates candidates through the
/// *identical* code path (same KShortestPaths call, same free-flow edge
/// cost, same trace span) — a precondition for sharded answers being
/// bitwise-equal to single-node ones.
///
/// Thread-safe: one mutex guards the LRU; the enumeration itself runs
/// unlocked, and a racing duplicate insert refreshes instead of doubling.
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

  const RoadNetwork* network_;
  size_t entries_;
  mutable std::mutex mu_;
  std::list<std::pair<Key, std::vector<Path>>> lru_;
  std::unordered_map<Key, std::list<std::pair<Key, std::vector<Path>>>::iterator,
                     KeyHash>
      index_;
};

}  // namespace tsdm

#endif  // TSDM_SERVE_ROUTE_CACHE_H_
