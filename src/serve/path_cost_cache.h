#ifndef TSDM_SERVE_PATH_COST_CACHE_H_
#define TSDM_SERVE_PATH_COST_CACHE_H_

#include <cstdint>
#include <deque>
#include <mutex>
#include <utility>
#include <vector>

#include "src/common/lru_map.h"
#include "src/governance/uncertainty/histogram.h"
#include "src/governance/uncertainty/travel_cost_models.h"
#include "src/obs/trace.h"

namespace tsdm {

/// Sharded LRU cache of sub-path travel-cost distributions, keyed on
/// (edge sub-path, departure-time bucket) — the serving-layer realization
/// of PACE's path-centric claim ([4]): route queries over a shared road
/// network overlap heavily, so memoizing *sub-path* distributions lets
/// repeated and merely overlapping queries reuse each other's work instead
/// of recomposing per-edge costs from scratch every time.
///
/// Sharding: a key hashes to one of `shards` independent LRU maps, each
/// behind its own mutex, so concurrent workers contend only when they
/// touch the same shard. Capacity is enforced per shard (capacity/shards
/// each); eviction is strict LRU within a shard. Hit/miss/eviction
/// counters are maintained under the shard locks and summed on read, so
/// they are exact, not sampled.
class PathCostCache {
 public:
  struct Options {
    size_t capacity = 4096;       ///< total entries across all shards
    int shards = 8;               ///< independent LRU shards (>= 1)
    double bucket_seconds = 900;  ///< departure-time discretization
  };

  struct Stats {
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t evictions = 0;
    size_t size = 0;  ///< resident entries
  };

  PathCostCache() : PathCostCache(Options()) {}
  explicit PathCostCache(Options options);

  /// The departure-time bucket a query at `depart_seconds` falls into.
  int BucketFor(double depart_seconds) const {
    return static_cast<int>(depart_seconds / options_.bucket_seconds);
  }
  /// The representative departure time all queries of `bucket` resolve to
  /// (its midpoint) — what the underlying model is actually asked, so a
  /// cached entry is bitwise-identical to a fresh computation for every
  /// query in the bucket.
  double BucketTime(int bucket) const {
    return (static_cast<double>(bucket) + 0.5) * options_.bucket_seconds;
  }

  /// Copies the cached distribution for (subpath, bucket) into *out and
  /// refreshes its recency. Counts a hit or a miss.
  bool Lookup(const std::vector<int>& subpath, int bucket, Histogram* out);

  /// Inserts (or refreshes) an entry, evicting the shard's LRU tail when
  /// over budget.
  void Insert(const std::vector<int>& subpath, int bucket, Histogram dist);

  void Clear();

  Stats GetStats() const;
  /// Resident entries per shard — lets tests check the hash spreads keys.
  std::vector<size_t> ShardSizes() const;
  const Options& options() const { return options_; }

 private:
  struct Key {
    std::vector<int> edges;
    int bucket = 0;
    bool operator==(const Key& other) const {
      return bucket == other.bucket && edges == other.edges;
    }
  };
  struct KeyHash {
    size_t operator()(const Key& k) const {
      // FNV-1a over the edge ids and the bucket: cheap, deterministic,
      // and spreads consecutive ids well enough for shard selection.
      uint64_t h = 1469598103934665603ull;
      auto mix = [&h](uint64_t v) {
        h ^= v;
        h *= 1099511628211ull;
      };
      for (int e : k.edges) mix(static_cast<uint64_t>(e) + 1);
      mix(static_cast<uint64_t>(k.bucket) + 0x9e3779b9ull);
      return static_cast<size_t>(h);
    }
  };

  struct Shard {
    explicit Shard(size_t capacity) : lru(capacity) {}
    mutable std::mutex mu;
    LruMap<Key, Histogram, KeyHash> lru;
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t evictions = 0;
  };

  size_t ShardIndex(const Key& key) const {
    return KeyHash{}(key) % shards_.size();
  }

  Options options_;
  std::deque<Shard> shards_;  ///< a deque: a Shard's mutex cannot move
};

/// Wraps any PathCostModel with sub-path memoization through a
/// PathCostCache: a query path is split into consecutive segments of
/// `segment_edges` edges, each segment's distribution is served from the
/// cache (computed through the base model on miss), and the segment
/// distributions are convolved into the path answer. Departure times are
/// discretized to the cache's time bucket and the base model is always
/// evaluated at the bucket's representative time, so for a fixed bucket a
/// warm answer is bitwise-identical to a cold one — caching changes cost,
/// never the answer.
///
/// Thread-safe: the cache synchronizes itself and the base model is only
/// read; many serve workers share one instance.
class CachedPathCostModel {
 public:
  struct Options {
    int segment_edges = 4;  ///< sub-path granularity (>= 1)
    int result_bins = 64;   ///< bins of the convolved path answer
  };

  /// The cache must outlive the model. `base` must be deterministic for a
  /// fixed (path, depart) — true of the governance cost models.
  CachedPathCostModel(PathCostModel base, PathCostCache* cache)
      : CachedPathCostModel(std::move(base), cache, Options()) {}
  CachedPathCostModel(PathCostModel base, PathCostCache* cache,
                      Options options);

  /// Path cost distribution with sub-path reuse. When `ctx` belongs to a
  /// traced request, the lookup emits a `serve/path_cost` span under it
  /// whose arg is the number of segment *misses* (0 = answered entirely
  /// from cache), so cache effectiveness is visible per request.
  ///
  /// Query is exactly SplitSegments, then FoldSegments over SegmentCost.
  /// The steps are public so a distributed caller (the shard router) can
  /// fold segment costs computed on different shards through the same
  /// FoldSegments and still produce a bitwise-identical answer — the
  /// equivalence suite leans on this decomposition.
  Result<Histogram> Query(const std::vector<int>& edge_path,
                          double depart_seconds,
                          const TraceContext& ctx = TraceContext{}) const;

  /// Splits `edge_path` into consecutive sub-paths of `segment_edges`
  /// edges (the final segment may be shorter). The split depends only on
  /// path length and granularity, so every tier that agrees on
  /// `segment_edges` produces the same segments — the unit of cache keys,
  /// shard ownership, and scatter probes alike.
  static std::vector<std::vector<int>> SplitSegments(
      const std::vector<int>& edge_path, int segment_edges);

  /// Cost distribution of one segment for a departure-time bucket: served
  /// from the cache when resident, computed through the base model at the
  /// bucket's representative time (and inserted) on a miss. Sets
  /// *from_cache accordingly when non-null.
  Result<Histogram> SegmentCost(const std::vector<int>& segment, int bucket,
                                bool* from_cache = nullptr) const;

  /// Folds segment distributions into the path answer, in segment order:
  /// the first segment seeds the total, every later one is convolved in at
  /// `result_bins` resolution. Keying compositions by segment *index*
  /// (never completion order) is what makes the shard router's merge
  /// permutation-invariant. Precondition: `segments` non-empty.
  static Histogram ComposeSegments(std::vector<Histogram> segments,
                                   int result_bins);

  /// A path's answer from its `num_segments` segment costs, the one rule
  /// both Query and the shard router's merge apply: no segments is the
  /// empty-path InvalidArgument; otherwise `segment_cost(i)` is asked in
  /// route order and the first failing segment's status is the answer
  /// (later segments are not asked); else ComposeSegments of the costs.
  template <typename SegmentCostFn>
  static Result<Histogram> FoldSegments(size_t num_segments,
                                        SegmentCostFn&& segment_cost,
                                        int result_bins) {
    if (num_segments == 0) {
      return Status::InvalidArgument("CachedPathCostModel: empty path");
    }
    std::vector<Histogram> parts;
    parts.reserve(num_segments);
    for (size_t i = 0; i < num_segments; ++i) {
      auto&& cost = segment_cost(i);
      if (!cost.ok()) return cost.status();
      parts.push_back(std::forward<decltype(cost)>(cost).value());
    }
    return ComposeSegments(std::move(parts), result_bins);
  }

  const Options& options() const { return options_; }

 private:
  PathCostModel base_;
  PathCostCache* cache_;
  Options options_;
};

}  // namespace tsdm

#endif  // TSDM_SERVE_PATH_COST_CACHE_H_
