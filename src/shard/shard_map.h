#ifndef TSDM_SHARD_SHARD_MAP_H_
#define TSDM_SHARD_SHARD_MAP_H_

#include <cstdint>
#include <vector>

namespace tsdm {

/// Deterministic consistent-hash partition of the serving key space across
/// N shards — the membership half of the scatter-gather tier (the routing
/// half is ShardRouter). Two key kinds share one ring:
///
///   * region buckets (int64, packed grid cells of network coordinates) —
///     decide which shard owns a query whose source and target fall in one
///     region, and
///   * sub-paths (edge-id sequences, the PathCostCache unit) — decide which
///     shard answers a scatter probe for that segment's cost distribution.
///
/// The ring holds `vnodes` points per shard at positions
/// SplitMix64(shard * P1 ^ vnode * P2); a key hashes to a point and is
/// owned by the first ring point clockwise from it. Positions depend only
/// on (shard, vnode) — never on N — which yields the consistent-hashing
/// contract the conformance suite locks in: growing N -> N+1 only inserts
/// the new shard's points, so every key either keeps its owner or moves to
/// shard N. No key ever migrates between two pre-existing shards.
///
/// Immutable after construction, hence freely shared across threads.
class ShardMap {
 public:
  struct Options {
    int num_shards = 1;   ///< shards on the ring (clamped to >= 1)
    int vnodes = 32;      ///< ring points per shard (clamped to >= 1)
  };

  ShardMap() : ShardMap(Options()) {}
  explicit ShardMap(Options options);

  int num_shards() const { return options_.num_shards; }
  int vnodes() const { return options_.vnodes; }

  /// Owner shard of an already-hashed key (ring walk only).
  int OwnerOfHash(uint64_t hash) const;

  /// Owner shard of a region bucket (RegionBucket of a router).
  int OwnerOfBucket(int64_t bucket) const {
    return OwnerOfHash(Mix64(static_cast<uint64_t>(bucket)));
  }

  /// Owner shard of a sub-path (PathCostCache key granularity).
  int OwnerOfSubpath(const std::vector<int>& edges) const {
    return OwnerOfHash(HashSubpath(edges));
  }

  /// FNV-1a over the edge ids — the stable sub-path fingerprint. Matches
  /// the hashing spec documented in README so external tooling can predict
  /// placement.
  static uint64_t HashSubpath(const std::vector<int>& edges);

  /// SplitMix64 finalizer: the avalanche everything on the ring runs
  /// through.
  static uint64_t Mix64(uint64_t x);

 private:
  struct Point {
    uint64_t position = 0;
    int shard = 0;
  };

  Options options_;
  std::vector<Point> ring_;  ///< sorted by position
};

}  // namespace tsdm

#endif  // TSDM_SHARD_SHARD_MAP_H_
