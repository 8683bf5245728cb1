#ifndef TSDM_SHARD_SHARD_ROUTER_H_
#define TSDM_SHARD_SHARD_ROUTER_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <vector>

#include "src/decision/routing/stochastic_router.h"
#include "src/serve/query_server.h"
#include "src/serve/query_service.h"
#include "src/serve/route_cache.h"
#include "src/shard/shard_map.h"
#include "src/shard/shard_stats.h"
#include "src/spatial/road_network.h"

namespace tsdm {

/// Scatter-gather front door over N in-process QueryServer shards — the
/// capacity-scaling tier of the serving stack. Implements the same
/// QueryService surface a single QueryServer does, so the socket server
/// (and therefore NetClient) cannot tell one node from a fleet:
///
///   Submit --> owner(source region) == owner(target region)?
///     yes --> forward: pinned single-shard submit (shard stamped in
///             SubmitOptions, zero extra work on the answer path)
///     no  --> scatter: enumerate candidates (shared RouteCache), split
///             every candidate into PathCostCache-granularity segments,
///             probe each unique segment's cost distribution on the shard
///             that owns the sub-path, and merge: compose per candidate in
///             segment order, score with the shared ScoreCandidates rule.
///
/// Answer equivalence is structural, not coincidental: enumeration,
/// segment split, per-segment cost, composition, and scoring are the very
/// functions the single-node path runs (RouteCache,
/// CachedPathCostModel::{SplitSegments, SegmentCost, ComposeSegments},
/// ScoreCandidates), so a scattered answer is bitwise-identical to the
/// single-node answer for the same query — the property the equivalence
/// suite locks in across 1/2/4/8 shards. The merge keys every result by
/// segment *index*: no completion order, adversarial or otherwise, can
/// change the answer (permutation invariance by construction).
///
/// Failure semantics are typed, never silent: a probe lost to a stopped
/// or overloaded shard (transport failure — FailedPrecondition /
/// ResourceExhausted / Unavailable) turns the whole scatter answer into
/// Status::Unavailable, while a *model* error for a segment flows into
/// candidate scoring exactly as it would on a single node. A degraded
/// fleet returns partial-result errors; it never returns a wrong route.
///
/// Cache heat crosses shard boundaries on purpose: when a scatter probe
/// *missed* on its owner shard, the freshly computed entry is replicated
/// into the shards owning the query's source and target regions, so the
/// forwarded (single-shard) queries of adjacent buckets find the boundary
/// sub-paths warm.
///
/// Thread-safety mirrors QueryServer: Submit from any thread;
/// Start/Stop/StopShard/WaitIdle from the control thread; callbacks fire
/// exactly once, on shard worker threads (merges run on the thread that
/// completed the last probe).
class ShardRouter : public QueryService {
 public:
  struct Options {
    /// Ring shape. map.num_shards is the fleet size.
    ShardMap::Options map;
    /// Per-shard QueryServer configuration (every shard gets a copy, so
    /// cache capacity etc. are per shard — fleet capacity scales with N).
    QueryServer::Options server;
    /// Region grid cell size (meters) for RegionBucket: nodes whose cells
    /// match share a bucket, and a query whose source and target buckets
    /// have the same owner is forwarded instead of scattered.
    double region_cell_meters = 2000.0;
    /// Replicate boundary-segment cache entries (see class comment).
    bool replicate_boundary = true;
    /// Test hook — adversarial completion reordering: when nonzero, every
    /// scatter buffers its probe results and applies them in an order
    /// shuffled by this seed before merging, proving end-to-end that the
    /// merge is permutation-invariant. 0 (production) merges as results
    /// arrive.
    uint64_t reorder_seed = 0;
  };

  /// The network must outlive the router. `base_model` is copied into
  /// every shard and must be deterministic and thread-safe for reads —
  /// the same contract QueryServer already imposes, and the property that
  /// makes sharded answers reproducible.
  ShardRouter(const RoadNetwork* network, PathCostModel base_model,
              Options options);
  ~ShardRouter() override;

  ShardRouter(const ShardRouter&) = delete;
  ShardRouter& operator=(const ShardRouter&) = delete;

  /// Starts every shard, then registers the "shard" metrics source.
  /// FailedPrecondition if running.
  Status Start();

  /// Stops every shard and unregisters metrics. Idempotent.
  void Stop();

  /// Stops one member shard — the failure-injection entry (and the ops
  /// story for draining a member). Subsequent probes and forwards that
  /// land on it yield typed Unavailable answers. InvalidArgument on a bad
  /// index; idempotent per shard.
  Status StopShard(int shard);
  bool ShardStopped(int shard) const;

  using QueryService::Submit;
  Status Submit(RouteQuery query,
                std::function<void(const RouteAnswer&)> on_done,
                const SubmitOptions& options) override;

  /// True when any member shard's admission queue is full — conservative,
  /// because a scatter may need every shard.
  bool QueueFull() const override;

  /// Fleet aggregate (ShardStats().Aggregate()).
  ServeStatsSnapshot Stats() const override;

  /// Blocks until every admitted request AND every in-flight scatter has
  /// reached a terminal state.
  void WaitIdle() const override;

  /// Router counters plus every member shard's snapshot.
  ShardStatsSnapshot ShardStats() const;

  const ShardMap& map() const { return map_; }
  int num_shards() const { return map_.num_shards(); }
  QueryServer& shard(int i) { return *shards_[static_cast<size_t>(i)]; }

  /// Region bucket of a node: its (x, y) grid cell at region_cell_meters,
  /// packed into one int64 — the unit of query ownership.
  int64_t RegionBucket(int node) const;
  /// OwnerOfBucket(RegionBucket(node)) — which shard owns a node's region.
  int OwnerOfNode(int node) const;

 private:
  struct ScatterState;

  void Scatter(RouteQuery query, std::function<void(const RouteAnswer&)> cb,
               const SubmitOptions& options, const TraceContext& root_ctx);
  void OnProbeDone(const std::shared_ptr<ScatterState>& state, size_t index,
                   const RouteAnswer& probe_answer);
  void ApplyProbe(const std::shared_ptr<ScatterState>& state, size_t index,
                  const RouteAnswer& probe_answer);
  void Merge(const std::shared_ptr<ScatterState>& state);

  const RoadNetwork* network_;
  Options options_;
  ShardMap map_;
  RouteCache routes_;
  std::vector<std::unique_ptr<QueryServer>> shards_;
  std::unique_ptr<std::atomic<bool>[]> shard_stopped_;

  // Router-tier counters (see ShardRouterStats). A plain mutex: every
  // path that touches these already paid a queue push or probe fan-out.
  mutable std::mutex stats_mu_;
  ShardRouterStats stats_;

  std::atomic<uint64_t> next_id_{0};
  std::atomic<uint64_t> outstanding_scatters_{0};
  std::atomic<bool> running_{false};
  mutable std::mutex lifecycle_mu_;
  bool started_ = false;
};

}  // namespace tsdm

#endif  // TSDM_SHARD_SHARD_ROUTER_H_
