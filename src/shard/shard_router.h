#ifndef TSDM_SHARD_SHARD_ROUTER_H_
#define TSDM_SHARD_SHARD_ROUTER_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <vector>

#include "src/serve/query_server.h"
#include "src/serve/query_service.h"
#include "src/shard/shard_map.h"
#include "src/shard/shard_stats.h"
#include "src/spatial/road_network.h"

namespace tsdm {

/// Scatter-gather front door over N in-process QueryServer shards — the
/// capacity-scaling tier of the serving stack. Implements the same
/// QueryService surface a single QueryServer does, so the socket server
/// (and therefore NetClient) cannot tell one node from a fleet. Every query
/// becomes one request on the queue of the shard owning its source region:
///
///   Submit --> owner(source region) == owner(target region)?
///     yes --> forward: a route query pinned to that owner
///     no  --> scatter: an enumeration request (RequestKind::kEnumerate);
///             its callback, on the owner's worker, splits the candidates
///             into PathCostCache-granularity segments and probes each on
///             the shard owning the sub-path; the merge composes per
///             candidate in segment order and decides (ScoreCandidates).
///
/// Answer equivalence is structural, not coincidental: enumeration,
/// segment split, per-segment cost, composition, and decision are the very
/// functions the single-node path runs (RouteCache,
/// CachedPathCostModel::{SplitSegments, SegmentCost, FoldSegments},
/// ScoreCandidates over Decide), so a scattered answer is bitwise-identical
/// to the single-node answer for the same query — the property the
/// equivalence suite locks in across 1/2/4/8 shards. The merge keys every
/// result by segment *index*: no completion order, adversarial or
/// otherwise, can change the answer (permutation invariance by
/// construction).
///
/// Admission, either kind, is the source owner's typed Push result
/// (Unavailable when it is stopped); the shards a scatter will probe are
/// known only after enumeration and take no part in it. Probes get what
/// the enumeration's queue wait left of the caller's queue budget, so a
/// scatter queues within one budget, as a forward does. The probe rule: a
/// probe a full or stopped shard refuses or drops (FailedPrecondition /
/// ResourceExhausted / Unavailable) completes the scatter as a typed
/// partial-result Status::Unavailable, counted in probe_transport_failures
/// and partial_errors; a *model* error for a segment flows into candidate
/// scoring exactly as on a single node. A degraded fleet returns typed
/// errors, never a wrong route. However a scatter ends (enumeration error,
/// enumeration request shed or drained, merge), one path completes it.
///
/// Cache heat crosses shard boundaries on purpose: a segment a probe had
/// to compute is replicated into the shards owning the query's endpoint
/// regions, so their forwarded queries find the boundary sub-paths warm.
///
/// Thread-safety mirrors QueryServer: Submit from any thread;
/// Start/Stop/StopShard/WaitIdle from the control thread; callbacks fire
/// exactly once, where the last sub-request of their query completed.
class ShardRouter : public QueryService {
 public:
  struct Options {
    /// Ring shape. map.num_shards is the fleet size.
    ShardMap::Options map;
    /// Per-shard QueryServer configuration: every shard gets a copy, and
    /// with N > 1 its route LRU gets ceil(route_cache_entries / N) more
    /// entries for the scatter enumerations it runs.
    QueryServer::Options server;
    /// Region grid cell size (meters) for RegionBucket: nodes whose cells
    /// match share a bucket, and a query whose source and target buckets
    /// have the same owner is forwarded instead of scattered.
    double region_cell_meters = 2000.0;
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

  /// True when no member shard can admit: every shard's queue is full.
  /// Which shard a query needs is decided in Submit, where every query,
  /// forwarded or scattered, meets its source owner's typed Push result.
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

  /// The enumeration request's callback: fans the candidates' segments
  /// out as probes, or ends the scatter with the enumeration's status.
  void OnEnumerated(const std::shared_ptr<ScatterState>& state,
                    const RouteAnswer& enumerated);
  void OnProbeDone(const std::shared_ptr<ScatterState>& state, size_t index,
                   const RouteAnswer& probe_answer);
  void ApplyProbe(const std::shared_ptr<ScatterState>& state, size_t index,
                  const RouteAnswer& probe_answer);
  void Merge(const std::shared_ptr<ScatterState>& state);
  /// The scatter's one terminal path: stamps `answer`, writes the flight
  /// record, calls on_done and releases outstanding_scatters_.
  void Finish(const std::shared_ptr<ScatterState>& state, RouteAnswer answer);

  const RoadNetwork* network_;
  Options options_;
  ShardMap map_;
  std::vector<std::unique_ptr<QueryServer>> shards_;
  std::unique_ptr<std::atomic<bool>[]> shard_stopped_;

  // Router-tier counters (see ShardRouterStats). A plain mutex: every
  // path that touches these already paid a queue push or probe fan-out.
  mutable std::mutex stats_mu_;
  ShardRouterStats stats_;

  std::atomic<uint64_t> outstanding_scatters_{0};
  std::atomic<bool> running_{false};
  mutable std::mutex lifecycle_mu_;
  bool started_ = false;
};

}  // namespace tsdm

#endif  // TSDM_SHARD_SHARD_ROUTER_H_
