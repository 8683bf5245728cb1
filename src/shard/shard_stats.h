#ifndef TSDM_SHARD_SHARD_STATS_H_
#define TSDM_SHARD_SHARD_STATS_H_

#include <algorithm>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "src/obs/health.h"
#include "src/serve/serve_stats.h"

namespace tsdm {

/// Routing-tier counters of one ShardRouter — what happened *above* the
/// per-shard QueryServers: how queries were routed, how scatters fared,
/// and how much cache heat crossed shard boundaries.
struct ShardRouterStats {
  int num_shards = 0;

  uint64_t forwarded = 0;  ///< single-shard queries pinned to their owner
  uint64_t scattered = 0;  ///< cross-shard queries decomposed into probes
  uint64_t probes_sent = 0;           ///< segment cost probes issued
  uint64_t probe_transport_failures = 0;  ///< probes lost to a dead/full shard
  uint64_t merges = 0;            ///< scatter answers assembled
  uint64_t partial_errors = 0;    ///< scatters answered Unavailable (typed)
  uint64_t replicated = 0;        ///< boundary cache entries copied across
  uint64_t enumeration_failures = 0;  ///< scatters dead before probing

  /// Per-shard routing attribution (index = shard id): queries forwarded
  /// to / probes served by each shard, so imbalance is visible per fleet.
  std::vector<uint64_t> forwarded_per_shard;
  std::vector<uint64_t> probes_per_shard;
};

/// The full observable state of a sharded serving fleet: the router's own
/// counters plus every member shard's ServeStatsSnapshot.
struct ShardStatsSnapshot {
  ShardRouterStats router;
  std::vector<ServeStatsSnapshot> shards;

  /// Fleet-level serve view: counters summed, latency histograms merged
  /// bin-wise — the shape QueryService::Stats() promises a shard-oblivious
  /// caller (depths/sizes sum; workers sum; max_batch is the fleet max).
  ServeStatsSnapshot Aggregate() const {
    ServeStatsSnapshot total;
    for (const ServeStatsSnapshot& s : shards) {
      total += s;
      total.queue_depth += s.queue_depth;
      total.batches += s.batches;
      total.batched_requests += s.batched_requests;
      if (s.max_batch > total.max_batch) total.max_batch = s.max_batch;
      total.cache_hits += s.cache_hits;
      total.cache_misses += s.cache_misses;
      total.cache_evictions += s.cache_evictions;
      total.cache_size += s.cache_size;
      total.completed += s.completed;
      total.failed += s.failed;
      total.workers += s.workers;
      total.scale_events += s.scale_events;
      total.queue_latency.Merge(s.queue_latency);
      total.e2e_latency.Merge(s.e2e_latency);
      total.stage_queue.Merge(s.stage_queue);
      total.stage_batch.Merge(s.stage_batch);
      total.stage_cache.Merge(s.stage_cache);
      total.stage_exec.Merge(s.stage_exec);
      MergeTenantStats(&total.tenants, s.tenants);
    }
    return total;
  }
};

/// Collapses per-shard health verdicts into one fleet view: the state is
/// the worst member state, burn rate and offender share are the fleet
/// maxima (an SLO is burning wherever it burns fastest), anomaly and
/// sample counts sum, and each member's metric verdicts appear prefixed
/// "s<i>/" so a degraded fleet still says *which* shard and metric
/// tripped.
inline HealthSnapshot AggregateFleetHealth(
    const std::vector<HealthSnapshot>& members) {
  HealthSnapshot fleet;
  for (size_t i = 0; i < members.size(); ++i) {
    const HealthSnapshot& m = members[i];
    // Built by append: g++ 12 at -O3 flags the chained
    // `"s" + std::to_string(i) + "/"` temporaries with a false -Wrestrict.
    std::string prefix = "s";
    prefix += std::to_string(i);
    prefix += '/';
    if (static_cast<int>(m.state) > static_cast<int>(fleet.state)) {
      fleet.state = m.state;
    }
    fleet.samples += m.samples;
    fleet.anomalies_total += m.anomalies_total;
    fleet.slo_objective_seconds = m.slo_objective_seconds;
    fleet.violation_fraction =
        std::max(fleet.violation_fraction, m.violation_fraction);
    if (m.burn_rate > fleet.burn_rate) fleet.burn_rate = m.burn_rate;
    if (m.top_offender_share > fleet.top_offender_share) {
      fleet.top_offender_share = m.top_offender_share;
      fleet.top_offender = prefix + m.top_offender;
    }
    for (const MetricVerdict& v : m.metrics) {
      MetricVerdict prefixed = v;
      prefixed.name = prefix + v.name;
      fleet.metrics.push_back(std::move(prefixed));
    }
  }
  return fleet;
}

}  // namespace tsdm

#endif  // TSDM_SHARD_SHARD_STATS_H_
