#ifndef TSDM_SERVE_SERVE_STATS_H_
#define TSDM_SERVE_SERVE_STATS_H_

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "src/common/histogram_ext.h"

namespace tsdm {

/// The admission and shed counters of the weighted-fair RequestQueue,
/// declared once: the queue keeps one block globally and one per tenant,
/// and every serving stats view below carries them by deriving from it.
struct AdmissionCounters {
  uint64_t submitted = 0;      ///< Push calls
  uint64_t admitted = 0;       ///< accepted into the queue
  uint64_t shed_capacity = 0;  ///< rejected at Push: queue or quota full
  uint64_t shed_expired = 0;   ///< dropped at pop: queue budget exceeded
  uint64_t shed_closed = 0;    ///< rejected at Push or drained: closed
  uint64_t shed_evicted = 0;   ///< displaced by a higher-priority arrival

  uint64_t TotalShed() const {
    return shed_capacity + shed_expired + shed_closed + shed_evicted;
  }
  AdmissionCounters& operator+=(const AdmissionCounters& o) {
    submitted += o.submitted;
    admitted += o.admitted;
    shed_capacity += o.shed_capacity;
    shed_expired += o.shed_expired;
    shed_closed += o.shed_closed;
    shed_evicted += o.shed_evicted;
    return *this;
  }
};

/// One tenant's slice of the serving counters: admission and shed
/// accounting from the weighted-fair queue plus worker-side completion
/// counts and the tenant's own end-to-end latency distribution — the
/// numbers per-tenant SLOs (premium p95) are checked against. Each global
/// counter in ServeStatsSnapshot equals the sum of the matching field
/// here across tenants (property-tested).
struct TenantServeStats : AdmissionCounters {
  std::string tenant;
  uint64_t completed = 0;      ///< answered OK
  uint64_t failed = 0;         ///< answered non-OK
  size_t queue_depth = 0;
  LatencyHistogram e2e_latency;  ///< admission -> answer, this tenant only
};

/// Accumulates `from` into the tenant list `into`, matching entries by
/// tenant name (creating missing ones) — the merge rule the shard tier
/// uses to collapse per-shard tenant slices into one fleet view. Keeps
/// `into` sorted by tenant name.
inline void MergeTenantStats(std::vector<TenantServeStats>* into,
                             const std::vector<TenantServeStats>& from) {
  for (const TenantServeStats& t : from) {
    auto it = std::lower_bound(
        into->begin(), into->end(), t,
        [](const TenantServeStats& a, const TenantServeStats& b) {
          return a.tenant < b.tenant;
        });
    if (it == into->end() || it->tenant != t.tenant) {
      it = into->insert(it, TenantServeStats{});
      it->tenant = t.tenant;
    }
    *it += t;
    it->completed += t.completed;
    it->failed += t.failed;
    it->queue_depth += t.queue_depth;
    it->e2e_latency.Merge(t.e2e_latency);
  }
}

/// One coherent snapshot of the serving layer's counters — the shape the
/// MetricsExporter serializes to JSON / Prometheus and the benches report.
/// Plain data so obs can depend on it without pulling in the server.
struct ServeStatsSnapshot : AdmissionCounters {
  size_t queue_depth = 0;  ///< current queue length (all tenants)

  // Batching: the runs workers pop and serve.
  uint64_t batches = 0;
  uint64_t batched_requests = 0;
  size_t max_batch = 0;

  // Sub-path cache (PathCostCache).
  uint64_t cache_hits = 0;
  uint64_t cache_misses = 0;
  uint64_t cache_evictions = 0;
  size_t cache_size = 0;

  // Execution.
  uint64_t completed = 0;  ///< answered OK
  uint64_t failed = 0;     ///< answered non-OK by the router/model
  int workers = 0;         ///< current ThreadPool size
  int scale_events = 0;    ///< autoscaler resizes since start

  // Lifecycle latencies of *answered* requests.
  LatencyHistogram queue_latency;  ///< admission -> service start
  LatencyHistogram e2e_latency;    ///< admission -> answer

  // Critical-path attribution of answered requests: per-stage latency
  // distributions matching StageBreakdown. For each request the four
  // stage samples telescope to its e2e latency, so comparing the stages'
  // total_seconds() tells you which component the fleet's time went to.
  LatencyHistogram stage_queue;  ///< admission -> dequeue
  LatencyHistogram stage_batch;  ///< dequeue -> worker pickup
  LatencyHistogram stage_cache;  ///< inside the path-cost layer
  LatencyHistogram stage_exec;   ///< remaining worker execution

  /// Per-tenant breakdown, sorted by tenant name. Requests submitted
  /// without a tenant id land under the reserved kDefaultTenant, so the
  /// per-tenant counters always sum to the globals.
  std::vector<TenantServeStats> tenants;

  /// Shed fraction over everything submitted (0 when idle).
  double ShedRate() const {
    return submitted == 0
               ? 0.0
               : static_cast<double>(TotalShed()) /
                     static_cast<double>(submitted);
  }
  /// The stage that accumulated the most total time across answered
  /// requests — where the fleet's latency actually went. "" while nothing
  /// has been answered. The health monitor applies the same rule to
  /// *interval deltas* to attribute a degradation to its component.
  const char* SlowestStage() const {
    const char* names[4] = {"queue", "batch", "cache", "exec"};
    const double totals[4] = {
        stage_queue.total_seconds(), stage_batch.total_seconds(),
        stage_cache.total_seconds(), stage_exec.total_seconds()};
    int best = -1;
    for (int i = 0; i < 4; ++i) {
      if (totals[i] > 0.0 && (best < 0 || totals[i] > totals[best])) best = i;
    }
    return best < 0 ? "" : names[best];
  }

  /// Cache hit fraction over all lookups (0 before any lookup).
  double CacheHitRate() const {
    uint64_t lookups = cache_hits + cache_misses;
    return lookups == 0 ? 0.0
                        : static_cast<double>(cache_hits) /
                              static_cast<double>(lookups);
  }
};

}  // namespace tsdm

#endif  // TSDM_SERVE_SERVE_STATS_H_
