#ifndef TSDM_SERVE_QUERY_SERVICE_H_
#define TSDM_SERVE_QUERY_SERVICE_H_

#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "src/common/status.h"
#include "src/governance/uncertainty/histogram.h"
#include "src/obs/trace.h"
#include "src/serve/request_queue.h"
#include "src/serve/serve_stats.h"
#include "src/spatial/shortest_path.h"

namespace tsdm {

/// Per-request submission knobs — the one submit surface shared by every
/// serving front door (a single QueryServer, the sharded ShardRouter, and
/// the wire front door all construct the same struct). Lives at namespace
/// scope so routers and servers share it; `QueryServer::SubmitOptions`
/// remains a valid spelling via a member alias.
struct SubmitOptions {
  /// Max queueing time before the request is shed at pop; <= 0 = none.
  double queue_budget_seconds = 0.25;
  /// Scheduling class, clamped to [0, RequestQueue::kPriorityClasses).
  /// Higher is more important: under overload the queue sheds the lowest
  /// occupied class first, and a higher-priority arrival may displace a
  /// queued lower-priority request. 0 = best-effort.
  int priority = 0;
  /// Workload tenant this request is accounted to ("" = the reserved
  /// kDefaultTenant). Tenants get their own weighted-fair sub-queue,
  /// quota, shed counters, latency histogram, `tsdm_serve_tenant_*`
  /// metric families, and span attribute; the id is echoed on every
  /// terminal answer as RouteAnswer::tenant_id.
  std::string tenant_id;
  /// Caller-assigned correlation id, echoed verbatim in
  /// RouteAnswer::client_request_id (0 = unset).
  uint64_t client_request_id = 0;
  /// Shard the routing tier pinned this request to (-1 = not routed).
  /// Set by ShardRouter on every request it sends a shard, so per-shard
  /// attribution survives into the serve layer; direct callers leave it.
  int shard = -1;
  /// When set (ForRequest()), the request's `serve/submit` span attaches
  /// under this context instead of rooting a new trace tree — how the
  /// socket layer links `net/read -> serve/submit -> net/write` and the
  /// shard router links `shard/scatter -> serve/submit` into one tree.
  TraceContext trace_parent;
};

/// The abstract serving front door: what a network layer (or any other
/// client) needs from "something that answers route queries" — admission-
/// controlled submission, a cheap overload probe, aggregate stats, and a
/// drain barrier. QueryServer implements it directly; ShardRouter
/// implements it by routing over N QueryServers, which is what makes the
/// socket server (and therefore NetClient) shard-oblivious.
class QueryService {
 public:
  virtual ~QueryService() = default;

  /// Admission control: OK means `on_done` will be called exactly once;
  /// a shed returns ResourceExhausted (queue full or tenant at quota),
  /// Unavailable (the owning shard is stopped) or FailedPrecondition
  /// (stopped) immediately and `on_done` is NOT retained.
  virtual Status Submit(RouteQuery query,
                        std::function<void(const RouteAnswer&)> on_done,
                        const SubmitOptions& options) = 0;
  Status Submit(RouteQuery query,
                std::function<void(const RouteAnswer&)> on_done) {
    return Submit(std::move(query), std::move(on_done), SubmitOptions());
  }

  /// True when no query can be admitted anywhere — the cheap socket-layer
  /// probe for shedding a request before its payload is even decoded.
  virtual bool QueueFull() const = 0;

  /// One coherent stats snapshot. For a router this is the fleet
  /// aggregate: counters summed, latency histograms merged bin-wise.
  virtual ServeStatsSnapshot Stats() const = 0;

  /// Blocks until every admitted request has reached a terminal state.
  virtual void WaitIdle() const = 0;
};

/// The serving tier's decision step, shared by the single-node worker path
/// and the shard router's merge so both decide bitwise-identically: Decide
/// with on-time probability over the travel budget (deadline minus
/// departure; the deadline is a time of day) when a deadline is set, mean
/// cost otherwise. Fills the decision fields of *answer (status, route,
/// cost_mean_seconds, on_time_probability, num_candidates); NotFound when
/// no candidate has a cost distribution.
void ScoreCandidates(const RouteQuery& query, const std::vector<Path>& routes,
                     const std::vector<Result<Histogram>>& costs,
                     RouteAnswer* answer);

/// True for the codes a request is shed with rather than answered:
/// ResourceExhausted (queue or quota full, displaced, expired in queue),
/// FailedPrecondition (stopped, draining) and Unavailable (shard stopped,
/// partial scatter). The flight recorder files these as sheds, and the
/// shard router reads a probe failing with one as a lost shard, not as a
/// segment the model cannot cost.
bool IsShedCode(StatusCode code);

/// The terminal answer of a request no worker served — shed at the socket
/// before Submit, refused by a stopped shard or at Push, or expired,
/// drained or displaced in queue: `status`, the caller's correlation id
/// and tenant, and `queued_ns` as its whole (queue-stage) latency. No
/// worker will ever complete such a request, so this also completes its
/// flight record under (request_id, shard) — unless `record` is false: a
/// probe or enumeration belongs to a scatter whose record the shard router
/// completes.
RouteAnswer AnswerUnserved(Status status, uint64_t request_id, int shard,
                           uint64_t client_request_id, std::string tenant,
                           uint64_t queued_ns = 0, bool record = true);

}  // namespace tsdm

#endif  // TSDM_SERVE_QUERY_SERVICE_H_
