#ifndef TSDM_SERVE_REQUEST_QUEUE_H_
#define TSDM_SERVE_REQUEST_QUEUE_H_

#include <array>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "src/common/status.h"
#include "src/governance/uncertainty/histogram.h"
#include "src/obs/trace.h"
#include "src/serve/serve_stats.h"
#include "src/spatial/shortest_path.h"

namespace tsdm {

/// One routing question a client asks the serving layer: "from source to
/// target, departing at depart_seconds, which of the k candidate routes
/// maximizes my chance of arriving by arrival_deadline_seconds?"
struct RouteQuery {
  int source = 0;
  int target = 0;
  int k = 4;                            ///< candidate routes to enumerate
  double depart_seconds = 0.0;          ///< time of day, seconds
  double arrival_deadline_seconds = 0;  ///< absolute arrival deadline
};

/// The fixed 32-byte block a RouteQuery travels in, both in the wire
/// payload and in a load-trace record, little-endian:
///   i32 source | i32 target | i32 k | 4 reserved bytes |
///   f64 depart_seconds | f64 arrival_deadline_seconds
/// The reserved bytes are written 0 and ignored on read.
inline constexpr size_t kRouteQueryFieldsSize = 32;
/// Appends the block to *out.
void PutRouteQueryFields(const RouteQuery& query, std::vector<uint8_t>* out);
/// Reads the block from `p`, which must hold kRouteQueryFieldsSize bytes.
void GetRouteQueryFields(const uint8_t* p, RouteQuery* out);

/// Critical-path latency attribution of one answered request. The four
/// components partition the admission-to-answer interval exactly (they are
/// computed from the same clock samples, so the telescoping sum equals the
/// end-to-end latency to the nanosecond): where did *this* request's time
/// go — waiting in the queue, waiting in its worker's run (the run's age
/// wait plus earlier members' service), inside the path-cost layer, or in
/// route enumeration and scoring?
struct StageBreakdown {
  uint64_t queue_ns = 0;  ///< admission -> popped by a worker
  uint64_t batch_ns = 0;  ///< pop -> the worker starts serving it
  uint64_t cache_ns = 0;  ///< inside CachedPathCostModel (cache + base model)
  uint64_t exec_ns = 0;   ///< remaining worker execution (routes, scoring)

  uint64_t TotalNs() const { return queue_ns + batch_ns + cache_ns + exec_ns; }
};

/// The serving layer's answer: the chosen route plus the decision-relevant
/// summary of its cost distribution and the request's lifecycle timings.
struct RouteAnswer {
  Status status;
  Path route;                       ///< chosen route (empty on failure)
  double cost_mean_seconds = 0.0;   ///< mean of the route's cost histogram
  double on_time_probability = 0.0; ///< P(arrival <= deadline)
  int num_candidates = 0;           ///< candidates actually scored
  double queue_seconds = 0.0;       ///< admission -> worker pickup
  double service_seconds = 0.0;     ///< worker pickup -> answer
  StageBreakdown stages;            ///< where the end-to-end time went
  /// SubmitOptions::client_request_id, echoed verbatim (0 if unset) — the
  /// correlation handle for callers multiplexing many requests, e.g. the
  /// wire front door matching answers back to connections.
  uint64_t client_request_id = 0;
  /// SubmitOptions::tenant_id, echoed on every terminal answer — served or
  /// shed — so a caller multiplexing tenants (and every shed counter) can
  /// attribute the outcome without a side table.
  std::string tenant_id;
  /// Probe reply (RequestKind::kProbe only): the segment's cost
  /// distribution and whether the serving shard answered it from cache.
  Histogram probe_cost;
  bool probe_from_cache = false;
  /// Enumeration reply (RequestKind::kEnumerate): the query's candidate
  /// routes, in the order the serving shard's RouteCache returned them.
  std::vector<Path> candidates;
};

/// What a queued request asks its worker for. Probes and enumerations are
/// a shard-router scatter's sub-operations; only the scatter itself
/// completes in the flight recorder.
enum class RequestKind {
  kRoute,      ///< a route decision: enumerate, cost and score candidates
  kProbe,      ///< one segment's cost distribution (probe_edges, probe_bucket)
  kEnumerate,  ///< the candidate routes of `query` (RouteAnswer::candidates)
};

/// The reserved tenant of requests that name none. Every request is owned
/// by exactly one tenant, so per-tenant counters always sum to the globals.
constexpr char kDefaultTenant[] = "default";

/// `tenant`, or kDefaultTenant when it is empty. Applied once where a
/// request enters serve (QueryServer, RequestQueue) or shard (ShardRouter).
inline std::string TenantOrDefault(const std::string& tenant) {
  return tenant.empty() ? kDefaultTenant : tenant;
}

/// A queued request: the query plus its admission timestamp, queueing
/// budget, and completion callback. The callback is invoked exactly once —
/// on a worker thread for served requests and requests expired in queue,
/// on the Stop caller's thread for requests drained at shutdown, or on the
/// displacing producer's thread for requests evicted by a higher-priority
/// arrival under overload.
struct ServeRequest {
  uint64_t id = 0;  ///< the request's trace id (0 = not traced)
  RouteQuery query;
  uint64_t enqueue_ns = 0;        ///< TraceRecorder::NowNs at admission
  uint64_t dequeue_ns = 0;        ///< set by PopBatch when a worker pops
  uint64_t batch_id = 0;          ///< the worker's run id (0 = none)
  double queue_budget_seconds = 0.25;  ///< max queueing time; <= 0 = none
  int priority = 0;               ///< scheduling class, clamped to [0, 3]
  int shard = -1;                 ///< SubmitOptions::shard (-1 = unsharded)
  std::string tenant;             ///< SubmitOptions::tenant_id ("" = default)
  uint64_t client_request_id = 0; ///< echoed into RouteAnswer
  /// Request-tree linkage: request_id identifies this request in the trace,
  /// parent_span_id is the submit (root) span every later span attaches to.
  TraceContext trace;
  /// Every kind rides the same pipeline: admission control, exactly-once
  /// callbacks and stage accounting apply to all three unchanged.
  RequestKind kind = RequestKind::kRoute;
  /// kProbe only: the edge sub-path whose cost distribution the worker
  /// answers at `probe_bucket`, as a local query's segment would.
  std::vector<int> probe_edges;
  int probe_bucket = 0;  ///< departure-time bucket of the probe
  std::function<void(const RouteAnswer&)> on_done;
};

/// Bounded, deadline-aware, *tenant-fair* request queue with admission
/// control — the serving front door. Requests carry a tenant id and a
/// priority class; internally the queue holds one sub-queue per tenant
/// (split into priority buckets) and PopBatch drains them by deficit
/// round-robin, so a tenant's share of dispatched work tracks its
/// configured weight regardless of how aggressively other tenants submit.
///
/// Admission control is three-layered and Push never blocks:
///  - per-tenant quota: a tenant may not occupy more than its quota of
///    slots, so one flooding tenant cannot monopolize the queue;
///  - global capacity: when the queue is full, an arriving request of a
///    *higher* priority class displaces the newest queued request of the
///    lowest occupied class (shed-lowest-priority-first) — the evicted
///    request's callback fires with a typed shed; otherwise the arrival
///    itself is shed with Status::ResourceExhausted;
///  - queueing budget: requests whose budget expires before a worker
///    pops them are shed at pop time — admitting them to a worker would
///    only burn service capacity on an answer the client gave up on.
///
/// Every shed — capacity, quota, eviction, expiry, or close-drain — is
/// counted both globally and under the owning tenant, and the shed answer
/// carries the tenant id, so per-tenant shed accounting always sums to the
/// global counters (property-tested).
class RequestQueue {
 public:
  /// Priority classes are small ints, clamped to [0, kPriorityClasses).
  /// Convention: 0 = best-effort, 1 = standard, 2 = premium, 3 = system.
  static constexpr int kPriorityClasses = 4;

  /// Scheduling class of one tenant. Weight scales the tenant's share of
  /// PopBatch throughput under contention (deficit round-robin credit per
  /// round); quota caps its resident queue slots (0 = bounded only by the
  /// global capacity).
  struct TenantClass {
    double weight = 1.0;
    size_t quota = 0;
  };

  struct Options {
    size_t capacity = 1024;
    /// Pre-declared tenant classes; tenants not listed here get a default
    /// TenantClass. Tenants materialize lazily on first submit either
    /// way — the map only fixes weights/quotas.
    std::map<std::string, TenantClass> tenants;
    /// Deficit round-robin credit granted per unit weight each round; the
    /// ratio of two tenants' (quantum * weight) is their dispatch ratio
    /// under saturation.
    double drr_quantum = 8.0;
  };

  /// Per-tenant view of the admission counters. depth is current resident
  /// requests; popped counts requests actually handed to a worker —
  /// the number weighted-fairness tests assert ratios on.
  struct TenantStats : AdmissionCounters {
    uint64_t popped = 0;  ///< delivered to a worker
    size_t depth = 0;
  };

  struct Stats : AdmissionCounters {
    size_t depth = 0;  ///< current queue length (all tenants)
    /// Per-tenant breakdown, sorted by tenant name. Each global admission
    /// counter equals the sum of the matching per-tenant counters.
    std::vector<std::pair<std::string, TenantStats>> tenants;
  };

  RequestQueue() : RequestQueue(Options()) {}
  explicit RequestQueue(Options options);

  /// Admits `req` or sheds it. OK means the request is queued and its
  /// callback will eventually fire; ResourceExhausted means queue-full or
  /// quota shed; FailedPrecondition means the queue is closed. A shed
  /// *arrival* is left intact and its callback is NOT invoked — the caller
  /// still owns both. A successful Push may displace an already-admitted
  /// lower-priority request, whose callback fires (once) with a typed shed
  /// before Push returns.
  Status Push(ServeRequest&& req);

  /// Pops up to `max_n` unexpired requests (as of `now_ns`) by deficit
  /// round-robin across tenants, appending to *out. Expired requests
  /// encountered on the way are shed: counted, and their callback fired
  /// with a ResourceExhausted answer. Returns the number of live requests
  /// delivered. Non-blocking.
  size_t PopBatch(uint64_t now_ns, size_t max_n, std::vector<ServeRequest>* out);

  /// Blocks until the queue has requests, closes, or `timeout_seconds`
  /// elapses; returns true when requests are available. Pops stay with
  /// PopBatch so every dequeue goes through the same expiry check.
  bool WaitForWork(double timeout_seconds) const;

  /// Closes the queue: subsequent Push calls are rejected and queued
  /// requests are drained, each callback fired with a FailedPrecondition
  /// answer (counted as shed_closed). Idempotent.
  void Close();

  bool closed() const;
  /// True when the queue holds its (clamped) capacity: the next Push is
  /// shed unless it displaces a lower-priority request. Unlike GetStats,
  /// it copies nothing, so it is cheap enough for a per-request probe.
  bool Full() const;
  Stats GetStats() const;

 private:
  /// One tenant's scheduling state: priority-bucketed FIFO sub-queues plus
  /// the deficit counter the round-robin drains against.
  struct Tenant {
    std::string name;
    TenantClass cls;
    std::array<std::deque<ServeRequest>, kPriorityClasses> buckets;
    double deficit = 0.0;
    TenantStats stats;  ///< stats.depth is the tenant's queued count
  };

  /// Finds or lazily creates the tenant record (lock held).
  Tenant* TenantFor(const std::string& name);
  /// Pops the front of `t`'s highest-priority non-empty bucket (lock held;
  /// depth bookkeeping included). Requires t->stats.depth > 0.
  ServeRequest PopHighest(Tenant* t);

  Options options_;
  mutable std::mutex mu_;
  mutable std::condition_variable available_;
  /// Insertion order doubles as the round-robin visit order.
  std::vector<std::unique_ptr<Tenant>> tenants_;
  std::map<std::string, size_t> tenant_index_;  ///< name -> tenants_ slot
  std::array<size_t, kPriorityClasses> class_depth_{};  ///< global per class
  size_t total_depth_ = 0;
  size_t rr_start_ = 0;  ///< rotating round-robin start position
  Stats stats_;  ///< global counters only; depth and tenants filled on read
  bool closed_ = false;
};

}  // namespace tsdm

#endif  // TSDM_SERVE_REQUEST_QUEUE_H_
