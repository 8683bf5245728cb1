#ifndef TSDM_SERVE_QUERY_SERVER_H_
#define TSDM_SERVE_QUERY_SERVER_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "src/common/thread_pool.h"
#include "src/decision/routing/stochastic_router.h"
#include "src/serve/autoscale_controller.h"
#include "src/serve/micro_batcher.h"
#include "src/serve/path_cost_cache.h"
#include "src/serve/query_service.h"
#include "src/serve/request_queue.h"
#include "src/serve/route_cache.h"
#include "src/serve/serve_stats.h"
#include "src/spatial/road_network.h"

namespace tsdm {

/// The serving front door for routing queries — the piece that turns the
/// decision layer from a library into a system:
///
///   clients --Submit--> RequestQueue --dispatcher--> MicroBatcher
///        --batches--> ThreadPool workers --> answer callbacks
///
/// Workers answer each query from two layers of memoization: a bounded
/// LRU of candidate route enumerations per (source, target, k) — the
/// K-shortest computation is departure-time independent — and the shared
/// PathCostCache of sub-path cost distributions (PACE-style reuse, [4]).
/// A warm query therefore costs two lookups plus a few convolutions where
/// a cold one pays Yen's algorithm plus full cost recomposition.
///
/// The dispatcher doubles as the autoscale control loop: every review
/// interval it feeds the observed arrival count into the
/// AutoscaleController, which forecasts demand and resizes the worker
/// pool within [min_workers, max_workers].
///
/// Thread-safety: Submit is safe from any number of producer threads.
/// Start/Stop/WaitIdle are for the owning (control) thread. Callbacks run
/// on worker threads (served), the dispatcher (expired in queue), or the
/// Stop caller (drained at shutdown) — exactly once per admitted request.
class QueryServer : public QueryService {
 public:
  /// Which AutoscalePolicy the dispatcher's control loop runs. Options
  /// must stay copyable, so the server owns policy construction from this
  /// tag instead of holding a unique_ptr in Options.
  enum class AutoscalePolicyKind {
    kReactive,  ///< provision the recent peak + headroom (chases surges)
    kForecast,  ///< StreamForecastPolicy: Holt trend projection (pre-scales)
  };

  struct Options {
    RequestQueue::Options queue;
    MicroBatcher::Options batch;
    PathCostCache::Options cache;
    CachedPathCostModel::Options cost;
    AutoscaleController::Options autoscale;
    AutoscalePolicyKind autoscale_policy = AutoscalePolicyKind::kReactive;
    int initial_workers = 2;
    bool autoscale_enabled = true;
    double autoscale_interval_seconds = 0.05;
    /// Candidate-route LRU entries ((source, target, k) keys).
    size_t route_cache_entries = 512;
    /// Called synchronously inside Submit for every route query, before
    /// admission control — the tap the workload LoadTraceRecorder hangs
    /// off to capture live traffic (sheds included, so a replay reproduces
    /// the offered load, not just the served part). Must be thread-safe;
    /// keep it cheap, it runs on the submitter's thread.
    std::function<void(const RouteQuery&, const SubmitOptions&,
                       uint64_t enqueue_ns)>
        submit_observer;
  };

  /// The shared submit surface lives at namespace scope (query_service.h)
  /// so routers and servers construct the same struct; this alias keeps
  /// the established `QueryServer::SubmitOptions` spelling valid.
  using SubmitOptions = tsdm::SubmitOptions;

  /// The network must outlive the server. `base_model` computes sub-path
  /// cost distributions (EdgeCentricModel / PathCentricModel adapter) and
  /// must be deterministic and thread-safe for reads.
  QueryServer(const RoadNetwork* network, PathCostModel base_model)
      : QueryServer(network, std::move(base_model), Options()) {}
  QueryServer(const RoadNetwork* network, PathCostModel base_model,
              Options options);
  ~QueryServer() override;

  QueryServer(const QueryServer&) = delete;
  QueryServer& operator=(const QueryServer&) = delete;

  /// Spawns the dispatcher. FailedPrecondition if already started.
  Status Start();

  /// Closes the queue (draining queued requests as shed), flushes pending
  /// batches through the workers, joins the dispatcher, and waits for
  /// in-flight work. Idempotent.
  void Stop();

  /// Admission control: OK means `on_done` will be called exactly once;
  /// a shed returns ResourceExhausted (queue full) or FailedPrecondition
  /// (stopped) immediately and `on_done` is NOT retained.
  using QueryService::Submit;
  Status Submit(RouteQuery query,
                std::function<void(const RouteAnswer&)> on_done,
                const SubmitOptions& options) override;

  /// Submits a scatter probe: answer the cost distribution of exactly
  /// `segment` at departure-time bucket `bucket` (RouteAnswer::probe_cost /
  /// probe_from_cache), through the same cache + base-model path a local
  /// query would take. Probes ride the ordinary queue/batch/worker
  /// pipeline, so admission control and the exactly-once callback contract
  /// apply unchanged. This is the shard router's remote-segment primitive.
  Status SubmitProbe(std::vector<int> segment, int bucket,
                     std::function<void(const RouteAnswer&)> on_done,
                     const SubmitOptions& options);

  /// True when the admission queue is at capacity — the cheap socket-layer
  /// probe for shedding a wire request before its payload is even decoded.
  bool QueueFull() const override;

  /// Blocks until every admitted request has reached a terminal state
  /// (answered or shed) and no batch is in flight.
  void WaitIdle() const override;

  ServeStatsSnapshot Stats() const override;
  int workers() const { return pool_.NumThreads(); }
  PathCostCache& cache() { return cache_; }
  const PathCostCache& cache() const { return cache_; }
  const Options& options() const { return options_; }

 private:
  void DispatcherLoop();
  /// True while the in-flight batch count is at the backpressure bound.
  bool WorkersSaturated() const;
  void DispatchReady(std::vector<std::vector<ServeRequest>>* ready);
  void ServeBatch(std::vector<ServeRequest>* batch);
  void ServeOne(const ServeRequest& req);
  void MaybeAutoscale(uint64_t now_ns);

  /// Builds the queued request shared by Submit and SubmitProbe: assigns
  /// the id, roots (or adopts) the trace tree, and stamps admission state.
  ServeRequest MakeRequest(RouteQuery query,
                           std::function<void(const RouteAnswer&)> on_done,
                           const SubmitOptions& options);

  const RoadNetwork* network_;
  Options options_;

  PathCostCache cache_;
  CachedPathCostModel cost_model_;
  RouteCache routes_;
  RequestQueue queue_;
  ThreadPool pool_;

  // Dispatcher-owned state, guarded so Stats() can read it concurrently.
  mutable std::mutex control_mu_;
  MicroBatcher batcher_;
  AutoscaleController controller_;
  uint64_t last_autoscale_ns_ = 0;
  uint64_t last_submitted_ = 0;

  // Worker-side accounting.
  struct TenantWorkerStats {
    uint64_t completed = 0;
    uint64_t failed = 0;
    LatencyHistogram e2e_latency;
  };
  mutable std::mutex metrics_mu_;
  LatencyHistogram queue_latency_;
  LatencyHistogram e2e_latency_;
  LatencyHistogram stage_queue_;
  LatencyHistogram stage_batch_;
  LatencyHistogram stage_cache_;
  LatencyHistogram stage_exec_;
  std::map<std::string, TenantWorkerStats> tenant_metrics_;
  std::atomic<uint64_t> completed_{0};
  std::atomic<uint64_t> failed_{0};
  std::atomic<uint64_t> next_id_{0};
  std::atomic<int> in_flight_batches_{0};

  // Wakes the dispatcher out of its backpressure wait when a batch
  // completes (paired with in_flight_batches_; the wait also times out at
  // the idle poll interval, so a missed notify only costs one interval).
  mutable std::mutex batch_done_mu_;
  std::condition_variable batch_done_cv_;

  // Start/Stop lifecycle. The mutex serializes concurrent Stops (owner +
  // destructor + monitoring hooks) so the dispatcher is joined exactly
  // once; `started_` is only touched under it.
  mutable std::mutex lifecycle_mu_;
  std::thread dispatcher_;
  std::atomic<bool> running_{false};
  bool started_ = false;
};

}  // namespace tsdm

#endif  // TSDM_SERVE_QUERY_SERVER_H_
