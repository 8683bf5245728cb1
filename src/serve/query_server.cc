#include "src/serve/query_server.h"

#include <algorithm>
#include <chrono>
#include <thread>
#include <utility>

#include "src/obs/flight_recorder.h"
#include "src/obs/trace.h"
#include "src/spatial/shortest_path.h"

namespace tsdm {

namespace {

/// Dispatcher block time while idle; bounds shutdown latency.
constexpr double kIdlePollSeconds = 0.001;

/// Backpressure bound: the dispatcher stops popping the admission queue
/// while this many batches per worker are already in flight. Under overload
/// this keeps the backlog *in* the weighted-fair queue — where deadlines
/// expire, quotas bind, and higher-priority arrivals can displace it —
/// instead of silently spilling into the worker pool's unbounded FIFO,
/// which would undo every scheduling decision exactly when scheduling
/// matters. A few batches of slack per worker keep the dispatcher's
/// wake-up latency from starving a worker between refills.
constexpr int kMaxBatchesPerWorker = 4;

std::unique_ptr<AutoscalePolicy> MakeAutoscalePolicy(
    const QueryServer::Options& options) {
  if (options.autoscale_policy == QueryServer::AutoscalePolicyKind::kForecast) {
    return std::make_unique<StreamForecastPolicy>();
  }
  // nullptr lets the controller fall back to its ReactivePolicy default.
  return nullptr;
}

}  // namespace

QueryServer::QueryServer(const RoadNetwork* network, PathCostModel base_model,
                         Options options)
    : network_(network),
      options_(options),
      cache_(options.cache),
      cost_model_(std::move(base_model), &cache_, options.cost),
      routes_(network, options.route_cache_entries),
      queue_(options.queue),
      pool_(std::max(1, options.initial_workers)),
      batcher_(options.batch),
      controller_(&pool_, MakeAutoscalePolicy(options), options.autoscale) {
  options_.route_cache_entries = std::max<size_t>(1, options_.route_cache_entries);
}

QueryServer::~QueryServer() { Stop(); }

Status QueryServer::Start() {
  std::lock_guard<std::mutex> lock(lifecycle_mu_);
  if (started_) {
    return Status::FailedPrecondition("QueryServer: already started");
  }
  started_ = true;
  running_.store(true, std::memory_order_release);
  last_autoscale_ns_ = TraceRecorder::NowNs();
  dispatcher_ = std::thread([this] { DispatcherLoop(); });
  return Status::OK();
}

void QueryServer::Stop() {
  // Exactly one caller owns the shutdown: the lifecycle lock makes
  // concurrent Stops (owner thread + destructor, health hooks, the wire
  // front door) collapse to no-ops instead of a double join, and the
  // dispatcher handle moves out so the join itself runs unlocked —
  // Stats() and Submit() stay callable during the drain.
  std::thread dispatcher;
  {
    std::lock_guard<std::mutex> lock(lifecycle_mu_);
    // Closing first makes Submit reject new work and sheds whatever is
    // still queued; the dispatcher then flushes its pending batches to
    // the workers on its way out. Submit admits before Start too, so the
    // queue closes even when the server never started — the exactly-once
    // callback contract holds for those requests as well.
    queue_.Close();
    if (!started_) return;
    started_ = false;
    running_.store(false, std::memory_order_release);
    dispatcher = std::move(dispatcher_);
  }
  if (dispatcher.joinable()) dispatcher.join();
  pool_.Wait();
}

ServeRequest QueryServer::MakeRequest(
    RouteQuery query, std::function<void(const RouteAnswer&)> on_done,
    const SubmitOptions& options) {
  ServeRequest req;
  req.id = next_id_.fetch_add(1, std::memory_order_relaxed);
  // Root of this request's span tree; ids are 1-based because request_id 0
  // means "no request". Every later span — queue wait, batch wait, exec,
  // path-cost, shed — attaches under this root via req.trace. A caller
  // with its own root (the wire front door's `net/request`, the shard
  // router's `shard/scatter`) passes it as trace_parent and the submit
  // span becomes a child in that tree instead.
  const TraceContext root = options.trace_parent.ForRequest()
                                ? options.trace_parent
                                : TraceContext{req.id + 1, 0};
  TraceSpan span("serve/submit", root, static_cast<int64_t>(req.id));
  // Normalize here (not just in the queue) so the submit span, the shed
  // answer, and the worker-side accounting all see the same tenant name.
  req.tenant = options.tenant_id.empty() ? "default" : options.tenant_id;
  span.SetTenant(req.tenant);
  req.trace = span.ChildContext();
  req.query = query;
  req.enqueue_ns = TraceRecorder::NowNs();
  req.queue_budget_seconds = options.queue_budget_seconds;
  req.priority = options.priority;
  req.shard = options.shard;
  req.client_request_id = options.client_request_id;
  req.on_done = std::move(on_done);
  return req;
}

Status QueryServer::Submit(RouteQuery query,
                           std::function<void(const RouteAnswer&)> on_done,
                           const SubmitOptions& options) {
  ServeRequest req = MakeRequest(std::move(query), std::move(on_done), options);
  if (options_.submit_observer) {
    options_.submit_observer(req.query, options, req.enqueue_ns);
  }
  // A push-shed returns non-OK *without* invoking on_done, so its terminal
  // answer exists nowhere — synthesize one for the flight recorder. The
  // identity must be captured before the move into Push.
  uint64_t flight_rid = 0;
  uint64_t flight_client_id = 0;
  std::string flight_tenant;
  const bool flight = FlightRecorder::Enabled();
  if (flight) {
    flight_rid = req.trace.request_id;
    flight_client_id = req.client_request_id;
    flight_tenant = req.tenant;
  }
  Status st = queue_.Push(std::move(req));
  if (flight && !st.ok()) {
    RouteAnswer shed;
    shed.status = st;
    shed.client_request_id = flight_client_id;
    shed.tenant_id = std::move(flight_tenant);
    FlightRecorder::MaybeComplete(flight_rid, options.shard, shed);
  }
  return st;
}

Status QueryServer::SubmitProbe(std::vector<int> segment, int bucket,
                                std::function<void(const RouteAnswer&)> on_done,
                                const SubmitOptions& options) {
  if (segment.empty()) {
    return Status::InvalidArgument("serve: probe segment is empty");
  }
  ServeRequest req = MakeRequest(RouteQuery{}, std::move(on_done), options);
  req.probe_edges = std::move(segment);
  req.probe_bucket = bucket;
  return queue_.Push(std::move(req));
}

bool QueryServer::QueueFull() const { return queue_.Full(); }

void QueryServer::WaitIdle() const {
  for (;;) {
    RequestQueue::Stats qs = queue_.GetStats();
    // Every terminal fate of an *admitted* request: answered (completed /
    // failed), expired in queue, drained at close, or displaced by a
    // higher-priority arrival. Eviction must be counted — the victim was
    // admitted, so omitting shed_evicted would make this barrier hang.
    uint64_t terminal = completed_.load(std::memory_order_acquire) +
                        failed_.load(std::memory_order_acquire) +
                        qs.shed_expired + qs.shed_closed + qs.shed_evicted;
    if (terminal >= qs.admitted &&
        in_flight_batches_.load(std::memory_order_acquire) == 0) {
      return;
    }
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
}

ServeStatsSnapshot QueryServer::Stats() const {
  ServeStatsSnapshot snap;
  RequestQueue::Stats qs = queue_.GetStats();
  snap.submitted = qs.submitted;
  snap.admitted = qs.admitted;
  snap.shed_capacity = qs.shed_capacity;
  snap.shed_expired = qs.shed_expired;
  snap.shed_closed = qs.shed_closed;
  snap.shed_evicted = qs.shed_evicted;
  snap.queue_depth = qs.depth;
  // Per-tenant view: admission/shed accounting from the queue, completion
  // counts and latency from the worker side, matched by tenant name. The
  // queue's list is already sorted (it iterates a std::map), so feeding it
  // through MergeTenantStats keeps snap.tenants sorted too.
  {
    std::vector<TenantServeStats> queue_side;
    queue_side.reserve(qs.tenants.size());
    for (const auto& [name, ts] : qs.tenants) {
      TenantServeStats t;
      t.tenant = name;
      t.submitted = ts.submitted;
      t.admitted = ts.admitted;
      t.shed_capacity = ts.shed_capacity;
      t.shed_expired = ts.shed_expired;
      t.shed_closed = ts.shed_closed;
      t.shed_evicted = ts.shed_evicted;
      t.queue_depth = ts.depth;
      queue_side.push_back(std::move(t));
    }
    MergeTenantStats(&snap.tenants, queue_side);
    std::vector<TenantServeStats> worker_side;
    {
      std::unique_lock<std::mutex> lock(metrics_mu_);
      worker_side.reserve(tenant_metrics_.size());
      for (const auto& [name, tm] : tenant_metrics_) {
        TenantServeStats t;
        t.tenant = name;
        t.completed = tm.completed;
        t.failed = tm.failed;
        t.e2e_latency = tm.e2e_latency;
        worker_side.push_back(std::move(t));
      }
    }
    MergeTenantStats(&snap.tenants, worker_side);
  }
  {
    std::unique_lock<std::mutex> lock(control_mu_);
    snap.batches = batcher_.stats().batches;
    snap.batched_requests = batcher_.stats().batched_requests;
    snap.max_batch = batcher_.stats().max_batch_seen;
    snap.scale_events = controller_.scale_events();
  }
  PathCostCache::Stats cs = cache_.GetStats();
  snap.cache_hits = cs.hits;
  snap.cache_misses = cs.misses;
  snap.cache_evictions = cs.evictions;
  snap.cache_size = cs.size;
  snap.completed = completed_.load(std::memory_order_acquire);
  snap.failed = failed_.load(std::memory_order_acquire);
  snap.workers = pool_.NumThreads();
  {
    std::unique_lock<std::mutex> lock(metrics_mu_);
    snap.queue_latency = queue_latency_;
    snap.e2e_latency = e2e_latency_;
    snap.stage_queue = stage_queue_;
    snap.stage_batch = stage_batch_;
    snap.stage_cache = stage_cache_;
    snap.stage_exec = stage_exec_;
  }
  return snap;
}

void QueryServer::DispatcherLoop() {
  std::vector<ServeRequest> popped;
  std::vector<std::vector<ServeRequest>> ready;
  const size_t pop_chunk = std::max<size_t>(1, options_.batch.max_batch) * 4;

  while (running_.load(std::memory_order_acquire)) {
    popped.clear();
    ready.clear();
    uint64_t now = TraceRecorder::NowNs();
    if (WorkersSaturated()) {
      // Workers are fully buffered: leave the backlog in the weighted-fair
      // queue, where deadlines expire, quotas bind, and higher-priority
      // arrivals can still displace it. Batches whose linger expired are
      // flushed regardless (their requests are already popped), and the
      // autoscale loop keeps observing arrivals — saturation is exactly
      // when it has something to say.
      {
        std::unique_lock<std::mutex> lock(control_mu_);
        batcher_.FlushExpired(now, &ready);
      }
      DispatchReady(&ready);
      MaybeAutoscale(now);
      std::unique_lock<std::mutex> lock(batch_done_mu_);
      batch_done_cv_.wait_for(
          lock, std::chrono::duration<double>(kIdlePollSeconds),
          [this] {
            return !WorkersSaturated() ||
                   !running_.load(std::memory_order_acquire);
          });
      continue;
    }
    size_t n = queue_.PopBatch(now, pop_chunk, &popped);
    {
      std::unique_lock<std::mutex> lock(control_mu_);
      for (auto& req : popped) batcher_.Add(std::move(req), &ready);
      batcher_.FlushExpired(now, &ready);
    }
    DispatchReady(&ready);
    MaybeAutoscale(now);
    if (n == 0) queue_.WaitForWork(kIdlePollSeconds);
  }

  // Shutdown drain: the queue is closed (Stop closed it before clearing
  // running_), so one final pass moves everything still pending through
  // the workers.
  popped.clear();
  ready.clear();
  uint64_t now = TraceRecorder::NowNs();
  queue_.PopBatch(now, static_cast<size_t>(-1), &popped);
  {
    std::unique_lock<std::mutex> lock(control_mu_);
    for (auto& req : popped) batcher_.Add(std::move(req), &ready);
    batcher_.FlushAll(&ready);
  }
  DispatchReady(&ready);
}

bool QueryServer::WorkersSaturated() const {
  return in_flight_batches_.load(std::memory_order_acquire) >=
         kMaxBatchesPerWorker * pool_.NumThreads();
}

void QueryServer::DispatchReady(
    std::vector<std::vector<ServeRequest>>* ready) {
  for (auto& batch : *ready) {
    in_flight_batches_.fetch_add(1, std::memory_order_acq_rel);
    auto shared =
        std::make_shared<std::vector<ServeRequest>>(std::move(batch));
    pool_.Submit([this, shared] {
      ServeBatch(shared.get());
      in_flight_batches_.fetch_sub(1, std::memory_order_acq_rel);
      batch_done_cv_.notify_one();
    });
  }
  ready->clear();
}

void QueryServer::ServeBatch(std::vector<ServeRequest>* batch) {
  // The batch span carries the MicroBatcher's batch id as its arg; each
  // member request's batch_wait span carries the same id, so the exported
  // trace links a batch to the requests it amortized.
  const int64_t batch_id =
      batch->empty() ? 0 : static_cast<int64_t>(batch->front().batch_id);
  TraceSpan span("serve/batch", batch_id);
  for (const ServeRequest& req : *batch) ServeOne(req);
}

void QueryServer::ServeOne(const ServeRequest& req) {
  const uint64_t start_ns = TraceRecorder::NowNs();
  // The batching stage — dequeue to worker pickup — has no RAII scope (it
  // spans the dispatcher and the pool hand-off), so record it
  // retrospectively now that it just ended.
  if (req.dequeue_ns != 0) {
    TraceRecorder::Global().RecordSpan("serve/batch_wait", req.dequeue_ns,
                                       start_ns, req.trace,
                                       static_cast<int64_t>(req.batch_id));
  }
  TraceSpan span("serve/exec", req.trace, static_cast<int64_t>(req.id));
  span.SetTenant(req.tenant);
  const TraceContext exec_ctx = span.ChildContext();
  RouteAnswer answer;
  answer.client_request_id = req.client_request_id;
  answer.tenant_id = req.tenant;
  answer.queue_seconds =
      1e-9 * static_cast<double>(start_ns - req.enqueue_ns);

  // Time spent inside the path-cost layer (cache + base model), sampled
  // with the same clock the stage breakdown uses.
  uint64_t cache_ns = 0;

  const RouteQuery& q = req.query;
  if (!req.probe_edges.empty()) {
    // Scatter probe: the shard router asked for one segment's cost
    // distribution, not a route decision. Same cache + base-model path a
    // local query's segment would take, so a probed segment is
    // bitwise-identical to a locally computed one.
    const uint64_t cost_start_ns = TraceRecorder::NowNs();
    bool from_cache = false;
    Result<Histogram> seg =
        cost_model_.SegmentCost(req.probe_edges, req.probe_bucket, &from_cache);
    cache_ns = TraceRecorder::NowNs() - cost_start_ns;
    if (seg.ok()) {
      answer.probe_cost = std::move(seg).value();
      answer.probe_from_cache = from_cache;
    } else {
      answer.status = seg.status();
    }
  } else {
    Result<std::vector<Path>> routes =
        routes_.Get(q.source, q.target, q.k, exec_ctx);
    if (!routes.ok()) {
      answer.status = routes.status();
    } else {
      // Attach cost distributions through the sub-path cache (one clocked
      // section for all candidates — scoring below is exec time), then
      // pick via the shared scoring rule: on-time probability when a
      // deadline is set, mean cost otherwise.
      std::vector<Result<Histogram>> costs;
      costs.reserve(routes->size());
      const uint64_t cost_start_ns = TraceRecorder::NowNs();
      for (const Path& route : *routes) {
        costs.push_back(
            cost_model_.Query(route.edges, q.depart_seconds, exec_ctx));
      }
      cache_ns = TraceRecorder::NowNs() - cost_start_ns;
      ScoreCandidates(q, *routes, costs, &answer);
    }
  }

  const uint64_t end_ns = TraceRecorder::NowNs();
  answer.service_seconds = 1e-9 * static_cast<double>(end_ns - start_ns);
  // Critical-path attribution. All four components derive from the same
  // clock samples, so they telescope: queue + batch + cache + exec ==
  // end_ns - enqueue_ns exactly. Requests constructed outside the queue
  // path (dequeue_ns unset) attribute their whole wait to batch.
  const uint64_t dequeue_ns =
      (req.dequeue_ns >= req.enqueue_ns && req.dequeue_ns <= start_ns &&
       req.dequeue_ns != 0)
          ? req.dequeue_ns
          : req.enqueue_ns;
  answer.stages.queue_ns = dequeue_ns - req.enqueue_ns;
  answer.stages.batch_ns = start_ns - dequeue_ns;
  answer.stages.cache_ns = cache_ns;
  answer.stages.exec_ns = (end_ns - start_ns) - cache_ns;
  if (answer.status.ok()) {
    completed_.fetch_add(1, std::memory_order_acq_rel);
  } else {
    failed_.fetch_add(1, std::memory_order_acq_rel);
  }
  {
    std::unique_lock<std::mutex> lock(metrics_mu_);
    const double e2e = 1e-9 * static_cast<double>(end_ns - req.enqueue_ns);
    queue_latency_.Add(answer.queue_seconds);
    e2e_latency_.Add(e2e);
    stage_queue_.Add(1e-9 * static_cast<double>(answer.stages.queue_ns));
    stage_batch_.Add(1e-9 * static_cast<double>(answer.stages.batch_ns));
    stage_cache_.Add(1e-9 * static_cast<double>(answer.stages.cache_ns));
    stage_exec_.Add(1e-9 * static_cast<double>(answer.stages.exec_ns));
    TenantWorkerStats& tm =
        tenant_metrics_[req.tenant.empty() ? "default" : req.tenant];
    if (answer.status.ok()) {
      ++tm.completed;
    } else {
      ++tm.failed;
    }
    tm.e2e_latency.Add(e2e);
  }
  // Flight-recorder completion: the terminal answer of every served
  // request, with its stage breakdown. Scatter probes are excluded — a
  // probe is a sub-operation of its caller's request, whose canonical
  // completion is the shard router's merge.
  if (req.probe_edges.empty()) {
    FlightRecorder::MaybeComplete(req.trace.request_id, req.shard, answer);
  }
  if (req.on_done) req.on_done(answer);
}

void QueryServer::MaybeAutoscale(uint64_t now_ns) {
  if (!options_.autoscale_enabled) return;
  const double interval_ns = options_.autoscale_interval_seconds * 1e9;
  if (static_cast<double>(now_ns - last_autoscale_ns_) < interval_ns) return;
  last_autoscale_ns_ = now_ns;
  // Demand = everything submitted, shed included: admission control must
  // not hide overload from the forecaster, or shedding would lock the
  // pool at its current size forever.
  uint64_t submitted = queue_.GetStats().submitted;
  double arrivals = static_cast<double>(submitted - last_submitted_);
  last_submitted_ = submitted;
  std::unique_lock<std::mutex> lock(control_mu_);
  controller_.OnInterval(arrivals);
}

}  // namespace tsdm
