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
    : options_(options),
      cache_(options.cache),
      cost_model_(std::move(base_model), &cache_, options.cost),
      routes_(network, options.route_cache_entries),
      queue_(options.queue),
      pool_(std::max(1, options.initial_workers)),
      controller_(&pool_, MakeAutoscalePolicy(options), options.autoscale) {}

QueryServer::~QueryServer() { Stop(); }

Status QueryServer::Start() {
  std::lock_guard<std::mutex> lock(lifecycle_mu_);
  if (started_) {
    return Status::FailedPrecondition("QueryServer: already started");
  }
  started_ = true;
  running_.store(true, std::memory_order_release);
  if (options_.autoscale_enabled) {
    autoscaler_ = std::thread([this] { AutoscaleLoop(); });
  }
  // Submit admits before Start too: give every worker a drain task for
  // that backlog (the surplus ones find the queue empty and release).
  for (int i = 0; i < pool_.NumThreads(); ++i) Wake();
  return Status::OK();
}

void QueryServer::Stop() {
  // Exactly one caller owns the shutdown: the lifecycle lock makes
  // concurrent Stops (owner thread + destructor, health hooks, the wire
  // front door) collapse to no-ops instead of a double join, and the
  // timer handle moves out so the join itself runs unlocked — Stats() and
  // Submit() stay callable during the drain.
  std::thread autoscaler;
  {
    std::lock_guard<std::mutex> lock(lifecycle_mu_);
    // Clearing running_ first stops drain tasks from resubmitting; closing
    // then makes Submit reject new work, sheds whatever is still queued,
    // and wakes a worker waiting out its run's age so it serves what it
    // holds. Submit admits before Start too, so the queue closes even when
    // the server never started — the exactly-once callback contract holds
    // for those requests as well.
    {
      // Under control_mu_ so the timer cannot miss the wake-up below.
      std::lock_guard<std::mutex> control(control_mu_);
      running_.store(false, std::memory_order_release);
    }
    control_cv_.notify_all();
    queue_.Close();
    if (!started_) return;
    started_ = false;
    autoscaler = std::move(autoscaler_);
  }
  if (autoscaler.joinable()) autoscaler.join();
  pool_.Wait();
}

ServeRequest QueryServer::MakeRequest(
    RouteQuery query, std::function<void(const RouteAnswer&)> on_done,
    const SubmitOptions& options) {
  ServeRequest req;
  // Root of this request's span tree, under a process-wide request id.
  // Every later span — queue wait, batch wait, exec, path-cost, shed —
  // attaches under this root via req.trace. A caller with its own root
  // (the wire front door's `net/request`, the shard router's
  // `shard/scatter`) passes it as trace_parent and the submit span becomes
  // a child in that tree instead.
  const TraceContext root =
      options.trace_parent.ForRequest() || !TraceRecorder::Enabled()
          ? options.trace_parent
          : TraceContext{TraceRecorder::Global().NextRequestId(), 0};
  req.id = root.request_id;
  TraceSpan span("serve/submit", root, static_cast<int64_t>(req.id));
  // The request enters serve here: normalize once, so the submit span, an
  // unserved answer, and the worker-side accounting all see one name.
  req.tenant = TenantOrDefault(options.tenant_id);
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
  Status st = Push(std::move(req));
  // A push-shed returns non-OK *without* invoking on_done (and leaves req
  // intact), so its terminal answer is recorded here or nowhere.
  if (!st.ok()) {
    AnswerUnserved(st, req.trace.request_id, req.shard, req.client_request_id,
                   req.tenant);
  }
  return st;
}

Status QueryServer::SubmitProbe(std::vector<int> segment, int bucket,
                                std::function<void(const RouteAnswer&)> on_done,
                                const SubmitOptions& options) {
  ServeRequest req = MakeRequest(RouteQuery{}, std::move(on_done), options);
  req.kind = RequestKind::kProbe;
  req.probe_edges = std::move(segment);
  req.probe_bucket = bucket;
  return Push(std::move(req));
}

Status QueryServer::SubmitEnumerate(
    RouteQuery query, std::function<void(const RouteAnswer&)> on_done,
    const SubmitOptions& options) {
  ServeRequest req = MakeRequest(std::move(query), std::move(on_done), options);
  req.kind = RequestKind::kEnumerate;
  return Push(std::move(req));
}

Status QueryServer::Push(ServeRequest&& req) {
  Status st = queue_.Push(std::move(req));
  if (st.ok()) Wake();
  return st;
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
        drain_tasks_.load(std::memory_order_acquire) == 0) {
      return;
    }
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
}

ServeStatsSnapshot QueryServer::Stats() const {
  ServeStatsSnapshot snap;
  RequestQueue::Stats qs = queue_.GetStats();
  static_cast<AdmissionCounters&>(snap) = qs;
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
      static_cast<AdmissionCounters&>(t) = ts;
      t.tenant = name;
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
      snap.batches = batches_;
      snap.batched_requests = batched_requests_;
      snap.max_batch = max_batch_seen_;
      snap.queue_latency = queue_latency_;
      snap.e2e_latency = e2e_latency_;
      snap.stage_queue = stage_queue_;
      snap.stage_batch = stage_batch_;
      snap.stage_cache = stage_cache_;
      snap.stage_exec = stage_exec_;
    }
    MergeTenantStats(&snap.tenants, worker_side);
  }
  {
    std::unique_lock<std::mutex> lock(control_mu_);
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
  return snap;
}

void QueryServer::Wake() {
  if (!running_.load(std::memory_order_acquire)) return;
  int outstanding = drain_tasks_.load(std::memory_order_acquire);
  while (outstanding < pool_.NumThreads()) {
    if (drain_tasks_.compare_exchange_weak(outstanding, outstanding + 1,
                                           std::memory_order_acq_rel)) {
      pool_.Submit([this] { DrainTurn(); });
      return;
    }
  }
}

void QueryServer::DrainTurn() {
  const size_t max_batch = std::max<size_t>(1, options_.batch.max_batch);
  std::vector<ServeRequest> run;
  queue_.PopBatch(TraceRecorder::NowNs(), max_batch, &run);
  if (!run.empty()) {
    // Size-or-age: a short run waits for company until its oldest member
    // is max_wait past admission. PopBatch hands out DRR order, not
    // admission order, so the oldest is not necessarily the front. A
    // closed queue ends the wait at once (WaitForWork returns false).
    uint64_t oldest_ns = run.front().enqueue_ns;
    for (const ServeRequest& req : run) {
      oldest_ns = std::min(oldest_ns, req.enqueue_ns);
    }
    const uint64_t deadline_ns =
        oldest_ns +
        static_cast<uint64_t>(std::max(0.0, options_.batch.max_wait_seconds) *
                              1e9);
    for (uint64_t now = TraceRecorder::NowNs();
         run.size() < max_batch && now < deadline_ns;
         now = TraceRecorder::NowNs()) {
      if (queue_.WaitForWork(1e-9 * static_cast<double>(deadline_ns - now))) {
        queue_.PopBatch(TraceRecorder::NowNs(), max_batch - run.size(), &run);
      } else if (!running_.load(std::memory_order_acquire)) {
        break;
      }
    }
    ServeBatch(&run);
    // One run per task: a task that looped until the queue emptied would
    // hold its worker through a backlog, and ThreadPool::Resize joins a
    // retiring worker only when its current task ends.
    if (running_.load(std::memory_order_acquire)) {
      pool_.Submit([this] { DrainTurn(); });
      return;
    }
  }
  drain_tasks_.fetch_sub(1, std::memory_order_acq_rel);
  // A Push that found every slot taken may have landed between the empty
  // pop above and the release: re-check, or its request could sit in the
  // queue with no task left to pop it.
  if (queue_.WaitForWork(0.0)) Wake();
}

void QueryServer::ServeBatch(std::vector<ServeRequest>* batch) {
  // Every run gets a dense 1-based batch id. The batch span carries it as
  // its arg and each member request's batch_wait span carries the same id,
  // so the exported trace links a run to its member requests.
  uint64_t batch_id = 0;
  {
    std::unique_lock<std::mutex> lock(metrics_mu_);
    batch_id = ++batches_;
    batched_requests_ += batch->size();
    max_batch_seen_ = std::max(max_batch_seen_, batch->size());
  }
  for (ServeRequest& req : *batch) req.batch_id = batch_id;
  TraceSpan span("serve/batch", static_cast<int64_t>(batch_id));
  for (const ServeRequest& req : *batch) ServeOne(req);
}

void QueryServer::ServeOne(const ServeRequest& req) {
  const uint64_t start_ns = TraceRecorder::NowNs();
  // The batching stage — dequeue to service start — has no RAII scope (it
  // spans the run's age wait and its earlier members' service), so record
  // it retrospectively now that it just ended.
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
  if (req.kind == RequestKind::kProbe) {
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
    } else if (req.kind == RequestKind::kEnumerate) {
      // Scatter enumeration: the shard router probes and scores these.
      answer.candidates = std::move(routes).value();
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
    TenantWorkerStats& tm = tenant_metrics_[req.tenant];
    if (answer.status.ok()) {
      ++tm.completed;
    } else {
      ++tm.failed;
    }
    tm.e2e_latency.Add(e2e);
  }
  // Flight-recorder completion: the terminal answer of every served
  // request, with its stage breakdown. Probes and enumerations are
  // excluded: the shard router completes their caller's request.
  if (req.kind == RequestKind::kRoute) {
    FlightRecorder::MaybeComplete(req.trace.request_id, req.shard, answer);
  }
  if (req.on_done) req.on_done(answer);
}

void QueryServer::AutoscaleLoop() {
  const auto interval =
      std::chrono::duration<double>(options_.autoscale_interval_seconds);
  std::unique_lock<std::mutex> lock(control_mu_);
  while (!control_cv_.wait_for(lock, interval, [this] {
    return !running_.load(std::memory_order_acquire);
  })) {
    // Demand = everything submitted, shed included: admission control must
    // not hide overload from the forecaster, or shedding would lock the
    // pool at its current size forever.
    const uint64_t submitted = queue_.GetStats().submitted;
    const double arrivals = static_cast<double>(submitted - last_submitted_);
    last_submitted_ = submitted;
    const int before = pool_.NumThreads();
    controller_.OnInterval(arrivals);
    // Workers added by a scale-up get drain tasks now, not at the next
    // arrival.
    for (int i = before; i < pool_.NumThreads(); ++i) Wake();
  }
}

}  // namespace tsdm
