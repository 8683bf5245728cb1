#include "src/shard/shard_router.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <random>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>

#include "src/obs/flight_recorder.h"
#include "src/obs/metrics_export.h"
#include "src/serve/path_cost_cache.h"

namespace tsdm {

namespace {

/// Probe failures that mean "the shard could not be reached / could not
/// accept work", as opposed to the model having no answer for a segment.
/// Transport failures poison the whole scatter into a typed Unavailable;
/// model errors flow into candidate scoring exactly like on a single node.
bool IsTransportFailure(StatusCode code) {
  return code == StatusCode::kFailedPrecondition ||
         code == StatusCode::kResourceExhausted ||
         code == StatusCode::kUnavailable;
}

struct SegmentHash {
  size_t operator()(const std::vector<int>& v) const {
    return static_cast<size_t>(ShardMap::HashSubpath(v));
  }
};

}  // namespace

/// One in-flight scatter. Each element of seg_costs/seg_from_cache/
/// seg_transport is written by exactly one probe completion and read only
/// by the merging thread after `remaining` hits zero (acq_rel), so the
/// state needs no lock on the production path; reorder_mu exists only for
/// the adversarial-reordering test hook.
struct ShardRouter::ScatterState {
  RouteQuery query;
  std::vector<Path> routes;
  std::vector<std::vector<int>> segments;  ///< unique, first-appearance order
  std::vector<std::vector<size_t>> route_segs;  ///< per candidate, route order
  int bucket = 0;
  int source_owner = 0;
  int target_owner = 0;

  std::vector<Result<Histogram>> seg_costs;
  std::vector<uint8_t> seg_from_cache;
  std::vector<int> seg_shard;
  std::vector<Status> seg_transport;
  std::atomic<size_t> remaining{0};

  SubmitOptions caller;
  std::function<void(const RouteAnswer&)> on_done;
  uint64_t submit_ns = 0;
  TraceContext scatter_ctx;

  // Adversarial-reordering hook (Options::reorder_seed != 0).
  std::mutex reorder_mu;
  std::vector<std::pair<size_t, RouteAnswer>> buffered;
};

ShardRouter::ShardRouter(const RoadNetwork* network, PathCostModel base_model,
                         Options options)
    : network_(network),
      options_(options),
      map_(options.map),
      routes_(network, options.server.route_cache_entries) {
  const int n = map_.num_shards();
  shard_stopped_.reset(new std::atomic<bool>[static_cast<size_t>(n)]);
  shards_.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    shard_stopped_[i].store(false, std::memory_order_relaxed);
    shards_.push_back(
        std::make_unique<QueryServer>(network, base_model, options_.server));
  }
  stats_.num_shards = n;
  stats_.generation = map_.generation();
  stats_.forwarded_per_shard.assign(static_cast<size_t>(n), 0);
  stats_.probes_per_shard.assign(static_cast<size_t>(n), 0);
}

ShardRouter::~ShardRouter() { Stop(); }

Status ShardRouter::Start() {
  std::lock_guard<std::mutex> lock(lifecycle_mu_);
  if (started_) {
    return Status::FailedPrecondition("ShardRouter: already started");
  }
  for (size_t i = 0; i < shards_.size(); ++i) {
    Status st = shards_[i]->Start();
    if (!st.ok()) {
      for (size_t j = 0; j < i; ++j) shards_[j]->Stop();
      return st;
    }
  }
  started_ = true;
  running_.store(true, std::memory_order_release);
  ShardRouter* self = this;
  MetricsExporter::RegisterSource("shard", [self] {
    return MetricsExporter::Describe(self->ShardStats());
  });
  return Status::OK();
}

void ShardRouter::Stop() {
  {
    std::lock_guard<std::mutex> lock(lifecycle_mu_);
    if (!started_) return;
    started_ = false;
  }
  MetricsExporter::UnregisterSource("shard");
  running_.store(false, std::memory_order_release);
  for (size_t i = 0; i < shards_.size(); ++i) {
    shard_stopped_[i].store(true, std::memory_order_release);
    shards_[i]->Stop();
  }
  // Scatters whose last probe was answered by a draining shard may still
  // be merging on that shard's worker; their callbacks must finish before
  // Stop returns (the exactly-once contract outlives member shutdown).
  while (outstanding_scatters_.load(std::memory_order_acquire) != 0) {
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
}

Status ShardRouter::StopShard(int shard) {
  if (shard < 0 || shard >= num_shards()) {
    return Status::InvalidArgument("ShardRouter: no shard " +
                                   std::to_string(shard));
  }
  shard_stopped_[shard].store(true, std::memory_order_release);
  shards_[static_cast<size_t>(shard)]->Stop();
  return Status::OK();
}

bool ShardRouter::ShardStopped(int shard) const {
  if (shard < 0 || shard >= num_shards()) return false;
  return shard_stopped_[shard].load(std::memory_order_acquire);
}

int64_t ShardRouter::RegionBucket(int node) const {
  const RoadNetwork::Node& p = network_->node(node);
  const double cell = std::max(1e-9, options_.region_cell_meters);
  const int64_t cx = static_cast<int64_t>(std::floor(p.x / cell));
  const int64_t cy = static_cast<int64_t>(std::floor(p.y / cell));
  return (cx << 32) ^ (cy & 0xffffffffll);
}

int ShardRouter::OwnerOfNode(int node) const {
  return map_.OwnerOfBucket(RegionBucket(node));
}

Status ShardRouter::Submit(RouteQuery query,
                           std::function<void(const RouteAnswer&)> on_done,
                           const SubmitOptions& options) {
  if (!running_.load(std::memory_order_acquire)) {
    return Status::FailedPrecondition("ShardRouter: not running");
  }
  const uint64_t id = next_id_.fetch_add(1, std::memory_order_relaxed);
  const TraceContext root = options.trace_parent.ForRequest()
                                ? options.trace_parent
                                : TraceContext{id + 1, 0};
  TraceSpan span("shard/submit", root, static_cast<int64_t>(id));
  const TraceContext ctx = span.ChildContext();

  // Queries whose endpoints are not network nodes cannot be placed by
  // region; forward them deterministically to shard 0, whose worker then
  // produces the same enumeration error a single node would.
  const bool placeable =
      query.source >= 0 &&
      query.source < static_cast<int>(network_->NumNodes()) &&
      query.target >= 0 && query.target < static_cast<int>(network_->NumNodes());
  const int source_owner = placeable ? OwnerOfNode(query.source) : 0;
  const int target_owner = placeable ? OwnerOfNode(query.target) : 0;

  if (source_owner == target_owner) {
    const int s = source_owner;
    if (shard_stopped_[s].load(std::memory_order_acquire)) {
      Status st = Status::Unavailable("shard: shard " + std::to_string(s) +
                                      " is stopped");
      // Rejected before any shard saw it: on_done is not retained, so this
      // synthesized answer is the request's only terminal record.
      if (FlightRecorder::Enabled()) {
        RouteAnswer dead;
        dead.status = st;
        dead.client_request_id = options.client_request_id;
        dead.tenant_id =
            options.tenant_id.empty() ? "default" : options.tenant_id;
        FlightRecorder::MaybeComplete(ctx.request_id, s, dead);
      }
      return st;
    }
    TraceSpan forward("shard/forward", ctx, s);
    SubmitOptions inner = options;
    inner.shard = s;
    inner.trace_parent = forward.ChildContext();
    Status st =
        shards_[static_cast<size_t>(s)]->Submit(std::move(query),
                                                std::move(on_done), inner);
    if (st.ok()) {
      std::lock_guard<std::mutex> lock(stats_mu_);
      ++stats_.forwarded;
      ++stats_.forwarded_per_shard[static_cast<size_t>(s)];
    }
    return st;
  }

  SubmitOptions caller = options;
  caller.shard = -1;
  Scatter(std::move(query), std::move(on_done), caller, ctx);
  return Status::OK();
}

void ShardRouter::Scatter(RouteQuery query,
                          std::function<void(const RouteAnswer&)> cb,
                          const SubmitOptions& options,
                          const TraceContext& root_ctx) {
  outstanding_scatters_.fetch_add(1, std::memory_order_acq_rel);
  TraceSpan span("shard/scatter", root_ctx);
  const uint64_t submit_ns = TraceRecorder::NowNs();

  // Candidate enumeration through the same RouteCache code path a
  // QueryServer runs — the first of the shared stages that make the
  // scattered answer bitwise-equal to the single-node one.
  Result<std::vector<Path>> routes =
      routes_.Get(query.source, query.target, query.k, span.ChildContext());
  if (!routes.ok()) {
    {
      std::lock_guard<std::mutex> lock(stats_mu_);
      ++stats_.scattered;
      ++stats_.enumeration_failures;
    }
    RouteAnswer answer;
    answer.status = routes.status();
    answer.client_request_id = options.client_request_id;
    answer.tenant_id =
        options.tenant_id.empty() ? "default" : options.tenant_id;
    answer.service_seconds =
        1e-9 * static_cast<double>(TraceRecorder::NowNs() - submit_ns);
    FlightRecorder::MaybeComplete(root_ctx.request_id, -1, answer);
    cb(answer);
    outstanding_scatters_.fetch_sub(1, std::memory_order_acq_rel);
    return;
  }

  auto state = std::make_shared<ScatterState>();
  state->query = query;
  state->routes = std::move(*routes);
  state->bucket = shards_[0]->cache().BucketFor(query.depart_seconds);
  state->source_owner = OwnerOfNode(query.source);
  state->target_owner = OwnerOfNode(query.target);
  state->caller = options;
  state->on_done = std::move(cb);
  state->submit_ns = submit_ns;
  state->scatter_ctx = span.ChildContext();

  // Unique segments in first-appearance order; every candidate keeps its
  // segment-index sequence so the merge composes in route order no matter
  // when (or where) each segment's cost arrives.
  std::unordered_map<std::vector<int>, size_t, SegmentHash> seg_index;
  state->route_segs.resize(state->routes.size());
  for (size_t r = 0; r < state->routes.size(); ++r) {
    std::vector<std::vector<int>> segs = CachedPathCostModel::SplitSegments(
        state->routes[r].edges, options_.server.cost.segment_edges);
    state->route_segs[r].reserve(segs.size());
    for (auto& seg : segs) {
      auto it = seg_index.find(seg);
      if (it == seg_index.end()) {
        it = seg_index.emplace(seg, state->segments.size()).first;
        state->segments.push_back(std::move(seg));
      }
      state->route_segs[r].push_back(it->second);
    }
  }

  const size_t n = state->segments.size();
  state->seg_costs.assign(
      n, Result<Histogram>(Status::Internal("shard: probe not applied")));
  state->seg_from_cache.assign(n, 0);
  state->seg_shard.assign(n, 0);
  state->seg_transport.assign(n, Status::OK());
  state->remaining.store(n, std::memory_order_release);
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    ++stats_.scattered;
    stats_.probes_sent += n;
  }
  if (n == 0) {
    // Every candidate was an empty edge path; merge degenerates to the
    // same per-candidate InvalidArgument a single node produces.
    Merge(state);
    return;
  }

  for (size_t i = 0; i < n; ++i) {
    const int owner = map_.OwnerOfSubpath(state->segments[i]);
    state->seg_shard[i] = owner;
    {
      std::lock_guard<std::mutex> lock(stats_mu_);
      ++stats_.probes_per_shard[static_cast<size_t>(owner)];
    }
    if (shard_stopped_[owner].load(std::memory_order_acquire)) {
      RouteAnswer dead;
      dead.status = Status::Unavailable("shard: shard " +
                                        std::to_string(owner) + " is stopped");
      OnProbeDone(state, i, dead);
      continue;
    }
    SubmitOptions probe_options;
    probe_options.queue_budget_seconds = options.queue_budget_seconds;
    probe_options.priority = options.priority;
    probe_options.tenant_id = options.tenant_id;
    probe_options.shard = owner;
    probe_options.trace_parent = state->scatter_ctx;
    auto self = this;
    Status st = shards_[static_cast<size_t>(owner)]->SubmitProbe(
        state->segments[i], state->bucket,
        [self, state, i](const RouteAnswer& pa) {
          self->OnProbeDone(state, i, pa);
        },
        probe_options);
    if (!st.ok()) {
      // Shed at the shard's front door: the callback was not retained, so
      // completing the probe here keeps the exactly-once contract.
      RouteAnswer shed;
      shed.status = st;
      OnProbeDone(state, i, shed);
    }
  }
}

void ShardRouter::OnProbeDone(const std::shared_ptr<ScatterState>& state,
                              size_t index, const RouteAnswer& probe_answer) {
  if (options_.reorder_seed != 0) {
    // Test hook: hold every completion, then apply them in a seeded
    // shuffle order. The merged answer must not change — permutation
    // invariance, exercised end to end.
    {
      std::lock_guard<std::mutex> lock(state->reorder_mu);
      state->buffered.emplace_back(index, probe_answer);
      if (state->buffered.size() < state->segments.size()) return;
    }
    std::mt19937_64 rng(options_.reorder_seed ^
                        (0x9e3779b97f4a7c15ull * state->segments.size()));
    std::shuffle(state->buffered.begin(), state->buffered.end(), rng);
    for (const auto& entry : state->buffered) {
      ApplyProbe(state, entry.first, entry.second);
    }
    Merge(state);
    return;
  }
  ApplyProbe(state, index, probe_answer);
  if (state->remaining.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    Merge(state);
  }
}

void ShardRouter::ApplyProbe(const std::shared_ptr<ScatterState>& state,
                             size_t index, const RouteAnswer& probe_answer) {
  if (!probe_answer.status.ok()) {
    if (IsTransportFailure(probe_answer.status.code())) {
      state->seg_transport[index] = Status::Unavailable(
          "shard: segment " + std::to_string(index) + " probe on shard " +
          std::to_string(state->seg_shard[index]) + " failed: " +
          probe_answer.status.message());
    } else {
      // The model had no answer for this segment; the owning candidates
      // are skipped in scoring, exactly like on a single node.
      state->seg_costs[index] = probe_answer.status;
    }
    return;
  }
  state->seg_costs[index] = probe_answer.probe_cost;
  state->seg_from_cache[index] = probe_answer.probe_from_cache ? 1 : 0;
}

void ShardRouter::Merge(const std::shared_ptr<ScatterState>& state) {
  const uint64_t merge_start = TraceRecorder::NowNs();
  const size_t n = state->segments.size();
  RouteAnswer answer;
  answer.client_request_id = state->caller.client_request_id;
  // Same normalization the serve tier applies, so a scatter-merged answer
  // carries the tenant exactly like a forwarded one would.
  answer.tenant_id = state->caller.tenant_id.empty() ? "default"
                                                     : state->caller.tenant_id;

  size_t lost = 0;
  std::string first_loss;
  for (size_t i = 0; i < n; ++i) {
    if (!state->seg_transport[i].ok()) {
      if (lost == 0) first_loss = state->seg_transport[i].message();
      ++lost;
    }
  }

  if (lost > 0) {
    // Typed partial-result error: some probes never got a real answer, so
    // no candidate can be scored honestly. Never degrade silently.
    answer.status = Status::Unavailable(
        "shard: partial scatter result: " + std::to_string(lost) + " of " +
        std::to_string(n) + " segment probes unavailable (" + first_loss +
        ")");
    std::lock_guard<std::mutex> lock(stats_mu_);
    ++stats_.merges;
    ++stats_.partial_errors;
    stats_.probe_transport_failures += lost;
  } else {
    const int result_bins = options_.server.cost.result_bins;
    std::vector<Result<Histogram>> costs;
    costs.reserve(state->routes.size());
    for (size_t r = 0; r < state->routes.size(); ++r) {
      const std::vector<size_t>& idxs = state->route_segs[r];
      if (idxs.empty()) {
        // The exact status a single node's CachedPathCostModel::Query
        // returns for an empty edge path.
        costs.emplace_back(
            Status::InvalidArgument("CachedPathCostModel: empty path"));
        continue;
      }
      Status bad = Status::OK();
      std::vector<Histogram> parts;
      parts.reserve(idxs.size());
      for (size_t idx : idxs) {
        const Result<Histogram>& rc = state->seg_costs[idx];
        if (!rc.ok()) {
          // First failing segment in route order — the status a lazy
          // single-node evaluation would have stopped at.
          bad = rc.status();
          break;
        }
        parts.push_back(rc.value());
      }
      if (!bad.ok()) {
        costs.emplace_back(bad);
      } else {
        costs.emplace_back(CachedPathCostModel::ComposeSegments(
            std::move(parts), result_bins));
      }
    }
    ScoreCandidates(state->query, state->routes, costs, &answer);

    size_t replicated = 0;
    if (options_.replicate_boundary) {
      // Boundary heat transfer: segments this scatter had to *compute*
      // are, by construction, sub-paths of routes crossing a shard
      // boundary. Copy them into the caches of the shards owning the
      // query's endpoint regions so their forwarded (single-shard)
      // traffic finds the boundary warm. Cache entries are the exact
      // histograms those shards would compute themselves, so replication
      // can never change an answer — only its cost.
      const int replicas[2] = {state->source_owner, state->target_owner};
      for (size_t i = 0; i < n; ++i) {
        if (!state->seg_costs[i].ok() || state->seg_from_cache[i]) continue;
        for (int t : replicas) {
          if (t == state->seg_shard[i]) continue;
          if (shard_stopped_[t].load(std::memory_order_acquire)) continue;
          shards_[static_cast<size_t>(t)]->cache().Insert(
              state->segments[i], state->bucket, state->seg_costs[i].value());
          ++replicated;
        }
      }
    }
    std::lock_guard<std::mutex> lock(stats_mu_);
    ++stats_.merges;
    stats_.replicated += replicated;
  }

  answer.service_seconds =
      1e-9 * static_cast<double>(TraceRecorder::NowNs() - state->submit_ns);
  TraceRecorder::Global().RecordSpan("shard/merge", merge_start,
                                     TraceRecorder::NowNs(),
                                     state->scatter_ctx,
                                     static_cast<int64_t>(n));
  // The scatter's canonical flight-recorder completion: sub-probe serve
  // completions were skipped (they are sub-operations of this request), so
  // a retained cross-shard request shows its whole tree — scatter, per-
  // shard probes, merge — under one request id, completed exactly once.
  FlightRecorder::MaybeComplete(state->scatter_ctx.request_id, -1, answer);
  state->on_done(answer);
  outstanding_scatters_.fetch_sub(1, std::memory_order_acq_rel);
}

bool ShardRouter::QueueFull() const {
  for (const auto& shard : shards_) {
    if (shard->QueueFull()) return true;
  }
  return false;
}

ServeStatsSnapshot ShardRouter::Stats() const { return ShardStats().Aggregate(); }

void ShardRouter::WaitIdle() const {
  for (;;) {
    for (const auto& shard : shards_) shard->WaitIdle();
    if (outstanding_scatters_.load(std::memory_order_acquire) == 0) return;
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
}

ShardStatsSnapshot ShardRouter::ShardStats() const {
  ShardStatsSnapshot snap;
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    snap.router = stats_;
  }
  snap.shards.reserve(shards_.size());
  for (const auto& shard : shards_) snap.shards.push_back(shard->Stats());
  return snap;
}

}  // namespace tsdm
