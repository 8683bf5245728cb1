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

  /// The caller's options under the scatter span: what the enumeration
  /// and every probe are submitted with (each probe re-pins `shard`).
  SubmitOptions sub_options;
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
      map_(options.map) {
  const int n = map_.num_shards();
  // Scatters enumerate in their source owners' route LRUs, so the budget
  // of the router's former LRU is split across them: the fleet keeps
  // (N+1) x route_cache_entries. A one-shard fleet never scatters.
  const size_t entries = options_.server.route_cache_entries;
  QueryServer::Options shard_options = options_.server;
  if (n > 1) shard_options.route_cache_entries += (entries + n - 1) / n;
  shard_stopped_.reset(new std::atomic<bool>[static_cast<size_t>(n)]);
  shards_.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    shard_stopped_[i].store(false, std::memory_order_relaxed);
    shards_.push_back(
        std::make_unique<QueryServer>(network, base_model, shard_options));
  }
  stats_.num_shards = n;
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
  WaitIdle();
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
  const TraceContext root =
      options.trace_parent.ForRequest() || !TraceRecorder::Enabled()
          ? options.trace_parent
          : TraceContext{TraceRecorder::Global().NextRequestId(), 0};
  TraceSpan span("shard/submit", root, static_cast<int64_t>(root.request_id));
  const TraceContext ctx = span.ChildContext();
  // The request enters shard here: normalize once, so a forwarded, a
  // scattered and a refused answer all carry the same tenant.
  SubmitOptions inner = options;
  inner.tenant_id = TenantOrDefault(options.tenant_id);

  // Queries whose endpoints are not network nodes cannot be placed by
  // region; forward them deterministically to shard 0, whose worker then
  // produces the same enumeration error a single node would.
  const bool placeable =
      query.source >= 0 &&
      query.source < static_cast<int>(network_->NumNodes()) &&
      query.target >= 0 && query.target < static_cast<int>(network_->NumNodes());
  const int s = placeable ? OwnerOfNode(query.source) : 0;
  const int target_owner = placeable ? OwnerOfNode(query.target) : 0;
  QueryServer& owner = *shards_[static_cast<size_t>(s)];

  // Rejected before any shard saw it: on_done is not retained, so the
  // synthesized answer is the request's only terminal record.
  auto reject = [&](Status st, int shard) {
    AnswerUnserved(st, ctx.request_id, shard, inner.client_request_id,
                   inner.tenant_id);
    return st;
  };

  // Admission, either kind, is the source owner's typed Push result alone.
  if (shard_stopped_[s].load(std::memory_order_acquire)) {
    return reject(Status::Unavailable("shard: shard " + std::to_string(s) +
                                      " is stopped"),
                  s);
  }
  inner.shard = s;
  if (s == target_owner) {
    TraceSpan forward("shard/forward", ctx, s);
    inner.trace_parent = forward.ChildContext();
    Status st = owner.Submit(std::move(query), std::move(on_done), inner);
    if (st.ok()) {
      std::lock_guard<std::mutex> lock(stats_mu_);
      ++stats_.forwarded;
      ++stats_.forwarded_per_shard[static_cast<size_t>(s)];
    }
    return st;
  }

  // Scatter: enumeration runs on the source owner's worker; its callback
  // carries the scatter on from there.
  TraceSpan scatter("shard/scatter", ctx, s);
  auto state = std::make_shared<ScatterState>();
  state->query = query;
  state->source_owner = s;
  state->target_owner = target_owner;
  state->on_done = std::move(on_done);
  state->submit_ns = TraceRecorder::NowNs();
  state->scatter_ctx = scatter.ChildContext();
  inner.trace_parent = state->scatter_ctx;
  state->sub_options = inner;
  outstanding_scatters_.fetch_add(1, std::memory_order_acq_rel);
  Status st = owner.SubmitEnumerate(
      std::move(query),
      [this, state](const RouteAnswer& enumerated) {
        OnEnumerated(state, enumerated);
      },
      state->sub_options);
  if (!st.ok()) {
    outstanding_scatters_.fetch_sub(1, std::memory_order_acq_rel);
    return reject(std::move(st), -1);
  }
  return Status::OK();
}

void ShardRouter::OnEnumerated(const std::shared_ptr<ScatterState>& state,
                               const RouteAnswer& enumerated) {
  if (!enumerated.status.ok()) {
    // Enumeration failed, or its request was shed or drained unserved.
    {
      std::lock_guard<std::mutex> lock(stats_mu_);
      ++stats_.scattered;
      ++stats_.enumeration_failures;
    }
    RouteAnswer answer;
    answer.status = enumerated.status;
    Finish(state, std::move(answer));
    return;
  }
  state->routes = enumerated.candidates;
  state->bucket = shards_[0]->cache().BucketFor(state->query.depart_seconds);

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
    for (size_t i = 0; i < n; ++i) {
      state->seg_shard[i] = map_.OwnerOfSubpath(state->segments[i]);
      ++stats_.probes_per_shard[static_cast<size_t>(state->seg_shard[i])];
    }
  }
  if (n == 0) {
    // Every candidate was an empty edge path; merge degenerates to the
    // same per-candidate InvalidArgument a single node produces.
    Merge(state);
    return;
  }

  // One queue budget per scatter: probes get what the enumeration's queue
  // wait left of the caller's (a budget <= 0 means none).
  SubmitOptions probe_options = state->sub_options;
  double& budget = probe_options.queue_budget_seconds;
  if (budget > 0.0) {
    budget = std::max(1e-9, budget - 1e-9 * enumerated.stages.queue_ns);
  }
  for (size_t i = 0; i < n; ++i) {
    const int owner = state->seg_shard[i];
    probe_options.shard = owner;
    Status st = shards_[static_cast<size_t>(owner)]->SubmitProbe(
        state->segments[i], state->bucket,
        [this, state, i](const RouteAnswer& pa) { OnProbeDone(state, i, pa); },
        probe_options);
    if (!st.ok()) {
      // Refused by a full or stopped shard: the callback was not retained,
      // so completing the probe here keeps the exactly-once contract.
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
    if (IsShedCode(probe_answer.status.code())) {
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
    for (const std::vector<size_t>& idxs : state->route_segs) {
      costs.push_back(CachedPathCostModel::FoldSegments(
          idxs.size(),
          [&](size_t j) -> const Result<Histogram>& {
            return state->seg_costs[idxs[j]];
          },
          result_bins));
    }
    ScoreCandidates(state->query, state->routes, costs, &answer);

    // Boundary heat transfer: segments this scatter had to *compute* are,
    // by construction, sub-paths of routes crossing a shard boundary. Copy
    // them into the caches of the shards owning the query's endpoint
    // regions so their forwarded (single-shard) traffic finds the boundary
    // warm. Cache entries are the exact histograms those shards would
    // compute themselves, so replication can never change an answer —
    // only its cost.
    size_t replicated = 0;
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
    std::lock_guard<std::mutex> lock(stats_mu_);
    ++stats_.merges;
    stats_.replicated += replicated;
  }

  TraceRecorder::Global().RecordSpan("shard/merge", merge_start,
                                     TraceRecorder::NowNs(),
                                     state->scatter_ctx,
                                     static_cast<int64_t>(n));
  Finish(state, std::move(answer));
}

void ShardRouter::Finish(const std::shared_ptr<ScatterState>& state,
                         RouteAnswer answer) {
  const SubmitOptions& caller = state->sub_options;
  answer.client_request_id = caller.client_request_id;
  answer.tenant_id = caller.tenant_id;
  answer.service_seconds =
      1e-9 * static_cast<double>(TraceRecorder::NowNs() - state->submit_ns);
  // The scatter's canonical flight-recorder completion: its enumeration
  // and probe requests complete nothing there, so a retained cross-shard
  // request shows its whole tree under one request id, completed once.
  FlightRecorder::MaybeComplete(state->scatter_ctx.request_id, -1, answer);
  state->on_done(answer);
  outstanding_scatters_.fetch_sub(1, std::memory_order_acq_rel);
}

bool ShardRouter::QueueFull() const {
  for (const auto& shard : shards_) {
    if (!shard->QueueFull()) return false;
  }
  return true;
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
