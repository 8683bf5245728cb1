// E-SV — Query serving: PACE-style path-cost caching, micro-batching, and
// admission control under an open-loop client. Three phases:
//
//  1. Cold vs warm: the same distinct query set is answered by a fresh
//     server (every route enumerated, every sub-path distribution computed
//     through the edge-centric base model) and then re-answered warm
//     (candidate routes from the route LRU, costs from the sub-path
//     cache). The PACE claim ([4]) is that path-centric reuse beats
//     per-query edge recomposition: expect warm throughput >= 5x cold.
//
//  2. Worker sweep: an open-loop burst at 1/2/4/8 workers, reporting
//     throughput, answered-request p50/p95, shed rate, and cache hit rate.
//     (On a single-core host the sweep exercises the resize path more than
//     it buys parallel speedup.)
//
//  3. Overload: clients offer 2x the measured warm capacity against a
//     bounded queue with a 50 ms queueing budget. Admission control sheds
//     the excess, so the answered-request p95 stays bounded by
//     queue_capacity / service_rate instead of growing with the backlog.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <thread>
#include <utility>
#include <vector>

#include "bench/bench_util.h"
#include "src/common/rng.h"
#include "src/governance/uncertainty/travel_cost_models.h"
#include "src/serve/query_server.h"
#include "src/sim/road_gen.h"
#include "src/sim/traffic_sim.h"

namespace {

using namespace tsdm;
using tsdm_bench::BenchReporter;
using tsdm_bench::Fmt;
using tsdm_bench::FmtInt;
using tsdm_bench::Stopwatch;
using tsdm_bench::Table;

struct Workload {
  GridNetworkSpec spec;
  RoadNetwork net;
  EdgeCentricModel model{0};
  std::vector<RouteQuery> queries;  ///< distinct (OD pair, bucket) queries

  PathCostModel BaseModel() const {
    const EdgeCentricModel* m = &model;
    return [m](const std::vector<int>& edges, double depart) {
      return m->PathCostDistribution(edges, depart, 32);
    };
  }
};

Workload BuildWorkload() {
  Workload w;
  w.spec.rows = 6;
  w.spec.cols = 6;
  Rng rng(1234);
  w.net = GenerateGridNetwork(w.spec, &rng);

  // Train every edge at one slot; empty slots borrow the global
  // distribution, so any departure time has coverage.
  w.model = EdgeCentricModel(static_cast<int>(w.net.NumEdges()));
  TrafficSimulator sim(&w.net, TrafficSpec{});
  for (int e = 0; e < static_cast<int>(w.net.NumEdges()); ++e) {
    for (int rep = 0; rep < 8; ++rep) {
      TripObservation trip;
      trip.edge_path = {e};
      trip.depart_seconds = 8 * 3600.0;
      trip.edge_times = {sim.SampleEdgeTime(e, trip.depart_seconds, &rng)};
      w.model.AddTrip(trip);
    }
  }
  Status built = w.model.Build();
  if (!built.ok()) {
    std::fprintf(stderr, "model build failed: %s\n", built.ToString().c_str());
    std::exit(1);
  }

  // 64 distinct OD pairs x 2 departure buckets: route enumeration (Yen's)
  // amortizes over only two queries per pair, so the cold pass really pays
  // the per-query recomposition cost the cache removes.
  for (int od = 0; od < 64; ++od) {
    int r0 = od % w.spec.rows;
    int c1 = (od / w.spec.rows) % w.spec.cols;
    RouteQuery q;
    q.source = GridNodeId(w.spec, r0, 0);
    q.target = GridNodeId(w.spec, w.spec.rows - 1 - r0 % w.spec.rows, c1);
    if (q.source == q.target) q.target = GridNodeId(w.spec, w.spec.rows - 1,
                                                    w.spec.cols - 1);
    q.k = 4;
    for (int b = 0; b < 2; ++b) {
      q.depart_seconds = 8 * 3600.0 + b * 900.0;
      q.arrival_deadline_seconds = q.depart_seconds + 1800.0;
      w.queries.push_back(q);
    }
  }
  return w;
}

struct RunResult {
  double wall = 0.0;
  ServeStatsSnapshot stats;

  double ServedPerSec() const {
    uint64_t served = stats.completed + stats.failed;
    return wall > 0.0 ? static_cast<double>(served) / wall : 0.0;
  }
};

/// Submits `repeat` rounds of the workload's query set open-loop (as fast
/// as Submit accepts them) and waits for the server to drain.
RunResult RunBurst(QueryServer* server, const Workload& w, int repeat,
                   double budget_seconds) {
  Stopwatch watch;
  for (int r = 0; r < repeat; ++r) {
    for (const RouteQuery& q : w.queries) {
      QueryServer::SubmitOptions opts;
      opts.queue_budget_seconds = budget_seconds;
      (void)server->Submit(q, nullptr, opts);
    }
  }
  server->WaitIdle();
  RunResult result;
  result.wall = watch.Seconds();
  result.stats = server->Stats();
  return result;
}

}  // namespace

int main() {
  BenchReporter reporter("serve");
  Workload w = BuildWorkload();
  reporter.Info("network", "6x6 grid");
  reporter.Info("workload", "64 OD pairs x 2 buckets, k=4, edge-centric base");

  // --- Phase 1: cold vs warm (the PACE claim) ---------------------------
  // "Cold" is per-query recomposition with no reuse at all: a one-entry
  // sub-path cache, a one-entry route LRU, and a shuffled query order so
  // not even adjacent queries share an OD pair — every query pays Yen's
  // enumeration plus full edge-convolution, the edge-centric serving
  // baseline PACE argues against. "Warm" answers the same queries from
  // the populated caches. (A fresh default-config server already reaches
  // ~65% hit rate *within* its first pass — overlapping sub-paths are the
  // common case — which is why the uncached baseline is the honest
  // denominator.)
  Workload shuffled = w;
  {
    Rng shuffle_rng(99);
    for (size_t i = shuffled.queries.size(); i > 1; --i) {
      std::swap(shuffled.queries[i - 1],
                shuffled.queries[static_cast<size_t>(
                    shuffle_rng.Index(static_cast<int>(i)))]);
    }
  }

  QueryServer::Options cold_opts;
  cold_opts.initial_workers = 1;  // one worker isolates per-query cost
  cold_opts.autoscale_enabled = false;
  cold_opts.queue.capacity = 4096;
  cold_opts.cost.segment_edges = 8;
  cold_opts.cache.capacity = 1;
  cold_opts.cache.shards = 1;
  cold_opts.route_cache_entries = 1;
  QueryServer cold_server(&w.net, w.BaseModel(), cold_opts);
  if (!cold_server.Start().ok()) return 1;
  RunResult cold = RunBurst(&cold_server, shuffled, 2, 120.0);
  cold_server.Stop();

  QueryServer::Options warm_opts;
  warm_opts.initial_workers = 1;
  warm_opts.autoscale_enabled = false;
  warm_opts.queue.capacity = 4096;
  warm_opts.cost.segment_edges = 8;
  QueryServer server(&w.net, w.BaseModel(), warm_opts);
  if (!server.Start().ok()) return 1;
  RunResult first = RunBurst(&server, shuffled, 1, 120.0);  // populate
  RunResult warm = RunBurst(&server, shuffled, 4, 120.0);
  // The warm snapshot accumulates the populate pass; isolate the delta.
  uint64_t warm_served = (warm.stats.completed + warm.stats.failed) -
                         (first.stats.completed + first.stats.failed);
  double cold_per_s = cold.ServedPerSec();
  double warm_per_s =
      warm.wall > 0.0 ? static_cast<double>(warm_served) / warm.wall : 0.0;
  double speedup = cold_per_s > 0.0 ? warm_per_s / cold_per_s : 0.0;
  server.Stop();

  Table cold_warm("E-SV cold (uncached) vs warm (1 worker)",
                  {"pass", "queries", "per_s", "hit_rate"});
  cold_warm.Row({"cold",
                 FmtInt(static_cast<long>(cold.stats.completed +
                                          cold.stats.failed)),
                 Fmt(cold_per_s, 0), Fmt(cold.stats.CacheHitRate(), 3)});
  cold_warm.Row({"warm", FmtInt(static_cast<long>(warm_served)),
                 Fmt(warm_per_s, 0), Fmt(warm.stats.CacheHitRate(), 3)});
  std::printf("warm/cold speedup: %.1fx (expected >= 5x)\n", speedup);

  reporter.Metric("serve_cold_per_s", cold_per_s);
  reporter.Metric("serve_warm_per_s", warm_per_s);
  reporter.Metric("warm_speedup", speedup);

  // --- Phase 2: worker sweep --------------------------------------------
  Table sweep("E-SV open-loop sweep (warm workload)",
              {"workers", "per_s", "p50_us", "p95_us", "shed", "hit_rate"});
  for (int workers : {1, 2, 4, 8}) {
    QueryServer::Options opts;
    opts.initial_workers = workers;
    opts.autoscale_enabled = false;
    opts.queue.capacity = 4096;
    opts.cost.segment_edges = 8;
    QueryServer sweep_server(&w.net, w.BaseModel(), opts);
    if (!sweep_server.Start().ok()) return 1;
    RunBurst(&sweep_server, w, 1, 120.0);  // warm the caches
    RunResult res = RunBurst(&sweep_server, w, 8, 120.0);
    sweep_server.Stop();

    double p50 = 1e6 * res.stats.e2e_latency.QuantileSeconds(0.5);
    double p95 = 1e6 * res.stats.e2e_latency.QuantileSeconds(0.95);
    sweep.Row({FmtInt(workers), Fmt(res.ServedPerSec(), 0), Fmt(p50, 1),
               Fmt(p95, 1), Fmt(res.stats.ShedRate(), 3),
               Fmt(res.stats.CacheHitRate(), 3)});
    std::string tag = "w";  // appended: g++ 12 -O3 false -Wrestrict
    tag += std::to_string(workers);
    reporter.Metric("serve_" + tag + "_per_s", res.ServedPerSec());
    reporter.Metric(tag + "_p50_us", p50);
    reporter.Metric(tag + "_p95_us", p95);
    reporter.Metric(tag + "_shed_rate", res.stats.ShedRate());
    reporter.Metric(tag + "_cache_hit_rate", res.stats.CacheHitRate());
  }

  // --- Phase 3: 2x overload ---------------------------------------------
  // Offer 2x the measured warm capacity for ~1 s against a small queue and
  // a 50 ms queueing budget. Admission control must shed the excess and
  // keep the answered-request p95 near queue_capacity / service_rate.
  QueryServer::Options ol_opts;
  ol_opts.initial_workers = 2;
  ol_opts.autoscale_enabled = true;
  ol_opts.autoscale.min_workers = 1;
  ol_opts.autoscale.max_workers = 4;
  ol_opts.queue.capacity = 256;
  ol_opts.cost.segment_edges = 8;
  QueryServer ol_server(&w.net, w.BaseModel(), ol_opts);
  if (!ol_server.Start().ok()) return 1;
  RunBurst(&ol_server, w, 1, 120.0);  // warm caches first
  ServeStatsSnapshot warm_base = ol_server.Stats();

  const double offered_per_s = std::max(1000.0, 2.0 * warm_per_s);
  const double duration_s = 1.0;
  const int ticks = 200;  // 5 ms pacing ticks
  const double per_tick = offered_per_s * duration_s / ticks;
  Stopwatch ol_watch;
  double carry = 0.0;
  size_t rr = 0;
  for (int t = 0; t < ticks; ++t) {
    carry += per_tick;
    while (carry >= 1.0) {
      const RouteQuery& q = w.queries[rr++ % w.queries.size()];
      QueryServer::SubmitOptions ol_opts;
      ol_opts.queue_budget_seconds = 0.05;
      (void)ol_server.Submit(q, nullptr, ol_opts);
      carry -= 1.0;
    }
    std::this_thread::sleep_for(std::chrono::microseconds(5000));
  }
  ol_server.WaitIdle();
  double ol_wall = ol_watch.Seconds();
  ServeStatsSnapshot ol = ol_server.Stats();
  ol_server.Stop();

  uint64_t ol_submitted = ol.submitted - warm_base.submitted;
  uint64_t ol_served =
      (ol.completed + ol.failed) - (warm_base.completed + warm_base.failed);
  uint64_t ol_shed = ol.TotalShed() - warm_base.TotalShed();
  double ol_shed_rate = ol_submitted > 0
                            ? static_cast<double>(ol_shed) /
                                  static_cast<double>(ol_submitted)
                            : 0.0;
  double ol_p95 = 1e6 * ol.e2e_latency.QuantileSeconds(0.95);

  Table overload("E-SV 2x overload (bounded queue, 50 ms budget)",
                 {"offered_per_s", "served_per_s", "shed_rate", "p95_us",
                  "workers"});
  overload.Row({Fmt(offered_per_s, 0),
                Fmt(ol_wall > 0.0 ? ol_served / ol_wall : 0.0, 0),
                Fmt(ol_shed_rate, 3), Fmt(ol_p95, 1), FmtInt(ol.workers)});

  reporter.Metric("overload_offered_per_s", offered_per_s);
  reporter.Metric("overload_served_per_s",
                  ol_wall > 0.0 ? ol_served / ol_wall : 0.0);
  reporter.Metric("overload_shed_rate", ol_shed_rate);
  reporter.Metric("overload_p95_us", ol_p95);
  reporter.Metric("overload_workers", static_cast<double>(ol.workers));

  std::printf(
      "\nexpected shape: warm throughput >= 5x cold (sub-path + route reuse "
      "replaces Yen's enumeration and per-edge convolution); the sweep's "
      "answered-request p95 stays in the milliseconds at every worker "
      "count; under 2x overload the shed rate is positive while the "
      "answered-request p95 stays bounded by the queue, not the backlog.\n");
  reporter.Write();
  return 0;
}
