// Traffic serving example: the routing decision layer as an online
// service. A morning query storm hits the QueryServer front door:
//
//  * admission control: a bounded queue sheds excess load with a typed
//    error instead of queueing it unboundedly
//  * micro-batching: compatible queries (same network snapshot) share one
//    worker dispatch
//  * PACE-style reuse ([4]): sub-path cost distributions and candidate
//    route enumerations are cached, so the storm's overlapping queries
//    stop paying per-query edge recomposition
//  * forecast-driven autoscaling ([6]): the observed arrival rate drives
//    the worker pool size between runs of the storm
//
//  * self-monitoring: a HealthMonitor feeds the server's own counters
//    through the streaming anomaly pipeline — the shed storm shows up as
//    a flagged incident, and the health state recovers with the traffic
//
// Prints the shed rate, the cache hit rate, the health verdicts around
// the storm, and an excerpt of the Prometheus exposition a scraper would
// collect.

#include <atomic>
#include <chrono>
#include <cstdio>
#include <sstream>
#include <string>
#include <thread>

#include "src/governance/uncertainty/travel_cost_models.h"
#include "src/obs/health.h"
#include "src/obs/metrics_export.h"
#include "src/serve/query_server.h"
#include "src/sim/road_gen.h"
#include "src/sim/traffic_sim.h"

namespace {

void PrintHealth(const char* phase, const tsdm::HealthSnapshot& snap) {
  std::printf("health [%s]: %s (%llu samples, burn %.2f, %llu anomalies "
              "flagged so far)\n",
              phase, tsdm::HealthStateName(snap.state),
              static_cast<unsigned long long>(snap.samples), snap.burn_rate,
              static_cast<unsigned long long>(snap.anomalies_total));
  for (const tsdm::MetricVerdict& v : snap.metrics) {
    if (v.anomalous) {
      std::printf("  !! %-14s value=%.3f score=%.1f\n", v.name.c_str(),
                  v.value, v.score);
    }
  }
}

}  // namespace

int main() {
  using namespace tsdm;
  Rng rng(17);

  // --- City and learned travel-time model -------------------------------
  GridNetworkSpec gspec;
  gspec.rows = 6;
  gspec.cols = 6;
  RoadNetwork net = GenerateGridNetwork(gspec, &rng);
  TrafficSimulator traffic(&net, TrafficSpec{});
  std::printf("city: %zu intersections, %zu road segments\n", net.NumNodes(),
              net.NumEdges());

  EdgeCentricModel model(static_cast<int>(net.NumEdges()), 24);
  for (int e = 0; e < static_cast<int>(net.NumEdges()); ++e) {
    for (int rep = 0; rep < 10; ++rep) {
      TripObservation trip;
      trip.edge_path = {e};
      trip.depart_seconds = 8 * 3600.0;
      trip.edge_times = {traffic.SampleEdgeTime(e, trip.depart_seconds, &rng)};
      model.AddTrip(trip);
    }
  }
  if (!model.Build().ok()) {
    std::printf("model build failed\n");
    return 1;
  }

  // --- Serving stack ----------------------------------------------------
  QueryServer::Options opts;
  opts.queue.capacity = 64;         // small on purpose: show shedding
  opts.batch.max_batch = 8;
  opts.initial_workers = 1;
  opts.autoscale.min_workers = 1;
  opts.autoscale.max_workers = 4;
  opts.autoscale_interval_seconds = 0.01;
  QueryServer server(&net, [&model](const std::vector<int>& edges,
                                    double depart) {
    return model.PathCostDistribution(edges, depart, 32);
  }, opts);
  if (!server.Start().ok()) {
    std::printf("server start failed\n");
    return 1;
  }

  // --- Self-monitoring --------------------------------------------------
  // The monitor watches the server the way a human operator would watch a
  // dashboard, except the "dashboard" is the repo's own streaming anomaly
  // pipeline running over ServeStats deltas.
  HealthMonitor::Options hm_opts;
  hm_opts.sample_interval_seconds = 0.005;
  hm_opts.warmup_samples = 12;
  HealthMonitor monitor([&server] { return server.Stats(); }, hm_opts);
  if (!monitor.Start().ok()) {
    std::printf("health monitor start failed\n");
    return 1;
  }

  // Calm commute traffic first, so the monitor learns what normal looks
  // like before the storm hits.
  for (int round = 0; round < 25; ++round) {
    for (int i = 0; i < 6; ++i) {
      RouteQuery q;
      q.source = GridNodeId(gspec, i % gspec.rows, 0);
      q.target = GridNodeId(gspec, (i + 2) % gspec.rows, gspec.cols - 1);
      q.k = 3;
      q.depart_seconds = 8 * 3600.0;
      q.arrival_deadline_seconds = q.depart_seconds + 1500.0;
      QueryServer::SubmitOptions opts;
      opts.queue_budget_seconds = 0.5;
      (void)server.Submit(q, nullptr, opts);
    }
    server.WaitIdle();
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  PrintHealth("steady", monitor.Snapshot());

  // --- Query storm ------------------------------------------------------
  // 2000 commuter queries over overlapping OD pairs in one morning time
  // bucket — exactly the workload path-centric reuse is built for. The
  // storm arrives in 2 ms waves of 100, repeatedly outrunning the bounded
  // queue: admission control sheds the excess of each wave while the
  // caches warm and the autoscaler reacts to the observed arrival rate.
  std::atomic<int> on_time{0};
  std::atomic<int> answered{0};
  const int kStorm = 2000;
  // Poll the monitor between waves and keep the worst view it published —
  // the incident is visible *while* it is happening, not just in the
  // counters afterwards.
  HealthSnapshot storm_health = monitor.Snapshot();
  for (int i = 0; i < kStorm; ++i) {
    RouteQuery q;
    q.source = GridNodeId(gspec, i % gspec.rows, 0);
    q.target = GridNodeId(gspec, (i / 3) % gspec.rows, gspec.cols - 1);
    q.k = 3;
    q.depart_seconds = 8 * 3600.0 + (i % 4) * 120.0;
    q.arrival_deadline_seconds = q.depart_seconds + 1500.0;
    QueryServer::SubmitOptions storm_opts;
    storm_opts.queue_budget_seconds = 0.1;
    storm_opts.client_request_id = static_cast<uint64_t>(i + 1);
    (void)server.Submit(
        q,
        [&on_time, &answered](const RouteAnswer& answer) {
          if (!answer.status.ok()) return;
          answered.fetch_add(1);
          if (answer.on_time_probability > 0.9) on_time.fetch_add(1);
        },
        storm_opts);
    if (i % 100 == 99) {
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
      HealthSnapshot now = monitor.Snapshot();
      if (now.state > storm_health.state ||
          (now.state == storm_health.state &&
           now.anomalies_total > storm_health.anomalies_total)) {
        storm_health = now;
      }
    }
  }
  server.WaitIdle();
  ServeStatsSnapshot stats = server.Stats();

  // Mid-incident view: the shed spike (and usually the queue-depth jump)
  // was flagged by the anomaly pipeline while the storm was running.
  PrintHealth("storm", storm_health);
  std::printf("health JSON (what /healthz would serve):\n  %s\n",
              MetricsExporter::Describe(storm_health).ToJson().c_str());

  // Recovery: back to calm traffic on the autoscaled pool — the health
  // state returns to healthy (the anomaly counters keep the incident's
  // history, the state does not).
  for (int round = 0; round < 30; ++round) {
    for (int i = 0; i < 6; ++i) {
      RouteQuery q;
      q.source = GridNodeId(gspec, i % gspec.rows, 0);
      q.target = GridNodeId(gspec, (i + 3) % gspec.rows, gspec.cols - 1);
      q.k = 3;
      q.depart_seconds = 8 * 3600.0;
      q.arrival_deadline_seconds = q.depart_seconds + 1500.0;
      QueryServer::SubmitOptions opts;
      opts.queue_budget_seconds = 0.5;
      (void)server.Submit(q, nullptr, opts);
    }
    server.WaitIdle();
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  HealthSnapshot final_health = monitor.Snapshot();
  PrintHealth("recovered", final_health);
  monitor.Stop();
  server.Stop();

  // --- What the operator sees -------------------------------------------
  std::printf("\nstorm: %d submitted, %llu admitted, %llu answered\n", kStorm,
              static_cast<unsigned long long>(stats.admitted),
              static_cast<unsigned long long>(stats.completed));
  std::printf("shed rate:       %.1f%%  (bounded queue + queueing budget)\n",
              100.0 * stats.ShedRate());
  std::printf("cache hit rate:  %.1f%%  (sub-path distributions reused)\n",
              100.0 * stats.CacheHitRate());
  std::printf("batches:         %llu (largest %zu)\n",
              static_cast<unsigned long long>(stats.batches), stats.max_batch);
  std::printf("workers now:     %d (autoscaled, %d resize events)\n",
              stats.workers, stats.scale_events);
  std::printf("on-time >90%%:    %d of %d answered\n", on_time.load(),
              answered.load());

  // --- Prometheus excerpt ----------------------------------------------
  std::string prom = MetricsExporter::Describe(stats).ToPrometheus();
  prom += MetricsExporter::Describe(final_health).ToPrometheus();
  std::printf("\nPrometheus exposition (excerpt):\n");
  std::istringstream lines(prom);
  std::string line;
  int printed = 0;
  while (std::getline(lines, line) && printed < 18) {
    if (line.rfind("tsdm_serve_", 0) == 0 || line.rfind("tsdm_health_", 0) == 0 ||
        line.rfind("# HELP", 0) == 0) {
      std::printf("  %s\n", line.c_str());
      ++printed;
    }
  }
  return 0;
}
