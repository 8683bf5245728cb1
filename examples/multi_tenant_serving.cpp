// Multi-tenant serving example: the workload subsystem end to end.
//
//  * scenario generation: three tenants with seeded arrival shapes — a
//    premium ride-hail surge, a standard diurnal commute, and a
//    best-effort sensor-outage storm — merged into one timestamped query
//    stream
//  * trace round-trip: the stream is written to the compact binary trace
//    format (CRC-framed records, resynchronizable) and read back, the
//    artifact a production capture would hand to a regression run
//  * weighted-fair scheduling: the replayed storm hits a QueryServer whose
//    queue gives premium 4x the service share of batch, caps batch's
//    queue depth with a quota, and sheds lowest-priority-first under
//    overload
//  * forecast autoscaling: a Holt-trend policy watches the arrival
//    counts and pre-scales the worker pool as the surge ramps
//
// Prints the per-tenant outcome table (offered / answered / shed / p95)
// and an excerpt of the per-tenant Prometheus families a scraper would
// collect.

#include <cstdio>
#include <sstream>
#include <string>
#include <vector>

#include "src/governance/uncertainty/travel_cost_models.h"
#include "src/load/load_trace.h"
#include "src/load/replayer.h"
#include "src/load/scenario.h"
#include "src/obs/metrics_export.h"
#include "src/serve/query_server.h"
#include "src/sim/road_gen.h"
#include "src/sim/traffic_sim.h"

int main() {
  using namespace tsdm;
  Rng rng(17);

  // --- City and learned travel-time model -------------------------------
  GridNetworkSpec gspec;
  gspec.rows = 5;
  gspec.cols = 5;
  RoadNetwork net = GenerateGridNetwork(gspec, &rng);
  EdgeCentricModel model(static_cast<int>(net.NumEdges()));
  TrafficSimulator sim(&net, TrafficSpec{});
  for (int e = 0; e < static_cast<int>(net.NumEdges()); ++e) {
    for (int rep = 0; rep < 8; ++rep) {
      TripObservation trip;
      trip.edge_path = {e};
      trip.depart_seconds = 8 * 3600.0;
      trip.edge_times = {sim.SampleEdgeTime(e, trip.depart_seconds, &rng)};
      model.AddTrip(trip);
    }
  }
  if (!model.Build().ok()) return 1;
  PathCostModel base_model = [&model](const std::vector<int>& edges,
                                      double depart) {
    return model.PathCostDistribution(edges, depart, 32);
  };

  // --- Three tenants, three arrival shapes ------------------------------
  TenantScenario premium;
  premium.tenant = "premium";
  premium.shape = ScenarioShape::kRideHailSurge;
  premium.priority = 2;
  premium.base_rate_hz = 60.0;
  premium.peak_multiplier = 4.0;
  premium.duration_seconds = 2.0;
  premium.seed = 11;
  premium.num_nodes = static_cast<int>(net.NumNodes());

  TenantScenario standard = premium;
  standard.tenant = "standard";
  standard.shape = ScenarioShape::kDiurnalCommute;
  standard.priority = 1;
  standard.seed = 12;

  TenantScenario batch = premium;
  batch.tenant = "batch";
  batch.shape = ScenarioShape::kSensorOutageStorm;
  batch.priority = 0;
  batch.base_rate_hz = 120.0;
  batch.seed = 13;

  std::vector<std::vector<TimedQuery>> streams;
  for (const TenantScenario& spec : {premium, standard, batch}) {
    Result<std::vector<TimedQuery>> s = GenerateScenario(spec);
    if (!s.ok()) return 1;
    streams.push_back(std::move(*s));
  }
  std::vector<TimedQuery> trace = MergeStreams(streams);
  std::printf("generated %zu queries across 3 tenants\n", trace.size());

  // --- Round-trip through the binary trace format -----------------------
  const std::string path = "/tmp/tsdm_example_trace.bin";
  if (!WriteTraceFile(path, trace).ok()) return 1;
  Result<std::vector<TimedQuery>> loaded = ReadTraceFile(path);
  if (!loaded.ok()) return 1;
  std::printf("trace round-trip: wrote and re-read %zu records (%s)\n",
              loaded->size(), path.c_str());

  // --- Weighted-fair, forecast-autoscaled server ------------------------
  QueryServer::Options opts;
  opts.initial_workers = 1;
  opts.autoscale_policy = QueryServer::AutoscalePolicyKind::kForecast;
  opts.autoscale_interval_seconds = 0.05;
  opts.autoscale.min_workers = 1;
  opts.autoscale.max_workers = 4;
  // Arrivals-per-interval one worker is provisioned for; low enough here
  // that the surge visibly grows the pool.
  opts.autoscale.per_worker_capacity = 10.0;
  opts.queue.capacity = 64;
  opts.queue.tenants["premium"].weight = 4.0;
  opts.queue.tenants["standard"].weight = 2.0;
  opts.queue.tenants["batch"].weight = 1.0;
  opts.queue.tenants["batch"].quota = 32;
  QueryServer server(&net, base_model, opts);
  if (!server.Start().ok()) return 1;

  TraceReplayer::Options ropts;
  ropts.speed = 1.0;  // real time
  ropts.queue_budget_seconds = 0.25;
  TraceReplayer replayer(ropts);
  Result<TraceReplayer::Report> report = replayer.Replay(*loaded, &server);
  if (!report.ok()) return 1;

  ServeStatsSnapshot snap = server.Stats();
  std::printf("\nper-tenant outcome (weights 4:2:1, batch quota 32):\n");
  std::printf("  %-10s %8s %8s %8s %10s\n", "tenant", "offered", "answered",
              "shed", "p95_ms");
  for (const TenantServeStats& t : snap.tenants) {
    std::printf("  %-10s %8llu %8llu %8llu %10.1f\n", t.tenant.c_str(),
                static_cast<unsigned long long>(t.submitted),
                static_cast<unsigned long long>(t.completed + t.failed),
                static_cast<unsigned long long>(t.TotalShed()),
                1e3 * t.e2e_latency.QuantileSeconds(0.95));
  }
  std::printf("workers now: %d (scale events: %d)\n", snap.workers,
              snap.scale_events);

  // --- The per-tenant families a scraper would collect ------------------
  std::istringstream prom(MetricsExporter::Describe(snap).ToPrometheus());
  std::printf("\nper-tenant Prometheus excerpt:\n");
  for (std::string line; std::getline(prom, line);) {
    if (line.find("tsdm_serve_tenant_") == 0 &&
        line.find("latency") == std::string::npos) {
      std::printf("  %s\n", line.c_str());
    }
  }

  server.Stop();
  return 0;
}
