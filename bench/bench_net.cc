// E-NET — The wire tax: the same warm serving workload answered in-process
// (QueryServer::Submit round-trips, no sockets) and over the loopback
// binary protocol, quantifying what the network front door costs. Three
// phases:
//
//  1. In-process baseline: closed-loop Submit round-trips on the warm
//     server — the q/s an embedded caller sees, the denominator of the
//     wire-overhead ratio.
//
//  2. Connection sweep: 1/2/4/8 closed-loop loopback connections issuing
//     the same queries through SocketServer, reporting q/s and the
//     client-observed p50/p95. Expect per-connection q/s well below the
//     in-process number (syscalls, framing, CRC, completion marshaling)
//     but aggregate q/s to climb with connections until the serve layer
//     saturates.
//
//  3. Overload: one connection pipelines a burst far beyond the serve
//     queue's capacity. The socket layer sheds the excess with typed
//     errors BEFORE payload deserialization; every pipelined request is
//     answered (kRouteAnswer or kError), sheds are counted by reason, and
//     the answered-request wire p95 stays bounded by the queue, not the
//     burst size.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <mutex>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "src/common/rng.h"
#include "src/governance/uncertainty/travel_cost_models.h"
#include "src/net/net_client.h"
#include "src/net/socket_server.h"
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

constexpr char kLoopback[] = "127.0.0.1";

struct Workload {
  GridNetworkSpec spec;
  RoadNetwork net;
  EdgeCentricModel model{0};
  std::vector<RouteQuery> queries;

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

  // Same shape as E-SV: 64 OD pairs x 2 departure buckets, k=4 — small
  // enough that the warm caches answer everything, so both sides of the
  // comparison measure dispatch cost, not route math.
  for (int od = 0; od < 64; ++od) {
    int r0 = od % w.spec.rows;
    int c1 = (od / w.spec.rows) % w.spec.cols;
    RouteQuery q;
    q.source = GridNodeId(w.spec, r0, 0);
    q.target = GridNodeId(w.spec, w.spec.rows - 1 - r0 % w.spec.rows, c1);
    if (q.source == q.target) {
      q.target = GridNodeId(w.spec, w.spec.rows - 1, w.spec.cols - 1);
    }
    q.k = 4;
    for (int b = 0; b < 2; ++b) {
      q.depart_seconds = 8 * 3600.0 + b * 900.0;
      q.arrival_deadline_seconds = q.depart_seconds + 1800.0;
      w.queries.push_back(q);
    }
  }
  return w;
}

/// One closed-loop in-process round-trip: Submit, then wait for the
/// callback. Mirrors what a blocking wire client experiences, minus the
/// socket.
double InProcessClosedLoop(QueryServer* server, const Workload& w,
                           int rounds, LatencyHistogram* lat) {
  std::mutex mu;
  std::condition_variable cv;
  bool done = false;
  Stopwatch watch;
  for (int r = 0; r < rounds; ++r) {
    for (const RouteQuery& q : w.queries) {
      const auto t0 = std::chrono::steady_clock::now();
      done = false;
      QueryServer::SubmitOptions opts;
      opts.queue_budget_seconds = 120.0;
      Status s = server->Submit(
          q,
          [&](const RouteAnswer&) {
            std::lock_guard<std::mutex> lock(mu);
            done = true;
            cv.notify_one();
          },
          opts);
      if (s.ok()) {
        std::unique_lock<std::mutex> lock(mu);
        cv.wait(lock, [&] { return done; });
      }
      lat->Add(std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                             t0)
                   .count());
    }
  }
  return watch.Seconds();
}

}  // namespace

int main() {
  BenchReporter reporter("net");
  Workload w = BuildWorkload();
  reporter.Info("network", "6x6 grid");
  reporter.Info("workload",
                "64 OD pairs x 2 buckets, k=4, warm caches, loopback TCP");

  QueryServer::Options sopts;
  sopts.initial_workers = 2;
  sopts.autoscale_enabled = false;
  sopts.queue.capacity = 4096;
  sopts.cost.segment_edges = 8;
  // Dispatch immediately: the default 2 ms batch window is a latency floor
  // that would swamp the wire overhead both sides are here to measure.
  sopts.batch.max_wait_seconds = 0.0;
  QueryServer serve(&w.net, w.BaseModel(), sopts);
  if (!serve.Start().ok()) return 1;

  // Warm the route LRU and sub-path cache so every measured pass is cache
  // dispatch, in-process and wire alike.
  for (const RouteQuery& q : w.queries) {
    QueryServer::SubmitOptions opts;
    opts.queue_budget_seconds = 120.0;
    (void)serve.Submit(q, nullptr, opts);
  }
  serve.WaitIdle();

  // --- Phase 1: in-process closed-loop baseline -------------------------
  LatencyHistogram inproc_lat;
  const int kInprocRounds = 20;
  const double inproc_wall = InProcessClosedLoop(&serve, w, kInprocRounds,
                                                 &inproc_lat);
  const double inproc_queries =
      static_cast<double>(kInprocRounds) * static_cast<double>(w.queries.size());
  const double inproc_per_s =
      inproc_wall > 0.0 ? inproc_queries / inproc_wall : 0.0;

  Table base("E-NET in-process closed-loop baseline (warm)",
             {"queries", "per_s", "p50_us", "p95_us"});
  base.Row({FmtInt(static_cast<long>(inproc_queries)), Fmt(inproc_per_s, 0),
            Fmt(1e6 * inproc_lat.QuantileSeconds(0.5), 1),
            Fmt(1e6 * inproc_lat.QuantileSeconds(0.95), 1)});
  reporter.Metric("net_inproc_per_s", inproc_per_s);
  reporter.Metric("inproc_p50_us", 1e6 * inproc_lat.QuantileSeconds(0.5));
  reporter.Metric("inproc_p95_us", 1e6 * inproc_lat.QuantileSeconds(0.95));

  // Open-loop in-process throughput (submit everything, drain): the
  // server's capacity ceiling, used for the throughput-side overhead
  // ratio against the pipelined wire phase.
  ServeStatsSnapshot before_open = serve.Stats();
  Stopwatch open_watch;
  for (int r = 0; r < 40; ++r) {
    for (const RouteQuery& q : w.queries) {
      QueryServer::SubmitOptions opts;
      opts.queue_budget_seconds = 120.0;
      (void)serve.Submit(q, nullptr, opts);
    }
  }
  serve.WaitIdle();
  const double open_wall = open_watch.Seconds();
  ServeStatsSnapshot after_open = serve.Stats();
  const double open_served = static_cast<double>(
      (after_open.completed + after_open.failed) -
      (before_open.completed + before_open.failed));
  const double inproc_open_per_s =
      open_wall > 0.0 ? open_served / open_wall : 0.0;
  std::printf("in-process open-loop: %.0f q/s\n", inproc_open_per_s);
  reporter.Metric("net_inproc_open_per_s", inproc_open_per_s);

  // --- Phase 2: loopback connection sweep -------------------------------
  SocketServer::Options nopts;
  nopts.event_loops = 2;
  nopts.queue_budget_seconds = 120.0;
  nopts.register_metrics_sources = false;
  SocketServer server(&serve, nopts);
  if (!server.Start().ok()) {
    std::fprintf(stderr, "socket server start failed\n");
    return 1;
  }
  const uint16_t port = server.port();

  Table sweep("E-NET loopback closed-loop sweep (binary protocol)",
              {"conns", "per_s", "p50_us", "p95_us", "vs_inproc"});
  double one_conn_per_s = 0.0;
  for (int conns : {1, 2, 4, 8}) {
    const int per_conn = 1200;
    std::vector<std::thread> threads;
    std::mutex lat_mu;
    LatencyHistogram wire_lat;
    std::atomic<int> failures{0};
    Stopwatch watch;
    for (int c = 0; c < conns; ++c) {
      threads.emplace_back([&, c] {
        NetClient client;
        if (!client.Connect(kLoopback, port).ok()) {
          failures.fetch_add(per_conn);
          return;
        }
        LatencyHistogram local;
        for (int i = 0; i < per_conn; ++i) {
          const RouteQuery& q =
              w.queries[(c * per_conn + i) % w.queries.size()];
          const auto t0 = std::chrono::steady_clock::now();
          WireRouteAnswer answer;
          Status s = client.Query(q, &answer);
          if (!s.ok() || answer.status_code != StatusCode::kOk) {
            failures.fetch_add(1);
            continue;
          }
          local.Add(std::chrono::duration<double>(
                        std::chrono::steady_clock::now() - t0)
                        .count());
        }
        std::lock_guard<std::mutex> lock(lat_mu);
        wire_lat.Merge(local);
      });
    }
    for (auto& t : threads) t.join();
    const double wall = watch.Seconds();
    const double total = static_cast<double>(conns) * per_conn;
    const double per_s = wall > 0.0 ? total / wall : 0.0;
    if (conns == 1) one_conn_per_s = per_s;
    if (failures.load() > 0) {
      std::fprintf(stderr, "sweep conns=%d: %d failed round-trips\n", conns,
                   failures.load());
    }

    const double p50 = 1e6 * wire_lat.QuantileSeconds(0.5);
    const double p95 = 1e6 * wire_lat.QuantileSeconds(0.95);
    sweep.Row({FmtInt(conns), Fmt(per_s, 0), Fmt(p50, 1), Fmt(p95, 1),
               Fmt(inproc_per_s > 0.0 ? per_s / inproc_per_s : 0.0, 3)});
    std::string tag = "c";  // appended: g++ 12 -O3 false -Wrestrict
    tag += std::to_string(conns);
    reporter.Metric("net_" + tag + "_per_s", per_s);
    reporter.Metric(tag + "_p50_us", p50);
    reporter.Metric(tag + "_p95_us", p95);
  }

  // Pipelined single-connection throughput: requests stream without
  // waiting for answers, so the socket cost amortizes the way an open-loop
  // in-process caller's does — the throughput side of the wire tax.
  double pipelined_per_s = 0.0;
  {
    NetClient pipelined;
    if (!pipelined.Connect(kLoopback, port).ok()) return 1;
    const int kPipelined = 8192;
    std::atomic<int> pipeline_failures{0};
    Stopwatch pwatch;
    std::thread drain([&] {
      for (int i = 0; i < kPipelined; ++i) {
        uint64_t id = 0;
        WireRouteAnswer answer;
        if (!pipelined.ReceiveAnswer(&id, &answer).ok()) return;
        if (answer.status_code != StatusCode::kOk) {
          pipeline_failures.fetch_add(1);
        }
      }
    });
    for (int i = 0; i < kPipelined; ++i) {
      if (!pipelined.SendQuery(w.queries[i % w.queries.size()], nullptr)
               .ok()) {
        break;
      }
    }
    drain.join();
    const double pwall = pwatch.Seconds();
    pipelined_per_s = pwall > 0.0 ? kPipelined / pwall : 0.0;
    std::printf("pipelined 1-conn wire: %.0f q/s (%d non-OK)\n",
                pipelined_per_s, pipeline_failures.load());
    reporter.Metric("net_pipelined_per_s", pipelined_per_s);
    pipelined.Close();
  }

  // The headline numbers: how many in-process round-trips one wire
  // round-trip costs (closed-loop, latency-side), and how much serving
  // capacity the wire path keeps when pipelining hides the round-trip
  // (throughput-side).
  const double overhead_ratio =
      one_conn_per_s > 0.0 ? inproc_per_s / one_conn_per_s : 0.0;
  const double throughput_ratio =
      pipelined_per_s > 0.0 ? inproc_open_per_s / pipelined_per_s : 0.0;
  std::printf("wire overhead ratio (closed-loop in-process / 1-conn wire): "
              "%.2fx; open-loop in-process / pipelined wire: %.2fx\n",
              overhead_ratio, throughput_ratio);
  reporter.Metric("wire_overhead_ratio", overhead_ratio);
  reporter.Metric("wire_overhead_ratio_throughput", throughput_ratio);

  // --- Phase 3: pipelined overload against a bounded queue --------------
  // Rebuild the serving stack with a small queue so the burst is far
  // beyond capacity; the socket layer must answer every request id with
  // either a result or a typed shed, before decoding shed payloads.
  server.Stop();
  serve.Stop();

  QueryServer::Options ol_sopts = sopts;
  ol_sopts.queue.capacity = 64;
  QueryServer ol_serve(&w.net, w.BaseModel(), ol_sopts);
  if (!ol_serve.Start().ok()) return 1;
  for (const RouteQuery& q : w.queries) {
    QueryServer::SubmitOptions opts;
    opts.queue_budget_seconds = 120.0;
    (void)ol_serve.Submit(q, nullptr, opts);
  }
  ol_serve.WaitIdle();

  SocketServer::Options ol_nopts;
  ol_nopts.event_loops = 2;
  ol_nopts.queue_budget_seconds = 0.05;
  ol_nopts.register_metrics_sources = false;
  SocketServer ol_server(&ol_serve, ol_nopts);
  if (!ol_server.Start().ok()) return 1;

  NetClient client;
  if (!client.Connect(kLoopback, ol_server.port()).ok()) return 1;
  const int kBurst = 4096;
  Stopwatch ol_watch;
  std::atomic<long> answered{0}, shed{0};
  // Drain answers concurrently so the pipelined burst never deadlocks on a
  // full kernel buffer in either direction.
  std::thread drain([&] {
    for (int i = 0; i < kBurst; ++i) {
      uint64_t id = 0;
      WireRouteAnswer answer;
      if (!client.ReceiveAnswer(&id, &answer).ok()) return;
      if (answer.status_code == StatusCode::kOk) {
        answered.fetch_add(1);
      } else {
        shed.fetch_add(1);
      }
    }
  });
  for (int i = 0; i < kBurst; ++i) {
    const RouteQuery& q = w.queries[i % w.queries.size()];
    if (!client.SendQuery(q, nullptr).ok()) break;
  }
  drain.join();
  const double ol_wall = ol_watch.Seconds();
  NetStatsSnapshot ol_stats = ol_server.Stats();

  const double ol_p95 = 1e6 * ol_stats.wire_latency.QuantileSeconds(0.95);
  Table overload("E-NET pipelined overload (queue capacity 64, 50 ms budget)",
                 {"burst", "answered", "shed_wire", "shed_queue_full",
                  "p95_us"});
  overload.Row({FmtInt(kBurst), FmtInt(answered.load()), FmtInt(shed.load()),
                FmtInt(static_cast<long>(ol_stats.shed_queue_full)),
                Fmt(ol_p95, 1)});

  reporter.Metric("overload_burst", static_cast<double>(kBurst));
  reporter.Metric("overload_answered", static_cast<double>(answered.load()));
  reporter.Metric("overload_shed", static_cast<double>(shed.load()));
  reporter.Metric("overload_shed_queue_full",
                  static_cast<double>(ol_stats.shed_queue_full));
  reporter.Metric("overload_wire_p95_us", ol_p95);
  reporter.Metric("overload_wall_s", ol_wall);

  client.Close();
  ol_server.Stop();
  ol_serve.Stop();

  std::printf(
      "\nexpected shape: one wire round-trip costs several in-process "
      "round-trips (syscalls + framing + CRC + cross-thread completion), "
      "aggregate q/s climbs with connections, and the pipelined burst is "
      "fully answered — results plus typed queue_full sheds — with the "
      "answered-request wire p95 bounded by the queue, not the burst.\n");
  reporter.Write();
  return 0;
}
