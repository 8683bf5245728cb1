#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <mutex>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "src/common/rng.h"
#include "src/governance/uncertainty/travel_cost_models.h"
#include "src/net/net_client.h"
#include "src/net/socket_server.h"
#include "src/obs/flight_recorder.h"
#include "src/obs/metrics_export.h"
#include "src/obs/trace.h"
#include "src/shard/shard_map.h"
#include "src/shard/shard_router.h"
#include "src/shard/shard_stats.h"
#include "src/sim/road_gen.h"
#include "src/sim/traffic_sim.h"

namespace tsdm {
namespace {

// --- ShardMap conformance ------------------------------------------------

TEST(ShardMapTest, ClampsDegenerateOptions) {
  ShardMap::Options opts;
  opts.num_shards = 0;
  opts.vnodes = -3;
  ShardMap map(opts);
  EXPECT_EQ(map.num_shards(), 1);
  EXPECT_EQ(map.vnodes(), 1);
  EXPECT_EQ(map.OwnerOfBucket(12345), 0);
}

TEST(ShardMapTest, PlacementIsDeterministicAcrossInstances) {
  ShardMap::Options opts;
  opts.num_shards = 5;
  ShardMap a(opts);
  ShardMap b(opts);
  for (int64_t bucket = -500; bucket < 500; ++bucket) {
    EXPECT_EQ(a.OwnerOfBucket(bucket), b.OwnerOfBucket(bucket)) << bucket;
  }
  std::vector<int> edges;
  for (int e = 0; e < 64; ++e) {
    edges.push_back(e * 7);
    EXPECT_EQ(a.OwnerOfSubpath(edges), b.OwnerOfSubpath(edges));
  }
}

TEST(ShardMapTest, EveryKeyHasExactlyOneOwnerAndLoadIsBalanced) {
  const int kShards = 4;
  const int kKeys = 20000;
  ShardMap::Options opts;
  opts.num_shards = kShards;
  ShardMap map(opts);
  std::vector<int> counts(kShards, 0);
  for (int64_t bucket = 0; bucket < kKeys; ++bucket) {
    int owner = map.OwnerOfBucket(bucket);
    ASSERT_GE(owner, 0);
    ASSERT_LT(owner, kShards);
    ++counts[owner];
  }
  // 32 vnodes/shard keeps the ring arcs reasonably even: every shard must
  // own a substantial share (the bound is loose on purpose — this guards
  // against a broken ring, not against hash-variance).
  for (int s = 0; s < kShards; ++s) {
    EXPECT_GT(counts[s], kKeys / 10) << "shard " << s << " starved";
    EXPECT_LT(counts[s], kKeys / 2) << "shard " << s << " overloaded";
  }
}

TEST(ShardMapTest, GrowthOnlyMovesKeysToTheNewShard) {
  // The consistent-hashing contract: going N -> N+1 shards, a key either
  // keeps its owner or moves to the NEW shard — pre-existing shards never
  // trade keys among themselves. This is what makes future resharding an
  // append-only hand-off.
  const int kKeys = 8000;
  for (int n = 1; n <= 7; ++n) {
    ShardMap::Options small;
    small.num_shards = n;
    ShardMap::Options big;
    big.num_shards = n + 1;
    ShardMap before(small);
    ShardMap after(big);
    int moved = 0;
    for (int64_t bucket = 0; bucket < kKeys; ++bucket) {
      const int was = before.OwnerOfBucket(bucket);
      const int now = after.OwnerOfBucket(bucket);
      if (was != now) {
        EXPECT_EQ(now, n) << "bucket " << bucket << " moved between "
                          << "pre-existing shards " << was << " -> " << now
                          << " when growing " << n << " -> " << n + 1;
        ++moved;
      }
    }
    // Expected churn is ~kKeys/(n+1); allow generous slack both ways.
    EXPECT_GT(moved, kKeys / (4 * (n + 1))) << n;
    EXPECT_LT(moved, (3 * kKeys) / (n + 1)) << n;
  }
}

TEST(ShardMapTest, SubpathHashIsOrderSensitive) {
  // A sub-path and its reverse are different cache keys and may live on
  // different shards; the hash must see order, not just membership.
  std::vector<int> forward{1, 2, 3, 4};
  std::vector<int> backward{4, 3, 2, 1};
  EXPECT_NE(ShardMap::HashSubpath(forward), ShardMap::HashSubpath(backward));
}

// --- Fleet stats / health aggregation ------------------------------------

TEST(ShardStatsTest, AggregateSumsCountersAndMergesHistograms) {
  ShardStatsSnapshot snap;
  ServeStatsSnapshot a;
  a.submitted = 10;
  a.completed = 8;
  a.cache_hits = 4;
  a.max_batch = 3;
  a.workers = 2;
  a.e2e_latency.Add(0.010);
  a.e2e_latency.Add(0.020);
  ServeStatsSnapshot b;
  b.submitted = 5;
  b.completed = 5;
  b.cache_hits = 1;
  b.max_batch = 7;
  b.workers = 2;
  b.e2e_latency.Add(0.030);
  snap.shards = {a, b};
  ServeStatsSnapshot total = snap.Aggregate();
  EXPECT_EQ(total.submitted, 15u);
  EXPECT_EQ(total.completed, 13u);
  EXPECT_EQ(total.cache_hits, 5u);
  EXPECT_EQ(total.max_batch, 7u);  // fleet max, not sum
  EXPECT_EQ(total.workers, 4);
  EXPECT_EQ(total.e2e_latency.count(), 3u);
}

TEST(ShardStatsTest, FleetHealthTakesWorstStateAndPrefixesMetrics) {
  HealthSnapshot healthy;
  healthy.state = HealthState::kHealthy;
  healthy.samples = 10;
  healthy.burn_rate = 0.1;
  MetricVerdict v;
  v.name = "queue_depth";
  v.anomalous = false;
  healthy.metrics.push_back(v);

  HealthSnapshot degraded;
  degraded.state = HealthState::kDegraded;
  degraded.samples = 12;
  degraded.burn_rate = 1.5;
  degraded.anomalies_total = 3;
  degraded.top_offender = "cache";
  degraded.top_offender_share = 0.7;
  v.name = "shed_rate";
  v.anomalous = true;
  degraded.metrics.push_back(v);

  HealthSnapshot fleet = AggregateFleetHealth({healthy, degraded});
  EXPECT_EQ(fleet.state, HealthState::kDegraded);
  EXPECT_EQ(fleet.samples, 22u);
  EXPECT_EQ(fleet.anomalies_total, 3u);
  EXPECT_DOUBLE_EQ(fleet.burn_rate, 1.5);
  EXPECT_EQ(fleet.top_offender, "s1/cache");
  ASSERT_EQ(fleet.metrics.size(), 2u);
  EXPECT_EQ(fleet.metrics[0].name, "s0/queue_depth");
  EXPECT_EQ(fleet.metrics[1].name, "s1/shed_rate");
}

// --- ShardRouter ---------------------------------------------------------

struct ShardFixture {
  GridNetworkSpec spec;
  RoadNetwork net;
  EdgeCentricModel model;

  ShardFixture() : spec(MakeSpec()), net(MakeNet(spec)), model(0) {
    model = EdgeCentricModel(static_cast<int>(net.NumEdges()));
    TrafficSimulator sim(&net, TrafficSpec{});
    Rng rng(11);
    for (int e = 0; e < static_cast<int>(net.NumEdges()); ++e) {
      for (int rep = 0; rep < 8; ++rep) {
        TripObservation trip;
        trip.edge_path = {e};
        trip.depart_seconds = 8 * 3600.0;
        trip.edge_times = {sim.SampleEdgeTime(e, trip.depart_seconds, &rng)};
        model.AddTrip(trip);
      }
    }
    Status built = model.Build();
    EXPECT_TRUE(built.ok()) << built.ToString();
  }

  static GridNetworkSpec MakeSpec() {
    GridNetworkSpec spec;
    spec.rows = 6;
    spec.cols = 6;
    return spec;
  }
  static RoadNetwork MakeNet(const GridNetworkSpec& spec) {
    Rng rng(3);
    return GenerateGridNetwork(spec, &rng);
  }

  PathCostModel BaseModel() const {
    const EdgeCentricModel* m = &model;
    return [m](const std::vector<int>& edges, double depart) {
      return m->PathCostDistribution(edges, depart, 32);
    };
  }

  ShardRouter::Options RouterOptions(int num_shards) const {
    ShardRouter::Options opts;
    opts.map.num_shards = num_shards;
    opts.server.autoscale_enabled = false;
    opts.server.initial_workers = 1;
    opts.region_cell_meters = 800.0;
    return opts;
  }

  /// A (source, target) pair whose region owners differ at this fleet
  /// size — guaranteed to scatter.
  std::pair<int, int> CrossShardPair(const ShardRouter& router) const {
    for (int a = 0; a < static_cast<int>(net.NumNodes()); ++a) {
      for (int b = 0; b < static_cast<int>(net.NumNodes()); ++b) {
        if (a != b && router.OwnerOfNode(a) != router.OwnerOfNode(b)) {
          return {a, b};
        }
      }
    }
    ADD_FAILURE() << "no cross-shard pair in fixture";
    return {0, 1};
  }

  /// A pair owned by one shard — guaranteed to forward.
  std::pair<int, int> SameShardPair(const ShardRouter& router) const {
    for (int a = 0; a < static_cast<int>(net.NumNodes()); ++a) {
      for (int b = 0; b < static_cast<int>(net.NumNodes()); ++b) {
        if (a != b && router.OwnerOfNode(a) == router.OwnerOfNode(b)) {
          return {a, b};
        }
      }
    }
    ADD_FAILURE() << "no same-shard pair in fixture";
    return {0, 1};
  }
};

RouteQuery MakeQuery(int source, int target, double depart = 8 * 3600.0) {
  RouteQuery q;
  q.source = source;
  q.target = target;
  q.k = 4;
  q.depart_seconds = depart;
  return q;
}

TEST(ShardRouterTest, RejectsWhenNotRunning) {
  ShardFixture fx;
  ShardRouter router(&fx.net, fx.BaseModel(), fx.RouterOptions(2));
  Status st = router.Submit(MakeQuery(0, 5), [](const RouteAnswer&) {});
  EXPECT_EQ(st.code(), StatusCode::kFailedPrecondition);
}

TEST(ShardRouterTest, ForwardsSameOwnerAndScattersCrossOwner) {
  ShardFixture fx;
  ShardRouter router(&fx.net, fx.BaseModel(), fx.RouterOptions(4));
  ASSERT_TRUE(router.Start().ok());
  auto same = fx.SameShardPair(router);
  auto cross = fx.CrossShardPair(router);

  std::atomic<int> answered{0};
  auto count_ok = [&answered](const RouteAnswer& answer) {
    EXPECT_TRUE(answer.status.ok()) << answer.status.ToString();
    answered.fetch_add(1);
  };
  ASSERT_TRUE(
      router.Submit(MakeQuery(same.first, same.second), count_ok).ok());
  ASSERT_TRUE(
      router.Submit(MakeQuery(cross.first, cross.second), count_ok).ok());
  router.WaitIdle();
  EXPECT_EQ(answered.load(), 2);

  ShardStatsSnapshot snap = router.ShardStats();
  EXPECT_EQ(snap.router.forwarded, 1u);
  EXPECT_EQ(snap.router.scattered, 1u);
  EXPECT_EQ(snap.router.merges, 1u);
  EXPECT_GE(snap.router.probes_sent, 1u);
  EXPECT_EQ(snap.router.partial_errors, 0u);
  // Per-shard attribution sums to the totals.
  uint64_t fwd_sum = 0, probe_sum = 0;
  for (uint64_t f : snap.router.forwarded_per_shard) fwd_sum += f;
  for (uint64_t p : snap.router.probes_per_shard) probe_sum += p;
  EXPECT_EQ(fwd_sum, snap.router.forwarded);
  EXPECT_EQ(probe_sum, snap.router.probes_sent);
  // The fleet aggregate sees the probe + forwarded traffic as completions.
  EXPECT_GE(router.Stats().completed, 2u);
  router.Stop();
}

TEST(ShardRouterTest, ScatterReplicatesBoundaryCacheEntries) {
  ShardFixture fx;
  ShardRouter::Options opts = fx.RouterOptions(4);
  ShardRouter router(&fx.net, fx.BaseModel(), opts);
  ASSERT_TRUE(router.Start().ok());
  auto cross = fx.CrossShardPair(router);
  std::atomic<int> done{0};
  ASSERT_TRUE(router
                  .Submit(MakeQuery(cross.first, cross.second),
                          [&done](const RouteAnswer& answer) {
                            EXPECT_TRUE(answer.status.ok());
                            done.fetch_add(1);
                          })
                  .ok());
  router.WaitIdle();
  ASSERT_EQ(done.load(), 1);
  ShardStatsSnapshot snap = router.ShardStats();
  // A cold scatter computes at least one segment on a non-endpoint-owner
  // shard, so at least one entry crossed a boundary.
  EXPECT_GT(snap.router.replicated, 0u);
  router.Stop();
}

TEST(ShardRouterTest, StoppedShardYieldsTypedUnavailable) {
  ShardFixture fx;
  ShardRouter router(&fx.net, fx.BaseModel(), fx.RouterOptions(2));
  ASSERT_TRUE(router.Start().ok());
  auto cross = fx.CrossShardPair(router);
  const int owner = router.OwnerOfNode(cross.second);
  ASSERT_TRUE(router.StopShard(owner).ok());
  EXPECT_TRUE(router.ShardStopped(owner));

  // Forward to the stopped owner: typed error at submit, callback unused.
  int fwd_source = -1, fwd_target = -1;
  for (int a = 0; a < static_cast<int>(fx.net.NumNodes()) && fwd_source < 0;
       ++a) {
    if (router.OwnerOfNode(a) != owner) continue;
    for (int b = 0; b < static_cast<int>(fx.net.NumNodes()); ++b) {
      if (a != b && router.OwnerOfNode(b) == owner) {
        fwd_source = a;
        fwd_target = b;
        break;
      }
    }
  }
  if (fwd_source >= 0) {
    Status fwd = router.Submit(MakeQuery(fwd_source, fwd_target),
                               [](const RouteAnswer&) { FAIL(); });
    EXPECT_EQ(fwd.code(), StatusCode::kUnavailable);
  }

  // Scatter across the stopped owner: admitted, answered with a typed
  // partial-result error — never a wrong answer.
  std::atomic<int> partial{0};
  ASSERT_TRUE(router
                  .Submit(MakeQuery(cross.first, cross.second),
                          [&partial](const RouteAnswer& answer) {
                            EXPECT_EQ(answer.status.code(),
                                      StatusCode::kUnavailable)
                                << answer.status.ToString();
                            partial.fetch_add(1);
                          })
                  .ok());
  router.WaitIdle();
  EXPECT_EQ(partial.load(), 1);
  ShardStatsSnapshot snap = router.ShardStats();
  EXPECT_GE(snap.router.partial_errors, 1u);
  EXPECT_GE(snap.router.probe_transport_failures, 1u);
  router.Stop();
}

TEST(ShardRouterTest, RegistersShardMetricsSource) {
  ShardFixture fx;
  ShardRouter router(&fx.net, fx.BaseModel(), fx.RouterOptions(2));
  ASSERT_TRUE(router.Start().ok());
  std::string prom = MetricsExporter::ExportPrometheus();
  EXPECT_NE(prom.find("tsdm_shard_count 2"), std::string::npos);
  EXPECT_NE(prom.find("tsdm_shard_routed_total{mode=\"forward\"}"),
            std::string::npos);
  std::string json = MetricsExporter::Describe(router.ShardStats()).ToJson();
  EXPECT_NE(json.find("\"num_shards\":2"), std::string::npos);
  EXPECT_NE(json.find("\"aggregate\":"), std::string::npos);
  router.Stop();
  // Unregistered after Stop.
  EXPECT_EQ(MetricsExporter::ExportPrometheus().find("tsdm_shard_count"),
            std::string::npos);
}

TEST(ShardRouterTest, ScatterSpansLinkUnderSubmitRoot) {
  ShardFixture fx;
  TraceRecorder::Global().Clear();
  TraceRecorder::Global().Enable();
  int source_owner = -1;
  {
    // Scoped: worker-side spans (the merge runs on the last-completing
    // probe's worker thread) flush when the shards' pools wind down at
    // destruction, before the snapshot below.
    ShardRouter router(&fx.net, fx.BaseModel(), fx.RouterOptions(4));
    ASSERT_TRUE(router.Start().ok());
    auto cross = fx.CrossShardPair(router);
    source_owner = router.OwnerOfNode(cross.first);

    std::atomic<int> done{0};
    ASSERT_TRUE(
        router
            .Submit(MakeQuery(cross.first, cross.second),
                    [&done](const RouteAnswer&) { done.fetch_add(1); })
            .ok());
    router.WaitIdle();
    ASSERT_EQ(done.load(), 1);
    router.Stop();
  }
  TraceRecorder::Global().Disable();

  std::vector<TraceEvent> events = TraceRecorder::Global().Snapshot();
  bool saw_submit = false, saw_scatter = false, saw_merge = false,
       saw_serve_submit = false;
  uint64_t request_id = 0;
  for (const TraceEvent& e : events) {
    if (e.name == "shard/submit") {
      saw_submit = true;
      request_id = e.request_id;
    }
  }
  ASSERT_TRUE(saw_submit);
  for (const TraceEvent& e : events) {
    if (e.request_id != request_id) continue;
    if (e.name == "shard/scatter") saw_scatter = true;
    if (e.name == "shard/merge") saw_merge = true;
    if (e.name == "serve/submit") saw_serve_submit = true;
  }
  // The probes' serve/submit subtrees hang inside the same request tree as
  // the scatter + merge spans — one tree per routed query.
  EXPECT_TRUE(saw_scatter);
  EXPECT_TRUE(saw_merge);
  EXPECT_TRUE(saw_serve_submit);

  // Enumeration ran on a serve worker of the source owner, in the same
  // tree: serve/enumerate_routes -> serve/exec -> serve/submit ->
  // shard/scatter, whose arg is the shard the scatter was sent to.
  std::map<uint64_t, const TraceEvent*> by_span;
  for (const TraceEvent& e : events) {
    if (e.request_id == request_id) by_span[e.span_id] = &e;
  }
  auto parent = [&](const TraceEvent* e) -> const TraceEvent* {
    auto it = by_span.find(e->parent_span_id);
    return it == by_span.end() ? nullptr : it->second;
  };
  int enumerations = 0;
  for (const auto& [id, e] : by_span) {
    if (e->name != "serve/enumerate_routes") continue;
    ++enumerations;
    const TraceEvent* exec = parent(e);
    ASSERT_NE(exec, nullptr);
    EXPECT_EQ(exec->name, "serve/exec");
    const TraceEvent* submit = parent(exec);
    ASSERT_NE(submit, nullptr);
    EXPECT_EQ(submit->name, "serve/submit");
    const TraceEvent* scatter = parent(submit);
    ASSERT_NE(scatter, nullptr);
    EXPECT_EQ(scatter->name, "shard/scatter");
    EXPECT_EQ(scatter->arg, source_owner);
  }
  EXPECT_EQ(enumerations, 1);
}

TEST(ShardRouterTest, SocketServerFrontsRouterUnchanged) {
  // The shard tier behind the existing wire front door: SocketServer takes
  // any QueryService, so NetClient cannot tell a fleet from a node.
  ShardFixture fx;
  ShardRouter router(&fx.net, fx.BaseModel(), fx.RouterOptions(2));
  ASSERT_TRUE(router.Start().ok());
  QueryService* service = &router;
  EXPECT_FALSE(service->QueueFull());
  std::atomic<int> done{0};
  auto cross = fx.CrossShardPair(router);
  ASSERT_TRUE(service
                  ->Submit(MakeQuery(cross.first, cross.second),
                           [&done](const RouteAnswer& answer) {
                             EXPECT_TRUE(answer.status.ok());
                             done.fetch_add(1);
                           })
                  .ok());
  router.WaitIdle();
  EXPECT_EQ(done.load(), 1);
  EXPECT_GE(service->Stats().completed, 1u);
  router.Stop();
}

TEST(ShardRouterTest, WireServerOverRouterExportsEachFamilyOnce) {
  // A SocketServer fronting a ShardRouter registers the router as its
  // "serve" source while the router registers itself as "shard": the
  // scrape must still carry every family's HELP and TYPE exactly once,
  // or a Prometheus server rejects the whole document.
  ShardFixture fx;
  ShardRouter router(&fx.net, fx.BaseModel(), fx.RouterOptions(2));
  ASSERT_TRUE(router.Start().ok());
  SocketServer server(&router);
  ASSERT_TRUE(server.Start().ok());
  std::istringstream scrape(MetricsExporter::ExportPrometheus());
  std::map<std::string, int> types;
  std::map<std::string, int> helps;
  std::string line;
  while (std::getline(scrape, line)) {
    // "# TYPE <family> <type>" and "# HELP <family> <text>".
    const bool type = line.rfind("# TYPE ", 0) == 0;
    if (!type && line.rfind("# HELP ", 0) != 0) continue;
    ++(type ? types : helps)[line.substr(7, line.find(' ', 7) - 7)];
  }
  EXPECT_EQ(types.count("tsdm_serve_submitted_total"), 1u);
  EXPECT_EQ(types.count("tsdm_shard_count"), 1u);
  EXPECT_EQ(types.count("tsdm_net_connections_total"), 1u);
  for (const auto& [name, n] : types) EXPECT_EQ(n, 1) << name;
  for (const auto& [name, n] : helps) EXPECT_EQ(n, 1) << name;
  server.Stop();
  router.Stop();
}

/// A (source, target) pair whose regions are both owned by `shard`.
std::pair<int, int> PairOwnedBy(const ShardRouter& router, int shard,
                                int num_nodes) {
  for (int a = 0; a < num_nodes; ++a) {
    for (int b = 0; b < num_nodes; ++b) {
      if (a != b && router.OwnerOfNode(a) == shard &&
          router.OwnerOfNode(b) == shard) {
        return {a, b};
      }
    }
  }
  ADD_FAILURE() << "no pair owned by shard " << shard;
  return {0, 1};
}

/// A (source, target) pair that scatters with its source owned by `shard`.
std::pair<int, int> ScatterSourcedOn(const ShardRouter& router, int shard,
                                     int num_nodes) {
  for (int a = 0; a < num_nodes; ++a) {
    for (int b = 0; b < num_nodes; ++b) {
      if (router.OwnerOfNode(a) == shard && router.OwnerOfNode(b) != shard) {
        return {a, b};
      }
    }
  }
  ADD_FAILURE() << "no scatter sourced on shard " << shard;
  return {0, 1};
}

/// Wraps a base model so that its first call after Arm() blocks until
/// Release(): holds one shard worker inside a request on demand.
struct ModelGate {
  std::mutex mu;
  std::condition_variable cv;
  bool entered = false;
  bool released = false;
  std::atomic<bool> armed{false};

  PathCostModel Wrap(PathCostModel base) {
    return [this, base](const std::vector<int>& edges, double depart) {
      if (armed.exchange(false)) {
        std::unique_lock<std::mutex> lock(mu);
        entered = true;
        cv.notify_all();
        cv.wait(lock, [this] { return released; });
      }
      return base(edges, depart);
    };
  }
  /// Submits `pair` (owned by one shard) and waits until its worker blocks.
  void Block(ShardRouter* router, std::pair<int, int> pair) {
    armed.store(true);
    ASSERT_TRUE(router->Submit(MakeQuery(pair.first, pair.second),
                               [](const RouteAnswer&) {})
                    .ok());
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [this] { return entered; });
  }
  void Release() {
    std::lock_guard<std::mutex> lock(mu);
    released = true;
    cv.notify_all();
  }
};

// One full shard sheds only what its Push refuses. Shard 0's single worker
// is held inside the base model and its one queue slot is taken: a wire
// query owned by shard 1 is still answered, a scatter sourced on shard 0
// is shed ResourceExhausted, and a scatter sourced on shard 1 is admitted
// — its probes that shard 0 refuses make it a typed partial Unavailable.
TEST(ShardRouterTest, FullShardShedsOnlyItsOwnAndScatteredQueries) {
  ShardFixture fx;
  ModelGate gate;
  ShardRouter::Options opts = fx.RouterOptions(2);
  opts.server.queue.capacity = 1;
  ShardRouter router(&fx.net, gate.Wrap(fx.BaseModel()), opts);
  ASSERT_TRUE(router.Start().ok());
  // Destroyed before the router, so its workers never stay blocked.
  std::shared_ptr<void> release_on_exit(nullptr,
                                        [&](void*) { gate.Release(); });

  const int nodes = static_cast<int>(fx.net.NumNodes());
  const auto own0 = PairOwnedBy(router, 0, nodes);
  const auto own1 = PairOwnedBy(router, 1, nodes);
  gate.Block(&router, own0);
  ASSERT_TRUE(router.Submit(MakeQuery(own0.first, own0.second, 9 * 3600.0),
                            [](const RouteAnswer&) {})
                  .ok());
  EXPECT_TRUE(router.shard(0).QueueFull());
  EXPECT_FALSE(router.QueueFull());

  SocketServer server(&router);
  ASSERT_TRUE(server.Start().ok());
  NetClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port()).ok());
  WireRouteAnswer answer;
  ASSERT_TRUE(
      client.Query(MakeQuery(own1.first, own1.second), &answer).ok());
  EXPECT_EQ(answer.status_code, StatusCode::kOk);
  const auto from0 = ScatterSourcedOn(router, 0, nodes);
  ASSERT_TRUE(
      client.Query(MakeQuery(from0.first, from0.second), &answer).ok());
  EXPECT_EQ(answer.status_code, StatusCode::kResourceExhausted);
  EXPECT_EQ(server.Stats().shed_queue_full, 1u);
  EXPECT_EQ(router.ShardStats().router.scattered, 0u);

  const auto from1 = ScatterSourcedOn(router, 1, nodes);
  ASSERT_TRUE(
      client.Query(MakeQuery(from1.first, from1.second), &answer).ok());
  EXPECT_TRUE(answer.status_code == StatusCode::kOk ||
              answer.status_code == StatusCode::kUnavailable)
      << static_cast<int>(answer.status_code);
  EXPECT_EQ(server.Stats().shed_queue_full, 1u);
  const ShardRouterStats stats = router.ShardStats().router;
  EXPECT_EQ(stats.scattered, 1u);
  EXPECT_EQ(stats.partial_errors,
            answer.status_code == StatusCode::kUnavailable ? 1u : 0u);

  gate.Release();
  router.WaitIdle();
  client.Close();
  server.Stop();
  router.Stop();
}

// A cross-owner Submit only queues the scatter on its source owner: with
// that shard's worker held, Submit returns at once, nothing has been
// enumerated or probed, and the request waits in the owner's queue. Once
// released, the answer is bitwise the single-node one.
TEST(ShardRouterTest, ScatterEnumeratesOnTheSourceOwnersWorker) {
  ShardFixture fx;
  ModelGate gate;
  ShardRouter::Options opts = fx.RouterOptions(2);
  ShardRouter router(&fx.net, gate.Wrap(fx.BaseModel()), opts);
  ASSERT_TRUE(router.Start().ok());
  std::shared_ptr<void> release_on_exit(nullptr,
                                        [&](void*) { gate.Release(); });
  const int nodes = static_cast<int>(fx.net.NumNodes());
  const int source = 0;
  const auto cross = ScatterSourcedOn(router, source, nodes);
  const RouteQuery query = MakeQuery(cross.first, cross.second);

  gate.Block(&router, PairOwnedBy(router, source, nodes));
  RouteAnswer got;
  std::atomic<int> done{0};
  ASSERT_TRUE(router
                  .Submit(query,
                          [&](const RouteAnswer& answer) {
                            got = answer;
                            done.fetch_add(1);
                          })
                  .ok());
  EXPECT_EQ(router.ShardStats().router.probes_sent, 0u);
  EXPECT_EQ(router.shard(source).Stats().queue_depth, 1u);
  // Nothing was served while the source owner's worker is held: not the
  // blocked request, and not the enumeration queued behind it, on any
  // shard (an enumeration counts as a served request where it runs).
  for (int s = 0; s < router.num_shards(); ++s) {
    const ServeStatsSnapshot held = router.shard(s).Stats();
    EXPECT_EQ(held.completed + held.failed, 0u) << "shard " << s;
  }
  EXPECT_EQ(done.load(), 0);

  gate.Release();
  router.WaitIdle();
  ASSERT_EQ(done.load(), 1);
  EXPECT_GT(router.ShardStats().router.probes_sent, 0u);
  router.Stop();

  QueryServer single(&fx.net, fx.BaseModel(), opts.server);
  ASSERT_TRUE(single.Start().ok());
  RouteAnswer want;
  ASSERT_TRUE(
      single.Submit(query, [&](const RouteAnswer& answer) { want = answer; })
          .ok());
  single.WaitIdle();
  single.Stop();
  ASSERT_TRUE(want.status.ok()) << want.status.ToString();
  EXPECT_EQ(got.status.code(), want.status.code()) << got.status.ToString();
  EXPECT_EQ(got.route.nodes, want.route.nodes);
  EXPECT_EQ(got.route.edges, want.route.edges);
  EXPECT_EQ(got.cost_mean_seconds, want.cost_mean_seconds);
  EXPECT_EQ(got.on_time_probability, want.on_time_probability);
  EXPECT_EQ(got.num_candidates, want.num_candidates);
}

// The deadline is a time of day and a route's cost histogram is over
// travel time, so the on-time score is P(travel <= deadline - depart).
// Candidate 0 (fastest at free flow) is late 10% of the time; candidate 1
// is slower but always inside the budget, so it wins, on a single node and
// on a scatter alike. Scoring the absolute deadline read P = 1 for both
// and kept candidate 0.
TEST(ShardRouterTest, OnTimeScoreUsesTheTravelBudget) {
  ShardFixture fx;
  ShardRouter::Options opts = fx.RouterOptions(2);
  ShardRouter layout(&fx.net, fx.BaseModel(), opts);  // region owners only
  const auto cross = fx.CrossShardPair(layout);
  RouteQuery query = MakeQuery(cross.first, cross.second);
  query.k = 2;
  Result<std::vector<Path>> routes = KShortestPaths(
      fx.net, query.source, query.target, 2, FreeFlowTimeCost(fx.net));
  ASSERT_TRUE(routes.ok());
  ASSERT_EQ(routes->size(), 2u);
  const std::vector<int>& fast = (*routes)[0].edges;
  const std::vector<int>& safe = (*routes)[1].edges;
  int risky = -1;
  for (int e : fast) {
    if (std::find(safe.begin(), safe.end(), e) == safe.end()) risky = e;
  }
  ASSERT_GE(risky, 0);

  // Every segment costs its free-flow time; one holding `risky` is 3000 s
  // later with probability 0.1.
  const RoadNetwork* net = &fx.net;
  PathCostModel model = [net, risky](const std::vector<int>& edges,
                                     double) -> Result<Histogram> {
    double free_flow = 0.0;
    for (int e : edges) free_flow += net->FreeFlowTime(e);
    const bool late =
        std::find(edges.begin(), edges.end(), risky) != edges.end();
    Result<Histogram> h =
        Histogram::Create(free_flow - 1.0, free_flow + (late ? 3000.0 : 1.0),
                          late ? 32 : 2);
    if (!h.ok()) return h;
    h->Add(free_flow, late ? 0.9 : 1.0);
    if (late) h->Add(free_flow + 3000.0, 0.1);
    return h;
  };
  double budget = 0.0;
  for (int e : safe) budget += fx.net.FreeFlowTime(e);
  budget += 60.0;
  query.arrival_deadline_seconds = query.depart_seconds + budget;

  auto answer_of = [&query](QueryService* service) {
    RouteAnswer got;
    EXPECT_TRUE(
        service->Submit(query, [&](const RouteAnswer& a) { got = a; }).ok());
    service->WaitIdle();
    return got;
  };
  QueryServer single(&fx.net, model, opts.server);
  ASSERT_TRUE(single.Start().ok());
  const RouteAnswer want = answer_of(&single);
  single.Stop();
  ShardRouter router(&fx.net, model, opts);
  ASSERT_TRUE(router.Start().ok());
  const RouteAnswer got = answer_of(&router);
  EXPECT_EQ(router.ShardStats().router.scattered, 1u);
  router.Stop();

  ASSERT_TRUE(want.status.ok()) << want.status.ToString();
  EXPECT_EQ(want.num_candidates, 2);
  EXPECT_EQ(want.route.edges, safe);
  EXPECT_EQ(want.on_time_probability, 1.0);
  EXPECT_EQ(got.status.code(), want.status.code());
  EXPECT_EQ(got.route.edges, want.route.edges);
  EXPECT_EQ(got.cost_mean_seconds, want.cost_mean_seconds);
  EXPECT_EQ(got.on_time_probability, want.on_time_probability);
}

// Scatters enumerate in their source owner's route LRU, and the router's
// former LRU budget is split across the shards: with route_cache_entries 2
// on 2 shards each holds 3 route keys, so two cyclic passes over 3
// scatters sourced on one shard run Yen 3 times (2 entries: 6 times).
TEST(ShardRouterTest, FleetKeepsTheRoutersFormerRouteCapacity) {
  ShardFixture fx;
  ShardRouter::Options opts = fx.RouterOptions(2);
  opts.server.route_cache_entries = 2;
  TraceRecorder::Global().Clear();
  TraceRecorder::Global().Enable();
  {
    // Scoped: worker-side spans flush when the shards' pools wind down.
    ShardRouter router(&fx.net, fx.BaseModel(), opts);
    ASSERT_TRUE(router.Start().ok());
    const int nodes = static_cast<int>(fx.net.NumNodes());
    std::vector<RouteQuery> scan;
    for (int a = 0; a < nodes && scan.size() < 3; ++a) {
      for (int b = 0; b < nodes && scan.size() < 3; ++b) {
        if (router.OwnerOfNode(a) == 0 && router.OwnerOfNode(b) != 0) {
          scan.push_back(MakeQuery(a, b));
        }
      }
    }
    ASSERT_EQ(scan.size(), 3u);
    for (int pass = 0; pass < 2; ++pass) {
      for (const RouteQuery& q : scan) {
        ASSERT_TRUE(router.Submit(q, [](const RouteAnswer&) {}).ok());
        router.WaitIdle();
      }
    }
    EXPECT_EQ(router.ShardStats().router.scattered, 6u);
    router.Stop();
  }
  TraceRecorder::Global().Disable();
  size_t enumerations = 0;
  for (const TraceEvent& e : TraceRecorder::Global().Snapshot()) {
    if (e.name == "serve/enumerate_routes") ++enumerations;
  }
  EXPECT_EQ(enumerations, 3u);
}

// A scatter queued on its source owner when that shard stops is drained:
// the caller gets exactly one callback (the typed drain status) and the
// flight recorder exactly one completion for it.
TEST(ShardRouterTest, ScatterDrainedBySourceOwnerCompletesOnce) {
  ShardFixture fx;
  ModelGate gate;
  ShardRouter router(&fx.net, gate.Wrap(fx.BaseModel()),
                     fx.RouterOptions(2));
  ASSERT_TRUE(router.Start().ok());
  std::shared_ptr<void> release_on_exit(nullptr,
                                        [&](void*) { gate.Release(); });
  const int nodes = static_cast<int>(fx.net.NumNodes());
  const int source = 1;
  const auto cross = ScatterSourcedOn(router, source, nodes);
  FlightRecorder& fr = FlightRecorder::Global();
  fr.Configure(FlightRecorder::Options{});
  fr.Enable();

  gate.Block(&router, PairOwnedBy(router, source, nodes));
  constexpr uint64_t kClientId = 4242;
  SubmitOptions submit;
  submit.client_request_id = kClientId;
  std::atomic<int> callbacks{0};
  StatusCode code = StatusCode::kOk;
  ASSERT_TRUE(router
                  .Submit(MakeQuery(cross.first, cross.second),
                          [&](const RouteAnswer& answer) {
                            code = answer.status.code();
                            callbacks.fetch_add(1);
                          },
                          submit)
                  .ok());
  // StopShard closes the queue (draining the scatter), then waits for the
  // held worker, so it runs beside the release.
  std::thread stopper([&] { EXPECT_TRUE(router.StopShard(source).ok()); });
  for (int i = 0; i < 5000 && callbacks.load() == 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  gate.Release();
  stopper.join();
  router.WaitIdle();
  router.Stop();

  EXPECT_EQ(callbacks.load(), 1);
  EXPECT_EQ(code, StatusCode::kFailedPrecondition);
  const FlightStatsSnapshot stats = fr.Stats();
  int scatter_records = 0;
  for (const FlightRecord& rec : fr.Retained(stats.retained_records)) {
    if (rec.client_request_id == kClientId) ++scatter_records;
  }
  fr.Disable();
  fr.Configure(FlightRecorder::Options{});
  EXPECT_EQ(scatter_records, 1);
  // The held forwarded query plus the scatter; the drained enumeration
  // request is a sub-operation and completes nothing itself.
  EXPECT_EQ(stats.observed, 2u);
  EXPECT_EQ(router.ShardStats().router.enumeration_failures, 1u);
}

}  // namespace
}  // namespace tsdm
