// End-to-end forensics surface: GET /debug/traces must serve the flight
// recorder's retained traces byte-compatibly with the TraceRecorder's own
// Chrome-trace exporter; GET /debug/flight must serve exactly one black-box
// dump per forced degradation; hostile query strings must answer typed 400s
// and never crash the front door.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "src/common/rng.h"
#include "src/governance/uncertainty/travel_cost_models.h"
#include "src/net/net_client.h"
#include "src/net/socket_server.h"
#include "src/net/wire.h"
#include "src/obs/flight_recorder.h"
#include "src/obs/health.h"
#include "src/obs/trace.h"
#include "src/serve/query_server.h"
#include "src/shard/shard_router.h"
#include "src/sim/road_gen.h"
#include "src/sim/traffic_sim.h"

namespace tsdm {
namespace {

constexpr char kLoopback[] = "127.0.0.1";

/// Same trained-grid fixture as net_test.cc.
struct DebugFixture {
  GridNetworkSpec spec;
  RoadNetwork net;
  EdgeCentricModel model;

  DebugFixture() : spec(MakeSpec()), net(MakeNet(spec)), model(0) {
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
    spec.rows = 5;
    spec.cols = 5;
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

  RouteQuery Query(int i = 0) const {
    RouteQuery q;
    q.source = GridNodeId(spec, 0, 0);
    q.target = GridNodeId(spec, 4, (i % 2) ? 4 : 3);
    q.k = 3;
    q.depart_seconds = 8 * 3600.0;
    q.arrival_deadline_seconds = q.depart_seconds + 1200.0;
    return q;
  }
};

/// Both process-global recorders reset around each test.
class DebugEndpointTest : public ::testing::Test {
 protected:
  void SetUp() override {
    TraceRecorder::Global().SetCapacity(1 << 16);
    TraceRecorder::Global().Clear();
    TraceRecorder::Global().Enable();
    FlightRecorder::Global().Disable();
    FlightRecorder::Global().Configure(FlightRecorder::Options{});
  }
  void TearDown() override {
    TraceRecorder::Global().Disable();
    TraceRecorder::Global().Clear();
    FlightRecorder::Global().Disable();
    FlightRecorder::Global().Configure(FlightRecorder::Options{});
  }
};

// The tentpole acceptance: an over-SLO request served by a real QueryServer
// is retroactively retained, and GET /debug/traces serves it byte-identical
// to the TraceRecorder's direct Chrome-trace export — same events, same
// deterministic order, same serializer.
TEST_F(DebugEndpointTest, DebugTracesMatchesTraceRecorderExportByteForByte) {
  DebugFixture fx;
  FlightRecorder::Options fopts;
  fopts.slo_threshold_seconds = 1e-9;  // every request breaches: tail mode
  FlightRecorder::Global().Configure(fopts);
  FlightRecorder::Global().Enable();

  std::atomic<int> answered{0};
  {
    QueryServer::Options sopts;
    sopts.initial_workers = 1;
    sopts.autoscale_enabled = false;
    QueryServer serve(&fx.net, fx.BaseModel(), sopts);
    ASSERT_TRUE(serve.Start().ok());
    ASSERT_TRUE(serve
                    .Submit(fx.Query(0),
                            [&](const RouteAnswer& a) {
                              EXPECT_TRUE(a.status.ok());
                              answered.fetch_add(1);
                            })
                    .ok());
    serve.WaitIdle();
    // The server (and its worker threads, whose trace buffers flush into
    // the global ring on thread exit) destructs here, so the recorder-side
    // export below sees the full span set. The flight recorder needs no
    // such flush — its tap captures spans at close time.
  }
  ASSERT_EQ(answered.load(), 1);
  ASSERT_EQ(TraceRecorder::Global().dropped(), 0u);

  FlightStatsSnapshot fs = FlightRecorder::Global().Stats();
  EXPECT_EQ(fs.observed, 1u);
  EXPECT_EQ(fs.retained_slo, 1u);
  EXPECT_EQ(fs.retained_records, 1u);

  // The debug endpoints read the process-global recorders, so they work
  // even on a front door with no serve layer behind it.
  SocketServer server(nullptr);
  ASSERT_TRUE(server.Start().ok());
  NetClient::HttpResponse res;
  ASSERT_TRUE(NetClient::HttpGet(kLoopback, server.port(), "/debug/traces?n=8",
                                 &res)
                  .ok());
  EXPECT_EQ(res.status_code, 200);
  for (const auto& h : res.headers) {
    if (h.first == "content-type") {
      EXPECT_EQ(h.second, "application/json");
    }
  }

  // One request in flight, one request retained: the wire body, the flight
  // recorder's export, and the trace recorder's export restricted to
  // request-linked spans (the flight recorder ignores request-less spans
  // like the worker's batch span by design) are the same event set through
  // the same serializer — byte-identical documents.
  EXPECT_EQ(res.body, FlightRecorder::Global().ToChromeTraceJson(8));
  std::vector<TraceEvent> linked;
  for (const TraceEvent& ev : TraceRecorder::Global().Snapshot()) {
    if (ev.request_id != 0) linked.push_back(ev);
  }
  EXPECT_EQ(res.body, ChromeTraceJsonFromEvents(std::move(linked)));
  EXPECT_NE(res.body.find("serve/submit"), std::string::npos);
  EXPECT_NE(res.body.find("serve/exec"), std::string::npos);
  EXPECT_NE(res.body.find("\"req\":"), std::string::npos);

  // Default n: omitted query string serves up to 32 traces.
  NetClient::HttpResponse dflt;
  ASSERT_TRUE(
      NetClient::HttpGet(kLoopback, server.port(), "/debug/traces", &dflt)
          .ok());
  EXPECT_EQ(dflt.status_code, 200);
  EXPECT_EQ(dflt.body, res.body);

  NetStatsSnapshot ns = server.Stats();
  EXPECT_EQ(ns.http_debug_traces, 2u);
  server.Stop();
}

// The span that closes last — the socket layer's net/request root, recorded
// after the serve completion — must still land on the retained record, so
// a wire query's whole tree survives in GET /debug/traces.
TEST_F(DebugEndpointTest, WireQueryWholeTreeSurvivesInDebugTraces) {
  DebugFixture fx;
  FlightRecorder::Options fopts;
  fopts.slo_threshold_seconds = 1e-9;  // every request breaches: tail mode
  FlightRecorder::Global().Configure(fopts);
  FlightRecorder::Global().Enable();

  std::string body;
  {
    QueryServer::Options sopts;
    sopts.initial_workers = 1;
    sopts.autoscale_enabled = false;
    QueryServer serve(&fx.net, fx.BaseModel(), sopts);
    ASSERT_TRUE(serve.Start().ok());
    SocketServer server(&serve);
    ASSERT_TRUE(server.Start().ok());

    NetClient client;
    ASSERT_TRUE(client.Connect(kLoopback, server.port()).ok());
    WireRouteAnswer answer;
    ASSERT_TRUE(client.Query(fx.Query(0), &answer).ok());
    EXPECT_EQ(answer.status_code, StatusCode::kOk);

    // The client can read its answer before the event loop records the
    // root span right after writing it: poll until the root has landed.
    for (int attempt = 0; attempt < 500; ++attempt) {
      NetClient::HttpResponse res;
      ASSERT_TRUE(NetClient::HttpGet(kLoopback, server.port(),
                                     "/debug/traces", &res)
                      .ok());
      ASSERT_EQ(res.status_code, 200);
      body = res.body;
      if (body.find("\"net/request\"") != std::string::npos) break;
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    client.Close();
    server.Stop();  // loop and worker threads exit -> their buffers flush
    serve.Stop();
  }
  ASSERT_EQ(TraceRecorder::Global().dropped(), 0u);

  for (const char* name : {"\"net/request\"", "\"net/read\"",
                           "\"serve/exec\"", "\"net/write\""}) {
    EXPECT_NE(body.find(name), std::string::npos) << name;
  }
  FlightStatsSnapshot fs = FlightRecorder::Global().Stats();
  EXPECT_EQ(fs.observed, 1u);
  EXPECT_EQ(fs.retained_records, 1u);

  // The retained tree is exactly the TraceRecorder's request-linked spans.
  std::vector<TraceEvent> linked;
  for (const TraceEvent& ev : TraceRecorder::Global().Snapshot()) {
    if (ev.request_id != 0) linked.push_back(ev);
  }
  EXPECT_EQ(body, ChromeTraceJsonFromEvents(std::move(linked)));
}

TEST_F(DebugEndpointTest, HostileQueryStringsAnswerTyped400AndNeverCrash) {
  DebugFixture fx;
  QueryServer::Options sopts;
  sopts.autoscale_enabled = false;
  QueryServer serve(&fx.net, fx.BaseModel(), sopts);
  ASSERT_TRUE(serve.Start().ok());
  SocketServer server(&serve);
  ASSERT_TRUE(server.Start().ok());

  const std::vector<std::pair<std::string, std::string>> bad = {
      {"/debug/traces?n=", "missing value"},
      {"/debug/traces?n", "missing value, no '='"},
      {"/debug/traces?n=abc", "non-numeric"},
      {"/debug/traces?n=5x", "trailing junk"},
      {"/debug/traces?n=-1", "negative"},
      {"/debug/traces?n=18446744073709551616", "uint64 overflow"},
      {"/debug/traces?n=0", "below range"},
      {"/debug/traces?n=99999", "above kMaxDebugTraces"},
      {"/debug/traces?" + std::string(300, 'a'), "oversized query string"},
  };
  for (const auto& [target, why] : bad) {
    SCOPED_TRACE(why);
    NetClient::HttpResponse res;
    ASSERT_TRUE(NetClient::HttpGet(kLoopback, server.port(), target, &res)
                    .ok());
    EXPECT_EQ(res.status_code, 400);
  }
  EXPECT_EQ(server.Stats().http_bad_request, bad.size());
  EXPECT_EQ(server.Stats().http_debug_traces, 0u);

  // Method and absence errors are typed too.
  NetClient::HttpResponse res;
  ASSERT_TRUE(NetClient::HttpPost(kLoopback, server.port(), "/debug/traces",
                                  "application/json", "{}", &res)
                  .ok());
  EXPECT_EQ(res.status_code, 405);
  ASSERT_TRUE(
      NetClient::HttpGet(kLoopback, server.port(), "/debug/flight", &res)
          .ok());
  EXPECT_EQ(res.status_code, 404);  // no dump frozen yet

  // A query string on a non-debug endpoint routes by path, not raw target.
  ASSERT_TRUE(
      NetClient::HttpGet(kLoopback, server.port(), "/metrics?x=1", &res).ok());
  EXPECT_EQ(res.status_code, 200);

  // The front door survived all of it.
  ASSERT_TRUE(NetClient::HttpGet(kLoopback, server.port(), "/health", &res)
                  .ok());
  EXPECT_EQ(res.status_code, 200);
  server.Stop();
  serve.Stop();
}

// A forced health degradation must freeze exactly one black-box dump —
// retrievable over the wire — and the transition ring must show when the
// degradation started.
TEST_F(DebugEndpointTest, ForcedDegradationFreezesExactlyOneDump) {
  FlightRecorder::Options fopts;
  fopts.slo_threshold_seconds = 0.0;  // retain everything
  FlightRecorder::Global().Configure(fopts);
  FlightRecorder::Global().Enable();
  FlightRecorder& fr = FlightRecorder::Global();

  // Scripted serve stats: steady, then an SLO-burning incident.
  ServeStatsSnapshot snap;
  Rng rng(3);
  auto advance = [&](int requests, double latency_seconds) {
    snap.submitted += static_cast<uint64_t>(requests);
    snap.admitted += static_cast<uint64_t>(requests);
    for (int i = 0; i < requests; ++i) {
      const double l = latency_seconds * rng.Uniform(0.9, 1.1);
      snap.e2e_latency.Add(l);
      snap.stage_queue.Add(l * 0.2);
      snap.stage_exec.Add(l * 0.8);
      ++snap.completed;
    }
    snap.cache_hits += static_cast<uint64_t>(requests * 4);
  };

  // Tail evidence the dump should carry.
  RouteAnswer failed;
  failed.status = Status::Internal("incident evidence");
  failed.service_seconds = 0.3;
  fr.OnComplete(0, -1, failed);

  HealthMonitor::Options hopts;
  hopts.warmup_samples = 10;
  hopts.slo_p95_objective_seconds = 0.05;
  hopts.slo_error_budget = 0.05;
  HealthMonitor monitor([&snap] { return snap; }, hopts);
  for (int round = 0; round < 40; ++round) {
    advance(100, 0.010);
    monitor.SampleOnce();
  }
  ASSERT_EQ(monitor.Snapshot().state, HealthState::kHealthy);
  ASSERT_EQ(fr.Stats().dumps, 0u);

  // The incident: every request 10x over the objective, sustained. The
  // worsening transition fires once; staying unhealthy must not re-dump.
  for (int round = 0; round < 6; ++round) {
    advance(100, 0.5);
    monitor.SampleOnce();
  }
  HealthSnapshot unhealthy = monitor.Snapshot();
  EXPECT_NE(unhealthy.state, HealthState::kHealthy);
  EXPECT_EQ(fr.Stats().dumps, 1u);

  // The transition ring shows when the degradation started.
  ASSERT_EQ(unhealthy.transitions_total, 1u);
  ASSERT_EQ(unhealthy.transitions.size(), 1u);
  EXPECT_EQ(unhealthy.transitions[0].from, HealthState::kHealthy);
  EXPECT_EQ(unhealthy.transitions[0].to, unhealthy.state);
  EXPECT_EQ(unhealthy.transitions[0].sample, 41u);
  EXPECT_GT(unhealthy.transitions[0].burn_rate, 1.0);

  // The dump is the full artifact: trigger, health, serve delta, traces.
  std::string dump = fr.LatestDumpJson();
  EXPECT_NE(dump.find("\"kind\":\"flight_dump\""), std::string::npos);
  EXPECT_NE(dump.find("\"from\":\"healthy\""), std::string::npos);
  EXPECT_NE(dump.find("incident evidence"), std::string::npos);

  // Served over the wire, verbatim.
  DebugFixture fx;
  QueryServer::Options sopts;
  sopts.autoscale_enabled = false;
  QueryServer serve(&fx.net, fx.BaseModel(), sopts);
  ASSERT_TRUE(serve.Start().ok());
  SocketServer server(&serve);
  ASSERT_TRUE(server.Start().ok());
  NetClient::HttpResponse res;
  ASSERT_TRUE(
      NetClient::HttpGet(kLoopback, server.port(), "/debug/flight", &res)
          .ok());
  EXPECT_EQ(res.status_code, 200);
  EXPECT_EQ(res.body, dump);
  EXPECT_EQ(server.Stats().http_debug_flight, 1u);
  server.Stop();
  serve.Stop();

  // Recovery is a transition (ring + counter) but never a dump.
  for (int round = 0; round < 30; ++round) {
    advance(100, 0.010);
    monitor.SampleOnce();
  }
  HealthSnapshot recovered = monitor.Snapshot();
  EXPECT_EQ(recovered.state, HealthState::kHealthy);
  EXPECT_GE(recovered.transitions_total, 2u);
  EXPECT_EQ(recovered.transitions.back().to, HealthState::kHealthy);
  EXPECT_EQ(fr.Stats().dumps, 1u);
}

/// One query per socket-layer shed that happens before Submit, answered
/// on the loop thread: no backend, the admission deadline, the QueueFull
/// probe, and a decode or bounds error. Returns each one's typed status.
std::vector<Status> ShedOnePerReason(const DebugFixture& fx) {
  std::vector<Status> sheds;
  auto query_once = [&fx](SocketServer* server, const RouteQuery& q) {
    NetClient client;
    WireRouteAnswer answer;
    EXPECT_TRUE(client.Connect(kLoopback, server->port()).ok());
    EXPECT_TRUE(client.Query(q, &answer).ok());
    return answer.status_code;
  };
  {
    SocketServer server(nullptr);
    EXPECT_TRUE(server.Start().ok());
    EXPECT_EQ(query_once(&server, fx.Query()),
              StatusCode::kFailedPrecondition);
    server.Stop();
    sheds.push_back(Status::FailedPrecondition("net: no serve backend"));
  }
  {
    QueryServer::Options sopts;
    sopts.autoscale_enabled = false;
    QueryServer serve(&fx.net, fx.BaseModel(), sopts);
    EXPECT_TRUE(serve.Start().ok());
    SocketServer::Options nopts;
    nopts.admission_deadline_seconds = 0.05;
    SocketServer server(&serve, nopts);
    EXPECT_TRUE(server.Start().ok());
    // A frame whose last byte lands after the admission deadline.
    NetClient client;
    EXPECT_TRUE(client.Connect(kLoopback, server.port()).ok());
    std::vector<uint8_t> payload;
    EncodeRouteQueryPayload(fx.Query(), &payload);
    std::vector<uint8_t> frame;
    EncodeNetFrame(1, NetOpcode::kRouteQuery, payload.data(), payload.size(),
                   &frame);
    EXPECT_TRUE(client.SendRaw(frame.data(), 10).ok());
    std::this_thread::sleep_for(std::chrono::milliseconds(200));
    EXPECT_TRUE(client.SendRaw(frame.data() + 10, frame.size() - 10).ok());
    uint64_t id = 0;
    WireRouteAnswer answer;
    EXPECT_TRUE(client.ReceiveAnswer(&id, &answer).ok());
    EXPECT_EQ(answer.status_code, StatusCode::kResourceExhausted);
    sheds.push_back(Status::ResourceExhausted(
        "net: admission deadline exceeded before parse"));
    // A prompt query that fails the bounds check after decode.
    RouteQuery bad = fx.Query();
    bad.k = 0;
    EXPECT_EQ(query_once(&server, bad), StatusCode::kInvalidArgument);
    sheds.push_back(Status::InvalidArgument(
        "net: k is 0, want [1, " + std::to_string(kMaxQueryK) + "]"));
    client.Close();
    server.Stop();
    serve.Stop();
  }
  {
    // An unstarted server with one queued request of capacity 1: the
    // QueueFull probe sheds before decode.
    QueryServer::Options sopts;
    sopts.autoscale_enabled = false;
    sopts.queue.capacity = 1;
    QueryServer serve(&fx.net, fx.BaseModel(), sopts);
    EXPECT_TRUE(serve.Submit(fx.Query(), [](const RouteAnswer&) {}).ok());
    SocketServer server(&serve);
    EXPECT_TRUE(server.Start().ok());
    EXPECT_EQ(query_once(&server, fx.Query()), StatusCode::kResourceExhausted);
    server.Stop();
    serve.Stop();
    sheds.push_back(Status::ResourceExhausted("net: serve queue full"));
  }
  return sheds;
}

// The socket layer's own sheds complete in the flight recorder: each one
// is in the dump GET /debug/flight serves, at shard -1 with its typed
// status, carrying its net/read span when tracing is on and request id 0
// when it is off.
TEST_F(DebugEndpointTest, SocketShedsBeforeSubmitAreInTheFlightDump) {
  const DebugFixture fx;
  for (const bool traced : {true, false}) {
    SCOPED_TRACE(traced ? "traced" : "untraced");
    FlightRecorder& fr = FlightRecorder::Global();
    fr.Disable();
    fr.Configure(FlightRecorder::Options{});  // retains every shed and error
    fr.Enable();
    if (traced) {
      TraceRecorder::Global().Enable();
    } else {
      TraceRecorder::Global().Disable();
    }
    const std::vector<Status> sheds = ShedOnePerReason(fx);

    HealthTransition worse;
    worse.from = HealthState::kHealthy;
    worse.to = HealthState::kUnhealthy;
    fr.OnHealthTransition(worse, HealthSnapshot(), ServeStatsSnapshot(),
                          ServeStatsSnapshot());
    SocketServer server(nullptr);
    ASSERT_TRUE(server.Start().ok());
    NetClient::HttpResponse res;
    ASSERT_TRUE(
        NetClient::HttpGet(kLoopback, server.port(), "/debug/flight", &res)
            .ok());
    server.Stop();
    ASSERT_EQ(res.status_code, 200);
    for (const Status& want : sheds) {
      const size_t at = res.body.find("\"status_message\":\"" +
                                      want.message() + "\"");
      ASSERT_NE(at, std::string::npos) << want.ToString();
      const size_t begin = res.body.rfind("{\"request_id\":", at);
      const size_t end = res.body.find("\"spans\":[", at);
      ASSERT_NE(begin, std::string::npos);
      const std::string record = res.body.substr(begin, end - begin);
      const std::string code =
          std::to_string(static_cast<int>(want.code()));
      EXPECT_NE(record.find("\"shard\":-1,"), std::string::npos) << record;
      EXPECT_NE(record.find("\"status_code\":" + code + ","),
                std::string::npos)
          << record;
      EXPECT_EQ(record.rfind("{\"request_id\":0,", 0) == 0, !traced)
          << record;
      const size_t spans_end = res.body.find("]}", end);
      EXPECT_EQ(res.body.substr(end, spans_end - end)
                        .find("\"name\":\"net/read\"") != std::string::npos,
                traced)
          << record;
    }
  }
}

// Every front door roots its trees under one process-wide request-id
// allocator. Two QueryServers and a 2-shard ShardRouter in one process
// answer one query each with every completion retained: three records under
// three distinct request ids, each holding exactly its own request's span
// tree — one root, and every parent span inside the same record.
TEST_F(DebugEndpointTest, FrontDoorsInOneProcessNeverShareARequestId) {
  const DebugFixture fx;
  FlightRecorder::Options fopts;
  fopts.slo_threshold_seconds = 0;  // retain every completion
  FlightRecorder::Global().Configure(fopts);
  FlightRecorder::Global().Enable();

  QueryServer::Options sopts;
  sopts.initial_workers = 1;
  sopts.autoscale_enabled = false;
  ShardRouter::Options ropts;
  ropts.map.num_shards = 2;
  ropts.server = sopts;
  std::atomic<int> answered{0};
  auto count_ok = [&answered](const RouteAnswer& a) {
    EXPECT_TRUE(a.status.ok()) << a.status.ToString();
    answered.fetch_add(1);
  };
  {
    QueryServer first(&fx.net, fx.BaseModel(), sopts);
    QueryServer second(&fx.net, fx.BaseModel(), sopts);
    ShardRouter router(&fx.net, fx.BaseModel(), ropts);
    ASSERT_TRUE(first.Start().ok());
    ASSERT_TRUE(second.Start().ok());
    ASSERT_TRUE(router.Start().ok());
    ASSERT_TRUE(first.Submit(fx.Query(0), count_ok).ok());
    first.WaitIdle();
    ASSERT_TRUE(second.Submit(fx.Query(1), count_ok).ok());
    second.WaitIdle();
    ASSERT_TRUE(router.Submit(fx.Query(0), count_ok).ok());
    router.WaitIdle();
  }
  ASSERT_EQ(answered.load(), 3);

  FlightStatsSnapshot fs = FlightRecorder::Global().Stats();
  EXPECT_EQ(fs.observed, 3u);
  EXPECT_EQ(fs.discarded, 0u);
  const std::vector<FlightRecord> records = FlightRecorder::Global().Retained(8);
  ASSERT_EQ(records.size(), 3u);
  std::set<uint64_t> request_ids;
  for (const FlightRecord& rec : records) {
    SCOPED_TRACE("request " + std::to_string(rec.request_id));
    EXPECT_NE(rec.request_id, 0u);
    request_ids.insert(rec.request_id);
    std::set<uint64_t> span_ids;
    int roots = 0;
    for (const TraceEvent& ev : rec.spans) {
      EXPECT_EQ(ev.request_id, rec.request_id) << ev.name;
      span_ids.insert(ev.span_id);
      if (ev.parent_span_id == 0) ++roots;
    }
    EXPECT_EQ(roots, 1);
    for (const TraceEvent& ev : rec.spans) {
      if (ev.parent_span_id != 0) {
        EXPECT_EQ(span_ids.count(ev.parent_span_id), 1u) << ev.name;
      }
    }
  }
  EXPECT_EQ(request_ids.size(), 3u);
}

}  // namespace
}  // namespace tsdm
