// Loopback end-to-end tests for the network front door: binary protocol
// correctness (pipelining, request-id echo, the extended tenant/priority
// query form and its malformed variants), HTTP endpoints (/metrics
// equivalence with the in-process export, /health, POST /query and its
// error statuses), typed socket-layer sheds that happen before payload
// deserialization, hostile-byte resynchronization on a live connection,
// trace-span linkage across net and serve, and concurrent clients (the
// TSan target).

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <sys/time.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "src/common/rng.h"
#include "src/governance/uncertainty/travel_cost_models.h"
#include "src/net/net_client.h"
#include "src/net/socket_server.h"
#include "src/obs/metrics_export.h"
#include "src/obs/trace.h"
#include "src/serve/query_server.h"
#include "src/shard/shard_router.h"
#include "src/sim/road_gen.h"
#include "src/sim/traffic_sim.h"

namespace tsdm {
namespace {

constexpr char kLoopback[] = "127.0.0.1";

/// Same trained-grid fixture as serve_test.cc: a 5x5 grid with an
/// edge-centric cost model trained on every edge, so any route query
/// between grid nodes has coverage.
struct NetFixture {
  GridNetworkSpec spec;
  RoadNetwork net;
  EdgeCentricModel model;

  NetFixture() : spec(MakeSpec()), net(MakeNet(spec)), model(0) {
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

/// A raw loopback connection whose reads give up after `timeout_seconds`:
/// the watchdog for requests that must be answered promptly, so a request
/// that pins a worker fails the test instead of hanging it.
class TimedConnection {
 public:
  TimedConnection(uint16_t port, int timeout_seconds)
      : fd_(::socket(AF_INET, SOCK_STREAM, 0)) {
    timeval tv{timeout_seconds, 0};
    ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(port);
    connected_ = ::connect(fd_, reinterpret_cast<sockaddr*>(&addr),
                           sizeof(addr)) == 0;
  }
  ~TimedConnection() { ::close(fd_); }

  bool connected() const { return connected_; }
  bool Send(const std::string& bytes) {
    return ::send(fd_, bytes.data(), bytes.size(), MSG_NOSIGNAL) ==
           static_cast<ssize_t>(bytes.size());
  }
  bool SendQuery(uint64_t id, const RouteQuery& query) {
    std::vector<uint8_t> payload;
    EncodeRouteQueryPayload(query, &payload);
    std::vector<uint8_t> frame;
    EncodeNetFrame(id, NetOpcode::kRouteQuery, payload.data(), payload.size(),
                   &frame);
    return Send(std::string(frame.begin(), frame.end()));
  }
  /// The next wire frame; false on timeout or close.
  bool ReceiveFrame(NetFrame* out) {
    while (frames_.empty()) {
      uint8_t buf[4096];
      const ssize_t n = ::recv(fd_, buf, sizeof(buf), 0);
      if (n <= 0) return false;
      parser_.Consume(buf, static_cast<size_t>(n), &frames_);
    }
    *out = std::move(frames_.front());
    frames_.erase(frames_.begin());
    return true;
  }
  /// Everything until the server closes the connection or the timeout.
  std::string ReceiveAll() {
    std::string all;
    char buf[4096];
    ssize_t n;
    while ((n = ::recv(fd_, buf, sizeof(buf), 0)) > 0) {
      all.append(buf, static_cast<size_t>(n));
    }
    return all;
  }

 private:
  int fd_;
  bool connected_ = false;
  FrameParser parser_;
  std::vector<NetFrame> frames_;
};

std::string HttpQueryRequest(const std::string& body) {
  return "POST /query HTTP/1.1\r\nHost: x\r\nContent-Type: "
         "application/json\r\nContent-Length: " +
         std::to_string(body.size()) + "\r\nConnection: close\r\n\r\n" +
         body;
}

/// POSTs `body` to /query under a 10 s watchdog; the HTTP status, or 0 when
/// no answer came in time.
int TimedHttpQuery(uint16_t port, const std::string& body) {
  TimedConnection conn(port, 10);
  if (!conn.connected() || !conn.Send(HttpQueryRequest(body))) return 0;
  const std::string response = conn.ReceiveAll();
  return response.rfind("HTTP/1.1 ", 0) == 0 ? std::atoi(response.c_str() + 9)
                                             : 0;
}

std::string QueryBody(const RouteQuery& q, const std::string& extra = "") {
  return "{\"source\": " + std::to_string(q.source) +
         ", \"target\": " + std::to_string(q.target) + ", \"k\": " +
         std::to_string(q.k) + ", \"depart_seconds\": 28800.0" + extra + "}";
}

/// The shed counters by reason: conn_cap, queue_full, deadline,
/// unavailable, closed. Each per-reason case asserts the whole vector, so
/// a shed counted under the wrong reason fails it.
std::vector<uint64_t> Sheds(const NetStatsSnapshot& s) {
  return {s.shed_conn_cap, s.shed_queue_full, s.shed_deadline,
          s.shed_unavailable, s.shed_closed};
}
using ShedVector = std::vector<uint64_t>;

TEST(SocketServerTest, BinaryLoopbackAnswersQueriesAndPings) {
  NetFixture fx;
  QueryServer::Options sopts;
  sopts.autoscale_enabled = false;
  QueryServer serve(&fx.net, fx.BaseModel(), sopts);
  ASSERT_TRUE(serve.Start().ok());

  SocketServer server(&serve);
  ASSERT_TRUE(server.Start().ok());
  EXPECT_FALSE(server.Start().ok());  // double start rejected
  ASSERT_GT(server.port(), 0);

  NetClient client;
  ASSERT_TRUE(client.Connect(kLoopback, server.port()).ok());
  ASSERT_TRUE(client.Ping().ok());

  const int kQueries = 20;
  for (int i = 0; i < kQueries; ++i) {
    WireRouteAnswer answer;
    Status s = client.Query(fx.Query(i), &answer);
    ASSERT_TRUE(s.ok()) << s.ToString();
    EXPECT_EQ(answer.status_code, StatusCode::kOk);
    EXPECT_FALSE(answer.edges.empty());
    EXPECT_GT(answer.cost_mean_seconds, 0.0);
    EXPECT_GE(answer.on_time_probability, 0.0);
    EXPECT_LE(answer.on_time_probability, 1.0);
    EXPECT_GT(answer.num_candidates, 0);
  }

  // The wire answer must agree with the same query served in-process.
  WireRouteAnswer wire;
  ASSERT_TRUE(client.Query(fx.Query(0), &wire).ok());
  RouteAnswer local;
  std::atomic<bool> done{false};
  ASSERT_TRUE(serve
                  .Submit(fx.Query(0),
                          [&](const RouteAnswer& a) {
                            local = a;
                            done.store(true);
                          })
                  .ok());
  serve.WaitIdle();
  ASSERT_TRUE(done.load());
  ASSERT_TRUE(local.status.ok());
  EXPECT_EQ(wire.edges.size(), local.route.edges.size());
  for (size_t i = 0; i < wire.edges.size(); ++i) {
    EXPECT_EQ(static_cast<int>(wire.edges[i]), local.route.edges[i]);
  }
  EXPECT_DOUBLE_EQ(wire.cost_mean_seconds, local.cost_mean_seconds);

  NetStatsSnapshot stats = server.Stats();
  EXPECT_EQ(stats.pings, 1u);
  EXPECT_EQ(stats.queries_answered, static_cast<uint64_t>(kQueries) + 1);
  EXPECT_EQ(stats.queries_failed, 0u);
  EXPECT_EQ(stats.frames.frames_accepted, static_cast<uint64_t>(kQueries) + 2);
  EXPECT_EQ(stats.frames.RejectedTotal(), 0u);
  EXPECT_EQ(stats.ShedTotal(), 0u);
  EXPECT_EQ(stats.connections_accepted, 1u);
  EXPECT_EQ(stats.connections_active, 1u);
  EXPECT_GT(stats.bytes_read, 0u);
  EXPECT_GT(stats.bytes_written, 0u);
  EXPECT_EQ(stats.wire_latency.count(), static_cast<uint64_t>(kQueries) + 1);

  client.Close();
  server.Stop();
  server.Stop();  // idempotent
  serve.Stop();
  EXPECT_EQ(server.Stats().connections_active, 0u);
}

TEST(SocketServerTest, PipelinedQueriesMatchAnswersById) {
  NetFixture fx;
  QueryServer::Options sopts;
  sopts.autoscale_enabled = false;
  QueryServer serve(&fx.net, fx.BaseModel(), sopts);
  ASSERT_TRUE(serve.Start().ok());
  SocketServer server(&serve);
  ASSERT_TRUE(server.Start().ok());

  NetClient client;
  ASSERT_TRUE(client.Connect(kLoopback, server.port()).ok());

  // Fire a burst without reading, then collect: every request id must be
  // answered exactly once (order on the wire may interleave with serve
  // completion order).
  const int kBurst = 16;
  std::vector<uint64_t> sent;
  for (int i = 0; i < kBurst; ++i) {
    uint64_t id = 0;
    ASSERT_TRUE(client.SendQuery(fx.Query(i), &id).ok());
    sent.push_back(id);
  }
  std::vector<uint64_t> got;
  for (int i = 0; i < kBurst; ++i) {
    uint64_t id = 0;
    WireRouteAnswer answer;
    ASSERT_TRUE(client.ReceiveAnswer(&id, &answer).ok());
    EXPECT_EQ(answer.status_code, StatusCode::kOk);
    got.push_back(id);
  }
  std::sort(got.begin(), got.end());
  EXPECT_EQ(got, sent);  // ids were issued in increasing order

  client.Close();
  server.Stop();
  serve.Stop();
}

TEST(SocketServerTest, HttpMetricsMatchesInProcessExport) {
  NetFixture fx;
  QueryServer::Options sopts;
  sopts.autoscale_enabled = false;
  QueryServer serve(&fx.net, fx.BaseModel(), sopts);
  ASSERT_TRUE(serve.Start().ok());
  SocketServer server(&serve);
  ASSERT_TRUE(server.Start().ok());

  // Drive some traffic so the exported counters are non-trivial.
  NetClient client;
  ASSERT_TRUE(client.Connect(kLoopback, server.port()).ok());
  ASSERT_TRUE(client.Ping().ok());
  for (int i = 0; i < 5; ++i) {
    WireRouteAnswer answer;
    ASSERT_TRUE(client.Query(fx.Query(i), &answer).ok());
  }
  serve.WaitIdle();

  NetClient::HttpResponse res;
  ASSERT_TRUE(
      NetClient::HttpGet(kLoopback, server.port(), "/metrics", &res).ok());
  EXPECT_EQ(res.status_code, 200);
  bool typed = false;
  for (const auto& h : res.headers) {
    if (h.first == "content-type") {
      EXPECT_EQ(h.second, "text/plain; version=0.0.4");
      typed = true;
    }
  }
  EXPECT_TRUE(typed);

  // The scraped document is the source-registry aggregate: both live
  // subsystems present, in registration order.
  const size_t net_at = res.body.find("# SOURCE net\n");
  const size_t serve_at = res.body.find("# SOURCE serve\n");
  const size_t trace_at = res.body.find("# SOURCE trace\n");
  const size_t flight_at = res.body.find("# SOURCE flight\n");
  ASSERT_NE(net_at, std::string::npos);
  ASSERT_NE(serve_at, std::string::npos);
  ASSERT_NE(trace_at, std::string::npos);
  ASSERT_NE(flight_at, std::string::npos);
  EXPECT_LT(net_at, serve_at);
  EXPECT_LT(serve_at, trace_at);
  EXPECT_LT(trace_at, flight_at);
  EXPECT_NE(res.body.find("tsdm_trace_dropped_total"), std::string::npos);
  EXPECT_NE(res.body.find("tsdm_flight_observed_total"), std::string::npos);

  // Serve counters are quiescent (WaitIdle; the scrape itself does not
  // touch them), so the serve section must be byte-identical to the
  // in-process per-subsystem export — the registry adds routing, never
  // reformatting.
  const size_t serve_body = serve_at + std::string("# SOURCE serve\n").size();
  const std::string serve_section =
      res.body.substr(serve_body, trace_at - serve_body);
  EXPECT_EQ(serve_section,
            MetricsExporter::Describe(serve.Stats()).ToPrometheus());

  // Net counters move with the scrape itself (its own connection, bytes),
  // but the query/ping counters were frozen before the scrape: the scraped
  // lines must carry the exact pre-scrape values.
  const std::string net_section = res.body.substr(net_at, serve_at - net_at);
  EXPECT_NE(
      net_section.find("tsdm_net_queries_total{outcome=\"answered\"} 5\n"),
      std::string::npos);
  EXPECT_NE(net_section.find("tsdm_net_pings_total 1\n"), std::string::npos);
  EXPECT_NE(net_section.find("tsdm_net_sheds_total{reason=\"queue_full\"} 0\n"),
            std::string::npos);

  // The JSON aggregate carries the same sources.
  const std::string json = MetricsExporter::ExportJson();
  EXPECT_NE(json.find("\"sources\":{"), std::string::npos);
  EXPECT_NE(json.find("\"net\":{"), std::string::npos);
  EXPECT_NE(json.find("\"serve\":{"), std::string::npos);

  client.Close();
  server.Stop();
  serve.Stop();

  // Stop unregisters both sources: the aggregate no longer mentions them.
  const std::string after = MetricsExporter::ExportPrometheus();
  EXPECT_EQ(after.find("# SOURCE net\n"), std::string::npos);
  EXPECT_EQ(after.find("# SOURCE serve\n"), std::string::npos);
  EXPECT_EQ(after.find("# SOURCE trace\n"), std::string::npos);
  EXPECT_EQ(after.find("# SOURCE flight\n"), std::string::npos);
}

TEST(SocketServerTest, HttpHealthQueryAndErrorStatuses) {
  NetFixture fx;
  QueryServer::Options sopts;
  sopts.autoscale_enabled = false;
  QueryServer serve(&fx.net, fx.BaseModel(), sopts);
  ASSERT_TRUE(serve.Start().ok());

  SocketServer::Options nopts;
  nopts.health_source = [] {
    HealthSnapshot snap;
    snap.state = HealthState::kDegraded;
    snap.samples = 7;
    return snap;
  };
  SocketServer server(&serve, nopts);
  ASSERT_TRUE(server.Start().ok());
  const uint16_t port = server.port();

  NetClient::HttpResponse res;
  ASSERT_TRUE(NetClient::HttpGet(kLoopback, port, "/health", &res).ok());
  EXPECT_EQ(res.status_code, 200);
  EXPECT_NE(res.body.find("\"state\":\"degraded\""), std::string::npos)
      << res.body;
  EXPECT_NE(res.body.find("\"samples\":7"), std::string::npos);

  const std::string body =
      "{\"source\": " + std::to_string(fx.Query(0).source) +
      ", \"target\": " + std::to_string(fx.Query(0).target) +
      ", \"k\": 3, \"depart_seconds\": 28800.0, "
      "\"arrival_deadline_seconds\": 30000.0, \"request_id\": 99}";
  ASSERT_TRUE(NetClient::HttpPost(kLoopback, port, "/query",
                                  "application/json", body, &res)
                  .ok());
  EXPECT_EQ(res.status_code, 200);
  EXPECT_NE(res.body.find("\"status\":\"ok\""), std::string::npos) << res.body;
  EXPECT_NE(res.body.find("\"request_id\":99"), std::string::npos);
  EXPECT_NE(res.body.find("\"route_edges\":["), std::string::npos);

  // Missing numeric source/target: 400, shed before any serve submit.
  ASSERT_TRUE(NetClient::HttpPost(kLoopback, port, "/query",
                                  "application/json", "{\"nope\": true}", &res)
                  .ok());
  EXPECT_EQ(res.status_code, 400);
  // Unknown path: 404.
  ASSERT_TRUE(NetClient::HttpGet(kLoopback, port, "/nothing", &res).ok());
  EXPECT_EQ(res.status_code, 404);
  // Wrong method on a known path: 405, both directions.
  ASSERT_TRUE(NetClient::HttpGet(kLoopback, port, "/query", &res).ok());
  EXPECT_EQ(res.status_code, 405);
  ASSERT_TRUE(NetClient::HttpPost(kLoopback, port, "/metrics", "text/plain",
                                  "x", &res)
                  .ok());
  EXPECT_EQ(res.status_code, 405);

  NetStatsSnapshot stats = server.Stats();
  EXPECT_EQ(stats.http_health, 1u);
  EXPECT_EQ(stats.http_query, 1u);
  EXPECT_EQ(stats.http_bad_request, 1u);
  EXPECT_EQ(stats.http_not_found, 1u);
  EXPECT_EQ(stats.http_method_not_allowed, 2u);
  EXPECT_EQ(stats.HttpErrorsTotal(), 4u);

  server.Stop();
  serve.Stop();
}

TEST(SocketServerTest, TypedShedsHappenBeforePayloadDecode) {
  NetFixture fx;

  // queue_full: an unstarted QueryServer with capacity 1 and one queued
  // request makes QueueFull() deterministically true — the wire query is
  // answered with a typed ResourceExhausted error without decoding its
  // payload.
  {
    QueryServer::Options sopts;
    sopts.autoscale_enabled = false;
    sopts.queue.capacity = 1;
    QueryServer serve(&fx.net, fx.BaseModel(), sopts);
    std::atomic<int> drained{0};
    ASSERT_TRUE(serve
                    .Submit(fx.Query(0),
                            [&](const RouteAnswer&) { drained.fetch_add(1); })
                    .ok());
    ASSERT_TRUE(serve.QueueFull());

    SocketServer server(&serve);
    ASSERT_TRUE(server.Start().ok());
    NetClient client;
    ASSERT_TRUE(client.Connect(kLoopback, server.port()).ok());
    WireRouteAnswer answer;
    ASSERT_TRUE(client.Query(fx.Query(1), &answer).ok());
    EXPECT_EQ(answer.status_code, StatusCode::kResourceExhausted);

    NetStatsSnapshot stats = server.Stats();
    EXPECT_EQ(stats.shed_queue_full, 1u);
    EXPECT_EQ(stats.queries_failed, 1u);
    EXPECT_EQ(stats.queries_answered, 0u);

    // The HTTP arm probes the same way, before parsing the body.
    NetClient::HttpResponse res;
    ASSERT_TRUE(NetClient::HttpPost(kLoopback, server.port(), "/query",
                                    "application/json", "{\"source\": 1}",
                                    &res)
                    .ok());
    EXPECT_EQ(res.status_code, 503);
    EXPECT_EQ(server.Stats().shed_queue_full, 2u);

    client.Close();
    server.Stop();
    serve.Stop();  // drains the queued request
    EXPECT_EQ(drained.load(), 1);
  }

  // deadline: a frame whose last byte lands after the admission deadline
  // is shed before parse — the client has likely given up already.
  {
    QueryServer::Options sopts;
    sopts.autoscale_enabled = false;
    QueryServer serve(&fx.net, fx.BaseModel(), sopts);
    ASSERT_TRUE(serve.Start().ok());
    SocketServer::Options nopts;
    nopts.admission_deadline_seconds = 0.05;
    SocketServer server(&serve, nopts);
    ASSERT_TRUE(server.Start().ok());

    NetClient client;
    ASSERT_TRUE(client.Connect(kLoopback, server.port()).ok());
    std::vector<uint8_t> payload;
    EncodeRouteQueryPayload(fx.Query(0), &payload);
    std::vector<uint8_t> frame;
    EncodeNetFrame(1, NetOpcode::kRouteQuery, payload.data(), payload.size(),
                   &frame);
    ASSERT_TRUE(client.SendRaw(frame.data(), 10).ok());
    std::this_thread::sleep_for(std::chrono::milliseconds(200));
    ASSERT_TRUE(client.SendRaw(frame.data() + 10, frame.size() - 10).ok());

    uint64_t id = 0;
    WireRouteAnswer answer;
    ASSERT_TRUE(client.ReceiveAnswer(&id, &answer).ok());
    EXPECT_EQ(id, 1u);
    EXPECT_EQ(answer.status_code, StatusCode::kResourceExhausted);
    EXPECT_EQ(server.Stats().shed_deadline, 1u);

    // A prompt frame on the same connection is admitted normally.
    ASSERT_TRUE(client.Query(fx.Query(0), &answer).ok());
    EXPECT_EQ(answer.status_code, StatusCode::kOk);

    client.Close();
    server.Stop();
    serve.Stop();
  }

  // conn_cap: above max_connections new sockets are closed at accept.
  {
    QueryServer::Options sopts;
    sopts.autoscale_enabled = false;
    QueryServer serve(&fx.net, fx.BaseModel(), sopts);
    ASSERT_TRUE(serve.Start().ok());
    SocketServer::Options nopts;
    nopts.max_connections = 1;
    SocketServer server(&serve, nopts);
    ASSERT_TRUE(server.Start().ok());

    NetClient first;
    ASSERT_TRUE(first.Connect(kLoopback, server.port()).ok());
    ASSERT_TRUE(first.Ping().ok());  // registered with its loop

    NetClient second;
    ASSERT_TRUE(second.Connect(kLoopback, server.port()).ok());  // backlog
    // The server accepts and immediately closes it: the ping never gets an
    // answer, the client sees the connection drop.
    Status dropped = second.Ping();
    EXPECT_FALSE(dropped.ok());
    EXPECT_EQ(server.Stats().shed_conn_cap, 1u);
    EXPECT_EQ(server.Stats().connections_active, 1u);

    // Capacity frees when the first connection leaves.
    first.Close();
    NetClient third;
    ASSERT_TRUE(third.Connect(kLoopback, server.port()).ok());
    Status alive = Status::Internal("never pinged");
    for (int attempt = 0; attempt < 50; ++attempt) {
      alive = third.Ping();
      if (alive.ok()) break;
      third.Close();
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
      ASSERT_TRUE(third.Connect(kLoopback, server.port()).ok());
    }
    EXPECT_TRUE(alive.ok()) << alive.ToString();

    third.Close();
    second.Close();
    server.Stop();
    serve.Stop();
  }
}

TEST(SocketServerTest, HostileBytesResyncAndBadOpcode) {
  NetFixture fx;
  QueryServer::Options sopts;
  sopts.autoscale_enabled = false;
  QueryServer serve(&fx.net, fx.BaseModel(), sopts);
  ASSERT_TRUE(serve.Start().ok());
  SocketServer server(&serve);
  ASSERT_TRUE(server.Start().ok());

  NetClient client;
  ASSERT_TRUE(client.Connect(kLoopback, server.port()).ok());

  // A corrupted frame (payload byte flipped after CRC) is dropped server-
  // side; the connection survives and the next intact frame is answered.
  std::vector<uint8_t> payload;
  EncodeRouteQueryPayload(fx.Query(0), &payload);
  std::vector<uint8_t> corrupt;
  EncodeNetFrame(5, NetOpcode::kRouteQuery, payload.data(), payload.size(),
                 &corrupt);
  corrupt[20] ^= 0xFF;
  ASSERT_TRUE(client.SendRaw(corrupt.data(), corrupt.size()).ok());
  ASSERT_TRUE(client.Ping().ok());  // server resynced; nothing answered id 5

  // An intact frame with an unknown opcode gets a typed InvalidArgument
  // error, not a dropped connection.
  std::vector<uint8_t> unknown;
  EncodeNetFrame(6, static_cast<NetOpcode>(0x55), nullptr, 0, &unknown);
  ASSERT_TRUE(client.SendRaw(unknown.data(), unknown.size()).ok());
  NetFrame reply;
  ASSERT_TRUE(client.ReceiveFrame(&reply).ok());
  EXPECT_EQ(reply.request_id, 6u);
  EXPECT_EQ(static_cast<NetOpcode>(reply.opcode), NetOpcode::kError);
  EXPECT_EQ(DecodeErrorPayload(reply.payload.data(), reply.payload.size())
                .code(),
            StatusCode::kInvalidArgument);

  NetStatsSnapshot stats = server.Stats();
  EXPECT_TRUE(stats.frames.rejected_bad_crc > 0 ||
              stats.frames.resync_bytes > 0);
  EXPECT_EQ(stats.rejected_bad_opcode, 1u);
  EXPECT_EQ(stats.queries_answered, 0u);

  client.Close();
  server.Stop();
  serve.Stop();
}

// The extended kRouteQuery form end to end: NetClient sends priority and
// tenant, SocketServer decodes them into SubmitOptions, and the request is
// accounted under its tenant. Malformed scheduling fields are outside input:
// each gets a typed InvalidArgument error frame, nothing reaches the serve
// queue, and the connection keeps answering.
TEST(SocketServerTest, ExtendedQueryFormCarriesTenantAndRejectsMalformed) {
  NetFixture fx;
  QueryServer::Options sopts;
  sopts.autoscale_enabled = false;
  QueryServer serve(&fx.net, fx.BaseModel(), sopts);
  ASSERT_TRUE(serve.Start().ok());
  SocketServer server(&serve);
  ASSERT_TRUE(server.Start().ok());
  NetClient client;
  ASSERT_TRUE(client.Connect(kLoopback, server.port()).ok());

  WireRouteAnswer answer;
  ASSERT_TRUE(
      client.Query(fx.Query(0), NetClient::QueryOptions{2, "premium"}, &answer)
          .ok());
  EXPECT_EQ(answer.status_code, StatusCode::kOk);
  serve.WaitIdle();
  const TenantServeStats* premium = nullptr;
  ServeStatsSnapshot stats = serve.Stats();
  for (const TenantServeStats& t : stats.tenants) {
    if (t.tenant == "premium") premium = &t;
  }
  ASSERT_NE(premium, nullptr);
  EXPECT_EQ(premium->submitted, 1u);
  EXPECT_EQ(premium->completed, 1u);

  auto expect_invalid = [&](uint64_t id, const std::vector<uint8_t>& payload) {
    std::vector<uint8_t> frame;
    EncodeNetFrame(id, NetOpcode::kRouteQuery, payload.data(), payload.size(),
                   &frame);
    ASSERT_TRUE(client.SendRaw(frame.data(), frame.size()).ok());
    NetFrame reply;
    ASSERT_TRUE(client.ReceiveFrame(&reply).ok());
    EXPECT_EQ(reply.request_id, id);
    EXPECT_EQ(static_cast<NetOpcode>(reply.opcode), NetOpcode::kError);
    EXPECT_EQ(DecodeErrorPayload(reply.payload.data(), reply.payload.size())
                  .code(),
              StatusCode::kInvalidArgument);
  };
  // Truncated scheduling fields: a priority byte and no tenant_len.
  std::vector<uint8_t> truncated;
  EncodeRouteQueryPayload(fx.Query(0), &truncated);
  truncated.push_back(2);
  expect_invalid(41, truncated);
  // tenant_len says 7 ("premium") but only 3 tenant bytes follow.
  std::vector<uint8_t> mismatched;
  EncodeRouteQueryPayloadEx(fx.Query(0), 2, "premium", &mismatched);
  mismatched.resize(mismatched.size() - 4);
  expect_invalid(42, mismatched);

  // The connection survives both and answers a legacy query.
  ASSERT_TRUE(client.Query(fx.Query(1), &answer).ok());
  EXPECT_EQ(answer.status_code, StatusCode::kOk);
  serve.WaitIdle();
  EXPECT_EQ(serve.Stats().submitted, 2u);

  client.Close();
  server.Stop();
  serve.Stop();
}

TEST(SocketServerTest, TraceSpansLinkNetReadServeSubmitNetWrite) {
  TraceRecorder::Global().SetCapacity(1 << 16);
  TraceRecorder::Global().Clear();
  TraceRecorder::Global().Enable();

  NetFixture fx;
  {
    QueryServer::Options sopts;
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

    client.Close();
    server.Stop();  // loop threads exit -> their span buffers flush
    serve.Stop();
  }

  const std::vector<TraceEvent> events = TraceRecorder::Global().Snapshot();
  uint64_t net_request_id = 0;
  uint64_t root_span = 0;
  for (const TraceEvent& e : events) {
    if (e.name == "net/request") {
      net_request_id = e.request_id;
      root_span = e.span_id;
    }
  }
  ASSERT_NE(net_request_id, 0u);
  ASSERT_NE(root_span, 0u);

  bool saw_read = false, saw_submit = false, saw_write = false;
  for (const TraceEvent& e : events) {
    if (e.request_id != net_request_id) continue;
    if (e.name == "net/read") {
      saw_read = true;
      EXPECT_EQ(e.parent_span_id, root_span);
    } else if (e.name == "serve/submit") {
      saw_submit = true;
      EXPECT_EQ(e.parent_span_id, root_span);
    } else if (e.name == "net/write") {
      saw_write = true;
      EXPECT_EQ(e.parent_span_id, root_span);
    }
  }
  EXPECT_TRUE(saw_read);
  EXPECT_TRUE(saw_submit);  // the serve subtree joined the wire trace tree
  EXPECT_TRUE(saw_write);

  TraceRecorder::Global().Disable();
  TraceRecorder::Global().Clear();
}

// Out-of-bounds fields are outside input: k past kMaxQueryK would pin a
// worker in Yen for minutes, and a non-finite time has no departure
// bucket. Each gets a typed InvalidArgument frame at once, nothing reaches
// the serve queue, and the connection keeps answering.
TEST(SocketServerTest, OutOfBoundsWireQueriesAnswerInvalidArgumentPromptly) {
  NetFixture fx;
  QueryServer::Options sopts;
  sopts.autoscale_enabled = false;
  QueryServer serve(&fx.net, fx.BaseModel(), sopts);
  ASSERT_TRUE(serve.Start().ok());
  SocketServer server(&serve);
  ASSERT_TRUE(server.Start().ok());
  TimedConnection conn(server.port(), 10);
  ASSERT_TRUE(conn.connected());

  RouteQuery huge_k = fx.Query(0);
  huge_k.k = 1 << 30;
  RouteQuery nan_depart = fx.Query(0);
  nan_depart.depart_seconds = std::numeric_limits<double>::quiet_NaN();
  RouteQuery inf_deadline = fx.Query(0);
  inf_deadline.arrival_deadline_seconds =
      std::numeric_limits<double>::infinity();
  RouteQuery zero_k = fx.Query(0);
  zero_k.k = 0;
  const std::vector<RouteQuery> bad = {huge_k, nan_depart, inf_deadline,
                                       zero_k};
  for (size_t i = 0; i < bad.size(); ++i) {
    SCOPED_TRACE(i);
    ASSERT_TRUE(conn.SendQuery(i + 1, bad[i]));
    NetFrame reply;
    ASSERT_TRUE(conn.ReceiveFrame(&reply)) << "no answer before the watchdog";
    EXPECT_EQ(reply.request_id, i + 1);
    EXPECT_EQ(static_cast<NetOpcode>(reply.opcode), NetOpcode::kError);
    EXPECT_EQ(DecodeErrorPayload(reply.payload.data(), reply.payload.size())
                  .code(),
              StatusCode::kInvalidArgument);
  }

  ASSERT_TRUE(conn.SendQuery(9, fx.Query(1)));
  NetFrame reply;
  ASSERT_TRUE(conn.ReceiveFrame(&reply));
  EXPECT_EQ(reply.request_id, 9u);
  ASSERT_EQ(static_cast<NetOpcode>(reply.opcode), NetOpcode::kRouteAnswer);
  WireRouteAnswer answer;
  ASSERT_TRUE(
      DecodeRouteAnswerPayload(reply.payload.data(), reply.payload.size(),
                               &answer)
          .ok());
  EXPECT_EQ(answer.status_code, StatusCode::kOk);

  serve.WaitIdle();
  EXPECT_EQ(serve.Stats().submitted, 1u);
  const NetStatsSnapshot stats = server.Stats();
  EXPECT_EQ(stats.queries_failed, bad.size());
  EXPECT_EQ(stats.queries_answered, 1u);
  EXPECT_EQ(stats.ShedTotal(), 0u);
  server.Stop();
  serve.Stop();
}

// The HTTP decoder casts JSON numbers to integer fields only when they are
// integral and in range; anything else, and every bound the wire enforces,
// is a 400 before the query reaches the serve layer.
TEST(SocketServerTest, HttpRejectsOutOfRangeAndNonIntegralFields) {
  NetFixture fx;
  QueryServer::Options sopts;
  sopts.autoscale_enabled = false;
  QueryServer serve(&fx.net, fx.BaseModel(), sopts);
  ASSERT_TRUE(serve.Start().ok());
  SocketServer server(&serve);
  ASSERT_TRUE(server.Start().ok());
  const RouteQuery q = fx.Query(0);

  const std::vector<std::string> bad = {
      "{\"source\": 1e300, \"target\": " + std::to_string(q.target) + "}",
      "{\"source\": " + std::to_string(q.source) + ", \"target\": 2.5}",
      "{\"source\": " + std::to_string(q.source) + ", \"target\": " +
          std::to_string(q.target) + ", \"k\": 1e9}",
      QueryBody(q, ", \"request_id\": 1e30"),
      QueryBody(q, ", \"request_id\": -1"),
      QueryBody(q, ", \"priority\": 3e9"),
      QueryBody(q, ", \"arrival_deadline_seconds\": 1e999"),
  };
  for (const std::string& body : bad) {
    SCOPED_TRACE(body);
    EXPECT_EQ(TimedHttpQuery(server.port(), body), 400);
  }
  EXPECT_EQ(TimedHttpQuery(server.port(),
                           QueryBody(q, ", \"request_id\": 7")),
            200);

  serve.WaitIdle();
  EXPECT_EQ(serve.Stats().submitted, 1u);
  const NetStatsSnapshot stats = server.Stats();
  EXPECT_EQ(stats.http_bad_request, bad.size());
  EXPECT_EQ(stats.http_query, 1u);
  EXPECT_EQ(stats.ShedTotal(), 0u);
  server.Stop();
  serve.Stop();
}

// Submit's typed rejection picks the shed reason. A stopped server and a
// router that never started both answer FailedPrecondition: counted as
// closed, on either protocol, and under no other reason.
TEST(SocketServerTest, ClosedServiceShedsAsClosedOnBothProtocols) {
  NetFixture fx;
  QueryServer::Options sopts;
  sopts.autoscale_enabled = false;
  QueryServer stopped(&fx.net, fx.BaseModel(), sopts);
  ASSERT_TRUE(stopped.Start().ok());
  stopped.Stop();
  ShardRouter::Options ropts;
  ropts.map.num_shards = 2;
  ropts.server = sopts;
  ShardRouter unstarted(&fx.net, fx.BaseModel(), ropts);

  for (QueryService* service :
       std::vector<QueryService*>{&stopped, &unstarted}) {
    SocketServer server(service);
    ASSERT_TRUE(server.Start().ok());
    NetClient client;
    ASSERT_TRUE(client.Connect(kLoopback, server.port()).ok());
    WireRouteAnswer answer;
    ASSERT_TRUE(client.Query(fx.Query(0), &answer).ok());
    EXPECT_EQ(answer.status_code, StatusCode::kFailedPrecondition);
    EXPECT_EQ(Sheds(server.Stats()), (ShedVector{0, 0, 0, 0, 1}));
    EXPECT_EQ(TimedHttpQuery(server.port(), QueryBody(fx.Query(0))), 503);
    EXPECT_EQ(Sheds(server.Stats()), (ShedVector{0, 0, 0, 0, 2}));
    EXPECT_EQ(server.Stats().queries_failed, 1u);
    client.Close();
    server.Stop();
  }
}

// A query owned by a stopped shard is answered Unavailable and counted as
// unavailable, on either protocol.
TEST(SocketServerTest, StoppedShardShedsAsUnavailableOnBothProtocols) {
  NetFixture fx;
  ShardRouter::Options ropts;
  ropts.map.num_shards = 2;
  ropts.server.autoscale_enabled = false;
  ropts.server.initial_workers = 1;
  ropts.region_cell_meters = 800.0;
  ShardRouter router(&fx.net, fx.BaseModel(), ropts);
  ASSERT_TRUE(router.Start().ok());
  RouteQuery owned = fx.Query(0);
  owned.source = -1;
  const int nodes = static_cast<int>(fx.net.NumNodes());
  for (int a = 0; a < nodes && owned.source < 0; ++a) {
    for (int b = 0; b < nodes; ++b) {
      if (a != b && router.OwnerOfNode(a) == 0 && router.OwnerOfNode(b) == 0) {
        owned.source = a;
        owned.target = b;
        break;
      }
    }
  }
  ASSERT_GE(owned.source, 0) << "no pair owned by shard 0";
  ASSERT_TRUE(router.StopShard(0).ok());

  SocketServer server(&router);
  ASSERT_TRUE(server.Start().ok());
  NetClient client;
  ASSERT_TRUE(client.Connect(kLoopback, server.port()).ok());
  WireRouteAnswer answer;
  ASSERT_TRUE(client.Query(owned, &answer).ok());
  EXPECT_EQ(answer.status_code, StatusCode::kUnavailable);
  EXPECT_EQ(Sheds(server.Stats()), (ShedVector{0, 0, 0, 1, 0}));
  EXPECT_EQ(TimedHttpQuery(server.port(), QueryBody(owned)), 503);
  EXPECT_EQ(Sheds(server.Stats()), (ShedVector{0, 0, 0, 2, 0}));
  client.Close();
  server.Stop();
  router.Stop();
}

// Capacity sheds count as queue_full on either protocol, whether the
// QueueFull probe catches them before decode or Submit rejects them after
// (a tenant at quota is ResourceExhausted too, as RequestQueue counts it).
TEST(SocketServerTest, CapacitySheddingCountsQueueFullOnBothProtocols) {
  NetFixture fx;
  QueryServer::Options sopts;
  sopts.autoscale_enabled = false;
  sopts.queue.capacity = 1;
  QueryServer full(&fx.net, fx.BaseModel(), sopts);
  sopts.queue.capacity = 64;
  sopts.queue.tenants["capped"].quota = 1;
  QueryServer quota(&fx.net, fx.BaseModel(), sopts);
  // Unstarted, each holds one queued request: `full` is at capacity and
  // tenant "capped" of `quota` is at its quota.
  SubmitOptions capped;
  capped.tenant_id = "capped";
  ASSERT_TRUE(full.Submit(fx.Query(0), [](const RouteAnswer&) {}).ok());
  ASSERT_TRUE(
      quota.Submit(fx.Query(0), [](const RouteAnswer&) {}, capped).ok());
  ASSERT_TRUE(full.QueueFull());
  ASSERT_FALSE(quota.QueueFull());

  for (QueryServer* serve : {&full, &quota}) {
    SocketServer server(serve);
    ASSERT_TRUE(server.Start().ok());
    NetClient client;
    ASSERT_TRUE(client.Connect(kLoopback, server.port()).ok());
    WireRouteAnswer answer;
    ASSERT_TRUE(
        client.Query(fx.Query(1), NetClient::QueryOptions{0, "capped"}, &answer)
            .ok());
    EXPECT_EQ(answer.status_code, StatusCode::kResourceExhausted);
    EXPECT_EQ(Sheds(server.Stats()), (ShedVector{0, 1, 0, 0, 0}));
    EXPECT_EQ(TimedHttpQuery(server.port(),
                             QueryBody(fx.Query(1), ", \"tenant\": \"capped\"")),
              503);
    EXPECT_EQ(Sheds(server.Stats()), (ShedVector{0, 2, 0, 0, 0}));
    client.Close();
    server.Stop();
  }
  full.Stop();
  quota.Stop();
}

// The admission deadline applies to POST /query as it does to a frame: a
// request dribbled in past it is shed before its body is decoded.
TEST(SocketServerTest, DeadlineShedsDribbledQueriesOnBothProtocols) {
  NetFixture fx;
  QueryServer::Options sopts;
  sopts.autoscale_enabled = false;
  QueryServer serve(&fx.net, fx.BaseModel(), sopts);
  ASSERT_TRUE(serve.Start().ok());
  SocketServer::Options nopts;
  nopts.admission_deadline_seconds = 0.05;
  SocketServer server(&serve, nopts);
  ASSERT_TRUE(server.Start().ok());

  {
    TimedConnection http(server.port(), 10);
    ASSERT_TRUE(http.connected());
    const std::string request = HttpQueryRequest(QueryBody(fx.Query(0)));
    ASSERT_TRUE(http.Send(request.substr(0, 40)));
    std::this_thread::sleep_for(std::chrono::milliseconds(200));
    ASSERT_TRUE(http.Send(request.substr(40)));
    EXPECT_EQ(http.ReceiveAll().rfind("HTTP/1.1 503", 0), 0u);
    EXPECT_EQ(Sheds(server.Stats()), (ShedVector{0, 0, 1, 0, 0}));
  }
  {
    TimedConnection wire(server.port(), 10);
    ASSERT_TRUE(wire.connected());
    std::vector<uint8_t> payload;
    EncodeRouteQueryPayload(fx.Query(0), &payload);
    std::vector<uint8_t> frame;
    EncodeNetFrame(1, NetOpcode::kRouteQuery, payload.data(), payload.size(),
                   &frame);
    const std::string bytes(frame.begin(), frame.end());
    ASSERT_TRUE(wire.Send(bytes.substr(0, 10)));
    std::this_thread::sleep_for(std::chrono::milliseconds(200));
    ASSERT_TRUE(wire.Send(bytes.substr(10)));
    NetFrame reply;
    ASSERT_TRUE(wire.ReceiveFrame(&reply));
    EXPECT_EQ(DecodeErrorPayload(reply.payload.data(), reply.payload.size())
                  .code(),
              StatusCode::kResourceExhausted);
    EXPECT_EQ(Sheds(server.Stats()), (ShedVector{0, 0, 2, 0, 0}));
  }
  // A prompt POST /query is admitted.
  EXPECT_EQ(TimedHttpQuery(server.port(), QueryBody(fx.Query(0))), 200);
  server.Stop();
  serve.Stop();
}

TEST(SocketServerTest, TraceSpansLinkForHttpQuery) {
  TraceRecorder::Global().SetCapacity(1 << 16);
  TraceRecorder::Global().Clear();
  TraceRecorder::Global().Enable();

  NetFixture fx;
  {
    QueryServer::Options sopts;
    sopts.autoscale_enabled = false;
    QueryServer serve(&fx.net, fx.BaseModel(), sopts);
    ASSERT_TRUE(serve.Start().ok());
    SocketServer server(&serve);
    ASSERT_TRUE(server.Start().ok());
    EXPECT_EQ(TimedHttpQuery(server.port(), QueryBody(fx.Query(0))), 200);
    server.Stop();  // loop threads exit -> their span buffers flush
    serve.Stop();
  }

  const std::vector<TraceEvent> events = TraceRecorder::Global().Snapshot();
  uint64_t net_request_id = 0;
  uint64_t root_span = 0;
  for (const TraceEvent& e : events) {
    if (e.name == "net/request") {
      net_request_id = e.request_id;
      root_span = e.span_id;
    }
  }
  ASSERT_NE(root_span, 0u);
  std::vector<std::string> children;
  for (const TraceEvent& e : events) {
    if (e.request_id == net_request_id && e.parent_span_id == root_span) {
      children.push_back(e.name);
    }
  }
  std::sort(children.begin(), children.end());
  EXPECT_EQ(children, (std::vector<std::string>{"net/read", "net/write",
                                                "serve/submit"}));

  TraceRecorder::Global().Disable();
  TraceRecorder::Global().Clear();
}

size_t CountOf(const std::string& text, const std::string& needle) {
  size_t n = 0;
  for (size_t pos = text.find(needle); pos != std::string::npos;
       pos = text.find(needle, pos + 1)) {
    ++n;
  }
  return n;
}

// A closing connection serves nothing more. A POST /query held on an
// unstarted server keeps each connection open after it starts closing: a
// request pipelined after Connection: close gets no answer, and garbage
// after a 400 gets no second 400. Stopping the server answers the held
// queries, and only then do the connections close.
TEST(SocketServerTest, ClosingConnectionParsesNothingMore) {
  NetFixture fx;
  QueryServer::Options sopts;
  sopts.autoscale_enabled = false;
  QueryServer serve(&fx.net, fx.BaseModel(), sopts);  // never started
  SocketServer server(&serve);
  ASSERT_TRUE(server.Start().ok());
  auto wait_submitted = [&serve](uint64_t n) {
    for (int i = 0; i < 1000 && serve.Stats().submitted < n; ++i) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    return serve.Stats().submitted == n;
  };
  const std::string body = QueryBody(fx.Query(0));

  TimedConnection after_close(server.port(), 5);
  ASSERT_TRUE(after_close.connected());
  ASSERT_TRUE(after_close.Send(HttpQueryRequest(body)));  // Connection: close
  ASSERT_TRUE(wait_submitted(1));
  ASSERT_TRUE(after_close.Send("GET /health HTTP/1.1\r\nHost: x\r\n\r\n"));

  TimedConnection after_400(server.port(), 5);
  ASSERT_TRUE(after_400.connected());
  ASSERT_TRUE(after_400.Send(
      "POST /query HTTP/1.1\r\nHost: x\r\nContent-Length: " +
      std::to_string(body.size()) + "\r\n\r\n" + body));
  ASSERT_TRUE(wait_submitted(2));
  ASSERT_TRUE(after_400.Send("garbage\r\n\r\n"));
  for (int i = 0; i < 1000 && server.Stats().http_bad_request == 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ASSERT_EQ(server.Stats().http_bad_request, 1u);
  ASSERT_TRUE(after_400.Send("more garbage\r\n\r\n"));
  std::this_thread::sleep_for(std::chrono::milliseconds(200));

  EXPECT_EQ(server.Stats().http_health, 0u);
  EXPECT_EQ(server.Stats().http_bad_request, 1u);
  serve.Stop();  // drains both held queries: each gets its 503
  const std::string first = after_close.ReceiveAll();
  EXPECT_EQ(CountOf(first, "HTTP/1.1 "), 1u) << first;
  EXPECT_EQ(first.rfind("HTTP/1.1 503", 0), 0u) << first;
  const std::string second = after_400.ReceiveAll();
  EXPECT_EQ(CountOf(second, "HTTP/1.1 400"), 1u) << second;
  EXPECT_EQ(CountOf(second, "HTTP/1.1 503"), 1u) << second;
  EXPECT_EQ(server.Stats().http_health, 0u);
  EXPECT_EQ(server.Stats().http_bad_request, 1u);
  server.Stop();
}

TEST(SocketServerTest, ConcurrentClientsAllAnswered) {
  NetFixture fx;
  QueryServer::Options sopts;
  sopts.autoscale_enabled = false;
  sopts.initial_workers = 2;
  QueryServer serve(&fx.net, fx.BaseModel(), sopts);
  ASSERT_TRUE(serve.Start().ok());
  SocketServer::Options nopts;
  nopts.event_loops = 2;
  SocketServer server(&serve, nopts);
  ASSERT_TRUE(server.Start().ok());
  const uint16_t port = server.port();

  const int kThreads = 4;
  const int kPerThread = 25;
  std::atomic<int> answered{0};
  std::atomic<int> errors{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      NetClient client;
      if (!client.Connect(kLoopback, port).ok()) {
        errors.fetch_add(kPerThread);
        return;
      }
      for (int i = 0; i < kPerThread; ++i) {
        WireRouteAnswer answer;
        Status s = client.Query(fx.Query(t * kPerThread + i), &answer);
        if (s.ok() && answer.status_code == StatusCode::kOk) {
          answered.fetch_add(1);
        } else {
          errors.fetch_add(1);
        }
      }
    });
  }
  for (auto& t : threads) t.join();

  EXPECT_EQ(answered.load(), kThreads * kPerThread);
  EXPECT_EQ(errors.load(), 0);
  NetStatsSnapshot stats = server.Stats();
  EXPECT_EQ(stats.queries_answered,
            static_cast<uint64_t>(kThreads) * kPerThread);
  EXPECT_EQ(stats.connections_accepted, static_cast<uint64_t>(kThreads));
  EXPECT_EQ(stats.completions_dropped, 0u);

  server.Stop();
  serve.Stop();
}

TEST(NetClientTest, PipelinedAnswersMatchByIdUnderOutOfOrderDelivery) {
  // An in-test wire server that holds a pipelined burst and answers it in
  // REVERSE order, each answer carrying a cost derived from its query's
  // source node. The client must attribute every answer to the request id
  // that earned it — receive order is explicitly not submission order on
  // a pipelined connection (a shard fleet makes this the common case).
  constexpr int kBurst = 8;
  int listen_fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(listen_fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = 0;
  ASSERT_EQ(::bind(listen_fd, reinterpret_cast<sockaddr*>(&addr),
                   sizeof(addr)),
            0);
  ASSERT_EQ(::listen(listen_fd, 1), 0);
  socklen_t addr_len = sizeof(addr);
  ASSERT_EQ(::getsockname(listen_fd, reinterpret_cast<sockaddr*>(&addr),
                          &addr_len),
            0);
  const uint16_t port = ntohs(addr.sin_port);

  std::thread server([listen_fd] {
    int conn = ::accept(listen_fd, nullptr, nullptr);
    ASSERT_GE(conn, 0);
    FrameParser parser;
    std::vector<NetFrame> frames;
    uint8_t buf[4096];
    while (frames.size() < kBurst) {
      ssize_t n = ::read(conn, buf, sizeof(buf));
      if (n <= 0) break;
      parser.Consume(buf, static_cast<size_t>(n), &frames);
    }
    ASSERT_EQ(frames.size(), static_cast<size_t>(kBurst));
    std::vector<uint8_t> out;
    for (auto it = frames.rbegin(); it != frames.rend(); ++it) {
      RouteQuery q;
      ASSERT_TRUE(
          DecodeRouteQueryPayload(it->payload.data(), it->payload.size(), &q)
              .ok());
      RouteAnswer answer;
      answer.cost_mean_seconds = 1000.0 + q.source;  // provenance marker
      answer.on_time_probability = 0.5;
      answer.num_candidates = 1;
      std::vector<uint8_t> payload;
      EncodeRouteAnswerPayload(answer, &payload);
      EncodeNetFrame(it->request_id, NetOpcode::kRouteAnswer, payload.data(),
                     payload.size(), &out);
    }
    size_t off = 0;
    while (off < out.size()) {
      ssize_t n = ::write(conn, out.data() + off, out.size() - off);
      if (n <= 0) break;
      off += static_cast<size_t>(n);
    }
    ::close(conn);
  });

  NetClient client;
  ASSERT_TRUE(client.Connect(kLoopback, port).ok());
  std::vector<uint64_t> sent_ids;
  std::vector<int> sent_sources;
  for (int i = 0; i < kBurst; ++i) {
    RouteQuery q;
    q.source = 100 + i;  // distinct per request — the provenance key
    q.target = 1;
    uint64_t id = 0;
    ASSERT_TRUE(client.SendQuery(q, &id).ok());
    sent_ids.push_back(id);
    sent_sources.push_back(q.source);
  }

  for (int i = 0; i < kBurst; ++i) {
    uint64_t id = 0;
    WireRouteAnswer answer;
    Status st = client.ReceiveAnswer(&id, &answer);
    ASSERT_TRUE(st.ok()) << st.ToString();
    // The server answered newest-first: the very first received answer
    // must carry the LAST request's id — out-of-order delivery really
    // happened on this connection.
    if (i == 0) {
      EXPECT_EQ(id, sent_ids.back());
    }
    auto pos = std::find(sent_ids.begin(), sent_ids.end(), id);
    ASSERT_NE(pos, sent_ids.end()) << "unknown request id " << id;
    size_t index = static_cast<size_t>(pos - sent_ids.begin());
    // Matching by id recovers exactly the answer this request earned.
    EXPECT_EQ(answer.status_code, StatusCode::kOk);
    EXPECT_EQ(answer.cost_mean_seconds, 1000.0 + sent_sources[index]);
    sent_ids[index] = 0;  // each id answered exactly once
  }
  for (uint64_t id : sent_ids) EXPECT_EQ(id, 0u);

  client.Close();
  server.join();
  ::close(listen_fd);
}

}  // namespace
}  // namespace tsdm
