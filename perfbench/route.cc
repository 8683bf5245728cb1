// route_cold: open-loop route queries over the binary wire protocol to a
// SocketServer fronting a 2-shard ShardRouter on a 12x12 grid, with a query
// working set far larger than the route and path-cost caches.
//
// Untraced run (--trace 0): a closed-window saturation phase gives
// peak_per_s; an open-loop phase at the nominal rate gives p50/p99 and the
// error counts; a seeded sample of the answers is then checked bitwise
// against a fresh in-process single-node QueryServer.
//
// Traced run (--trace 1): the same nominal wire phase with exact counter
// deltas from the serve, net and shard snapshots; in-process Submit phases
// at the same rate (the router behind the socket, and a single-node server
// of the same total size); and a layer drive that runs the same queries
// through the layers' public functions in the order the program calls them,
// with a benchmark-side span around each call.
//
// Every request is submitted with no queue budget. With a budget, the
// dispatcher sheds a few requests in ten thousand as expired at random (it
// reads the clock before popping, and a request enqueued in between wraps
// the unsigned age in the expiry check), so the failure count would differ
// from run to run of the same code.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstring>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "perfbench/common.h"
#include "perfbench/workloads.h"
#include "src/common/rng.h"
#include "src/governance/uncertainty/travel_cost_models.h"
#include "src/net/socket_server.h"
#include "src/net/wire.h"
#include "src/serve/path_cost_cache.h"
#include "src/serve/query_server.h"
#include "src/serve/route_cache.h"
#include "src/shard/shard_router.h"
#include "src/sim/road_gen.h"
#include "src/sim/traffic_sim.h"
#include "src/spatial/shortest_path.h"

namespace perfbench {
namespace {

using namespace tsdm;

constexpr int kBaseModelBins = 32;  // bins of the base model's path answer
constexpr int kCandidates = 4;      // k of every query
constexpr int kDepartBuckets = 96;  // 15-minute buckets of one day
constexpr double kBucketSeconds = 900.0;
constexpr size_t kAnswerSample = 128;  // answers checked against a reference
constexpr double kGraceSeconds = 2.0;  // wait for late answers after a phase
constexpr int kGrid = 12;              // rows and columns of the road grid
constexpr int kShards = 2;
/// Open-loop rate of the latency phase (queries per second).
constexpr double kNominalQps = 1000.0;
/// In-flight requests of the saturation phase's single connection.
constexpr int kPeakWindow = 16;
/// Seed of the road network and of the base model's training trips. They
/// do not follow the run's seed: the network decides how costly a query is,
/// and across networks drawn from different seeds peak_per_s moved by up to
/// 10%, a change the benchmark should be able to see. The run's seed draws
/// the query streams.
constexpr uint64_t kNetworkSeed = 12;

QueryServer::Options ServerOptions() {
  QueryServer::Options o;
  o.initial_workers = 2;
  o.autoscale_enabled = false;  // a fixed pool: the measurement is of code
  o.cost.segment_edges = 8;
  // Dispatch at once: the default 2 ms batch linger would set a latency
  // floor far above everything the workloads measure.
  o.batch.max_wait_seconds = 0.0;
  return o;
}

/// No queue budget (see the top of this file).
SubmitOptions NoBudget() {
  SubmitOptions opts;
  opts.queue_budget_seconds = 0.0;
  return opts;
}

/// Everything the workload serves from. Built once per set-up; the network
/// and model outlive the router that points into them.
struct RouteStack {
  GridNetworkSpec spec;
  RoadNetwork net;
  EdgeCentricModel model{0};
  std::unique_ptr<ShardRouter> router;
  std::unique_ptr<SocketServer> socket;

  PathCostModel BaseModel() const {
    const EdgeCentricModel* m = &model;
    return [m](const std::vector<int>& edges, double depart) {
      return m->PathCostDistribution(edges, depart, kBaseModelBins);
    };
  }

  ~RouteStack() {
    if (socket) socket->Stop();
    if (router) router->Stop();
  }
};

/// Submits `q` and blocks for its answer.
RouteAnswer SubmitAndWait(QueryService* service, const RouteQuery& q) {
  std::mutex mu;
  std::condition_variable cv;
  bool done = false;
  RouteAnswer out;
  Status st = service->Submit(
      q,
      [&](const RouteAnswer& a) {
        std::lock_guard<std::mutex> lock(mu);
        out = a;
        done = true;
        cv.notify_one();
      },
      NoBudget());
  if (!st.ok()) {
    out.status = st;
    return out;
  }
  std::unique_lock<std::mutex> lock(mu);
  cv.wait(lock, [&] { return done; });
  return out;
}

std::unique_ptr<RouteStack> BuildStack(std::string* error) {
  auto s = std::make_unique<RouteStack>();
  Rng rng(kNetworkSeed);
  s->spec.rows = kGrid;
  s->spec.cols = kGrid;
  s->net = GenerateGridNetwork(s->spec, &rng);

  // Train the edge-centric base model on simulated trips in every hour.
  const int num_edges = static_cast<int>(s->net.NumEdges());
  s->model = EdgeCentricModel(num_edges);
  TrafficSimulator sim(&s->net, TrafficSpec{});
  for (int e = 0; e < num_edges; ++e) {
    for (int hour = 0; hour < 24; ++hour) {
      for (int rep = 0; rep < 4; ++rep) {
        TripObservation trip;
        trip.edge_path = {e};
        trip.depart_seconds = hour * 3600.0 + 1800.0;
        trip.edge_times = {sim.SampleEdgeTime(e, trip.depart_seconds, &rng)};
        s->model.AddTrip(trip);
      }
    }
  }
  Status built = s->model.Build();
  if (!built.ok()) {
    *error = "model build: " + built.ToString();
    return nullptr;
  }

  ShardRouter::Options ropts;
  ropts.map.num_shards = kShards;
  ropts.server = ServerOptions();
  s->router = std::make_unique<ShardRouter>(&s->net, s->BaseModel(), ropts);
  Status st = s->router->Start();
  if (!st.ok()) {
    *error = "router start: " + st.ToString();
    return nullptr;
  }

  SocketServer::Options nopts;
  nopts.event_loops = 1;
  nopts.register_metrics_sources = false;
  nopts.queue_budget_seconds = 0.0;  // see the top of this file
  s->socket = std::make_unique<SocketServer>(s->router.get(), nopts);
  st = s->socket->Start();
  if (!st.ok()) {
    *error = "socket start: " + st.ToString();
    return nullptr;
  }
  return s;
}

/// The seeded query stream: uniform OD pairs x 96 departure buckets.
std::vector<RouteQuery> MakeSequence(const RouteStack& s, uint64_t seed,
                                     size_t n) {
  Rng rng(seed);
  std::vector<RouteQuery> seq;
  seq.reserve(n);
  const int nodes = static_cast<int>(s.net.NumNodes());
  for (size_t i = 0; i < n; ++i) {
    RouteQuery q;
    q.source = rng.Index(nodes);
    q.target = rng.Index(nodes - 1);
    if (q.target >= q.source) ++q.target;
    q.k = kCandidates;
    q.depart_seconds =
        rng.Index(kDepartBuckets) * kBucketSeconds + rng.Uniform(0.0, 900.0);
    q.arrival_deadline_seconds = q.depart_seconds + 3600.0;
    seq.push_back(q);
  }
  return seq;
}

std::vector<uint8_t> EncodeQueryFrame(const RouteQuery& q, uint64_t id) {
  std::vector<uint8_t> payload;
  EncodeRouteQueryPayload(q, &payload);
  std::vector<uint8_t> frame;
  EncodeNetFrame(id, NetOpcode::kRouteQuery, payload.data(), payload.size(),
                 &frame);
  return frame;
}

/// The client's view of one answer: the decoded wire image, or the typed
/// error that came back instead.
struct WireOutcome {
  bool answered = false;
  StatusCode code = StatusCode::kOk;
  std::string reason;  ///< "<Code>: <message>" for errors
  WireRouteAnswer answer;
};

WireOutcome DecodeOutcome(const NetFrame& frame) {
  WireOutcome out;
  out.answered = true;
  if (frame.opcode == static_cast<uint8_t>(NetOpcode::kRouteAnswer)) {
    Status st = DecodeRouteAnswerPayload(frame.payload.data(),
                                         frame.payload.size(), &out.answer);
    out.code = st.ok() ? out.answer.status_code : StatusCode::kDataLoss;
    if (!st.ok()) out.reason = "undecodable answer: " + st.ToString();
  } else if (frame.opcode == static_cast<uint8_t>(NetOpcode::kError)) {
    Status st = DecodeErrorPayload(frame.payload.data(), frame.payload.size());
    out.code = st.ok() ? StatusCode::kInternal : st.code();
    out.reason = st.ToString();
  } else {
    out.code = StatusCode::kInternal;
    out.reason = "unexpected opcode";
  }
  if (out.code != StatusCode::kOk && out.reason.empty()) {
    out.reason = StatusCodeName(out.code);
  }
  return out;
}

WireRouteAnswer ToWire(const RouteAnswer& a) {
  std::vector<uint8_t> payload;
  EncodeRouteAnswerPayload(a, &payload);
  WireRouteAnswer w;
  (void)DecodeRouteAnswerPayload(payload.data(), payload.size(), &w);
  return w;
}

bool BitwiseEqual(const WireRouteAnswer& a, const WireRouteAnswer& b) {
  return a.status_code == b.status_code &&
         std::memcmp(&a.cost_mean_seconds, &b.cost_mean_seconds,
                     sizeof(double)) == 0 &&
         std::memcmp(&a.on_time_probability, &b.on_time_probability,
                     sizeof(double)) == 0 &&
         a.num_candidates == b.num_candidates && a.edges == b.edges;
}

/// A blocking loopback TCP connection to the socket server.
class WireConn {
 public:
  WireConn() = default;
  ~WireConn() {
    if (fd_ >= 0) ::close(fd_);
  }
  WireConn(const WireConn&) = delete;
  WireConn& operator=(const WireConn&) = delete;

  bool Connect(uint16_t port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) return false;
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
      return false;
    }
    int one = 1;
    ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    // Reads time out so a receiver can notice the phase ended.
    timeval tv{};
    tv.tv_usec = 100000;
    ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
    return true;
  }

  bool SendAll(const uint8_t* data, size_t size) {
    while (size > 0) {
      const ssize_t n = ::send(fd_, data, size, MSG_NOSIGNAL);
      if (n < 0) {
        if (errno == EINTR) continue;
        return false;
      }
      data += n;
      size -= static_cast<size_t>(n);
    }
    return true;
  }

  /// Reads what is available into `buf`: >0 bytes, 0 on timeout, -1 when
  /// the connection is gone.
  ssize_t Recv(uint8_t* buf, size_t cap) {
    const ssize_t n = ::recv(fd_, buf, cap, 0);
    if (n > 0) return n;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR)) {
      return 0;
    }
    return -1;
  }

 private:
  int fd_ = -1;
};

/// Outcome of one open-loop phase (wire or in-process).
struct PhaseResult {
  uint64_t attempted = 0;
  uint64_t ok = 0;
  uint64_t transport_failures = 0;
  uint64_t unanswered = 0;
  std::map<std::string, uint64_t> errors;  ///< error answers by reason
  std::vector<TimedSample> samples;        ///< OK answers, latency in us
  std::vector<TimedSample> late;           ///< generator lateness, us
  std::map<size_t, WireRouteAnswer> sampled;  ///< index -> OK answer
  uint64_t origin_ns = 0;
  double period_ns = 0.0;

  uint64_t Failed() const {
    uint64_t n = transport_failures + unanswered;
    for (const auto& [reason, count] : errors) n += count;
    return n;
  }
  /// The q-percentile of each window of 100 ms or 1000 sends, whichever
  /// is longer (the ragged tail is skipped). Short windows keep the rare
  /// multi-millisecond stall inside a minority of windows, so the median
  /// window is not decided by whether a stall happened to land in it.
  std::vector<Window> Windows(double q) const {
    const uint64_t window = std::max<uint64_t>(
        100000000ull, static_cast<uint64_t>(1000.0 * period_ns));
    const size_t min_samples = static_cast<size_t>(
        0.9 * static_cast<double>(window) / period_ns);
    return WindowPercentiles(samples, origin_ns, window, min_samples, q);
  }
};

/// Which indices of a phase have their answers kept for the bitwise checks.
bool Sampled(size_t i, size_t n) {
  const size_t stride = std::max<size_t>(1, n / kAnswerSample);
  return i % stride == stride / 2;
}

/// Open loop over the wire: a sender thread writes each query when it is
/// due (all due queries in one write), a receiver thread reads answers. One
/// connection, two client threads.
PhaseResult RunWireNominal(uint16_t port, const std::vector<RouteQuery>& seq,
                           double rate, double seconds, uint64_t id_base,
                           LoadGenerator* load) {
  PhaseResult r;
  const size_t n = std::min(
      seq.size(), static_cast<size_t>(std::floor(rate * seconds)));
  r.attempted = n;
  r.period_ns = 1e9 / rate;
  load->UseThreads(2, 1);
  WireConn conn;
  if (!conn.Connect(port)) {
    r.transport_failures = n;
    return r;
  }
  std::vector<std::vector<uint8_t>> frames(n);
  for (size_t i = 0; i < n; ++i) frames[i] = EncodeQueryFrame(seq[i], id_base + i);
  std::vector<uint64_t> done_ns(n, 0);
  std::vector<WireOutcome> outcomes(n);

  r.origin_ns = NowNs() + 5000000;  // 5 ms to get both threads going
  auto due = [&](size_t i) {
    return r.origin_ns + static_cast<uint64_t>(static_cast<double>(i) *
                                               r.period_ns);
  };
  const uint64_t last_due = n == 0 ? r.origin_ns : due(n - 1);
  std::atomic<size_t> sent{0};
  std::atomic<bool> send_failed{false};

  std::thread sender([&] {
    std::vector<uint8_t> burst;
    size_t i = 0;
    while (i < n) {
      if (NowNs() < due(i)) SleepUntilNs(due(i));
      const uint64_t now = NowNs();
      burst.clear();
      size_t j = i;
      while (j < n && due(j) <= now && j - i < 64) {
        burst.insert(burst.end(), frames[j].begin(), frames[j].end());
        ++j;
      }
      if (!conn.SendAll(burst.data(), burst.size())) {
        send_failed.store(true);
        break;
      }
      const uint64_t sent_ns = NowNs();
      for (size_t k = i; k < j; ++k) {
        r.late.push_back({due(k), 1e-3 * static_cast<double>(sent_ns - due(k))});
      }
      i = j;
      sent.store(i, std::memory_order_release);
    }
  });

  std::thread receiver([&] {
    FrameParser parser;
    std::vector<NetFrame> parsed;
    std::vector<uint8_t> buf(1 << 16);
    size_t received = 0;
    const uint64_t give_up =
        last_due + static_cast<uint64_t>(kGraceSeconds * 1e9);
    while (received < n && NowNs() < give_up) {
      if (send_failed.load() && received >= sent.load()) break;
      const ssize_t got = conn.Recv(buf.data(), buf.size());
      if (got < 0) break;
      if (got == 0) continue;
      const uint64_t now = NowNs();
      parsed.clear();
      parser.Consume(buf.data(), static_cast<size_t>(got), &parsed);
      for (const NetFrame& f : parsed) {
        if (f.request_id < id_base || f.request_id - id_base >= n) continue;
        const size_t i = static_cast<size_t>(f.request_id - id_base);
        if (done_ns[i] != 0) continue;
        done_ns[i] = now;
        outcomes[i] = DecodeOutcome(f);
        ++received;
      }
    }
  });
  sender.join();
  receiver.join();

  const size_t sent_n = sent.load();
  for (size_t i = 0; i < n; ++i) {
    if (i >= sent_n) {
      ++r.transport_failures;
    } else if (done_ns[i] == 0) {
      ++r.unanswered;
    } else if (outcomes[i].code != StatusCode::kOk) {
      ++r.errors[outcomes[i].reason];
    } else {
      ++r.ok;
      r.samples.push_back(
          {due(i), 1e-3 * static_cast<double>(done_ns[i] - due(i))});
      if (Sampled(i, n)) r.sampled[i] = outcomes[i].answer;
    }
  }
  return r;
}

/// Open loop in process: a pacing thread calls Submit when each query is
/// due; the answer callback stamps completion. The callbacks share their
/// state through a shared_ptr, so one arriving after the wait is harmless.
PhaseResult RunInprocNominal(QueryService* service,
                             const std::vector<RouteQuery>& seq, double rate,
                             double seconds, LoadGenerator* load) {
  PhaseResult r;
  const size_t n = std::min(
      seq.size(), static_cast<size_t>(std::floor(rate * seconds)));
  r.attempted = n;
  r.period_ns = 1e9 / rate;
  load->UseThreads(1, 0);
  struct Shared {
    explicit Shared(size_t n)
        : done_ns(n, 0), codes(n, StatusCode::kOk), reasons(n), kept(n) {}
    std::vector<uint64_t> done_ns;
    std::vector<StatusCode> codes;
    std::vector<std::string> reasons;
    std::vector<WireRouteAnswer> kept;
    std::atomic<uint64_t> callbacks{0};
  };
  auto shared = std::make_shared<Shared>(n);
  uint64_t admitted = 0;

  r.origin_ns = NowNs() + 2000000;
  const uint64_t end_ns =
      r.origin_ns + static_cast<uint64_t>(static_cast<double>(n) * r.period_ns);
  PacedLoop(r.origin_ns, r.period_ns, end_ns, &r.late,
            [&](uint64_t i, uint64_t) {
              Status st = service->Submit(
                  seq[i],
                  [shared, i, n](const RouteAnswer& a) {
                    shared->done_ns[i] = NowNs();
                    shared->codes[i] = a.status.code();
                    if (!a.status.ok()) {
                      shared->reasons[i] = a.status.ToString();
                    } else if (Sampled(i, n)) {
                      shared->kept[i] = ToWire(a);
                    }
                    shared->callbacks.fetch_add(1, std::memory_order_release);
                  },
                  NoBudget());
              if (st.ok()) {
                ++admitted;
              } else {
                shared->codes[i] = st.code();
                shared->reasons[i] = st.ToString();
              }
            });
  const uint64_t give_up = NowNs() + static_cast<uint64_t>(kGraceSeconds * 1e9);
  while (shared->callbacks.load(std::memory_order_acquire) < admitted &&
         NowNs() < give_up) {
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  if (shared->callbacks.load(std::memory_order_acquire) < admitted) {
    // Unanswered requests are counted below; do not read their slots.
    r.unanswered = admitted - shared->callbacks.load();
    r.attempted = n;
    return r;
  }
  const Shared& sh = *shared;
  for (size_t i = 0; i < n; ++i) {
    const uint64_t due = r.origin_ns + static_cast<uint64_t>(
                                           static_cast<double>(i) * r.period_ns);
    if (sh.codes[i] != StatusCode::kOk) {
      ++r.errors[sh.reasons[i]];
    } else if (sh.done_ns[i] == 0) {
      ++r.unanswered;
    } else {
      ++r.ok;
      r.samples.push_back({due, 1e-3 * static_cast<double>(sh.done_ns[i] - due)});
      if (Sampled(i, n)) r.sampled[i] = sh.kept[i];
    }
  }
  return r;
}

/// Saturation: one connection keeps `window` queries in flight; each
/// answer releases the next query. OK answers per second are counted in
/// eight sub-windows.
struct PeakResult {
  std::vector<Window> rates;  ///< OK answers per second, per sub-window
  uint64_t ok = 0;
  uint64_t errors = 0;
};

PeakResult RunWirePeak(uint16_t port, const std::vector<RouteQuery>& seq,
                       int window, double seconds, uint64_t id_base,
                       LoadGenerator* load) {
  PeakResult r;
  load->UseThreads(1, 1);
  WireConn conn;
  if (!conn.Connect(port) || seq.empty()) return r;
  constexpr int kWindows = 8;
  std::vector<uint64_t> ok_in(kWindows, 0);
  size_t next = 0;
  std::vector<uint8_t> out;
  auto queue_next = [&] {
    const std::vector<uint8_t> f =
        EncodeQueryFrame(seq[next % seq.size()], id_base + next);
    out.insert(out.end(), f.begin(), f.end());
    ++next;
  };
  for (int i = 0; i < window; ++i) queue_next();
  const uint64_t start = NowNs();
  const uint64_t end = start + static_cast<uint64_t>(seconds * 1e9);
  const double width = static_cast<double>(end - start) / kWindows;
  if (!conn.SendAll(out.data(), out.size())) return r;
  FrameParser parser;
  std::vector<NetFrame> parsed;
  std::vector<uint8_t> buf(1 << 16);
  uint64_t outstanding = static_cast<uint64_t>(window);
  const uint64_t give_up = end + static_cast<uint64_t>(kGraceSeconds * 1e9);
  while (outstanding > 0 && NowNs() < give_up) {
    const ssize_t got = conn.Recv(buf.data(), buf.size());
    if (got < 0) break;
    if (got == 0) continue;
    const uint64_t now = NowNs();
    parsed.clear();
    parser.Consume(buf.data(), static_cast<size_t>(got), &parsed);
    out.clear();
    for (const NetFrame& f : parsed) {
      --outstanding;
      const WireOutcome o = DecodeOutcome(f);
      if (o.code == StatusCode::kOk) {
        ++r.ok;
        if (now < end) {
          const size_t w = static_cast<size_t>(
              static_cast<double>(now - start) / width);
          ++ok_in[std::min<size_t>(w, kWindows - 1)];
        }
      } else {
        ++r.errors;
      }
      if (now < end) {
        queue_next();
        ++outstanding;
      }
    }
    if (!out.empty() && !conn.SendAll(out.data(), out.size())) break;
  }
  for (int w = 0; w < kWindows; ++w) {
    Window win;
    win.start_ns = start + static_cast<uint64_t>(w * width);
    win.end_ns = start + static_cast<uint64_t>((w + 1) * width);
    win.value = static_cast<double>(ok_in[static_cast<size_t>(w)]) / (width * 1e-9);
    r.rates.push_back(win);
  }
  return r;
}

void ReportPhaseErrors(const PhaseResult& p, const std::string& phase,
                       Report* report) {
  report->ErrorReason(phase + "/transport", p.transport_failures);
  report->ErrorReason(phase + "/unanswered", p.unanswered);
  for (const auto& [reason, count] : p.errors) {
    report->ErrorReason(phase + "/" + reason, count);
  }
}

/// Checks the kept answers of `phase` bitwise against `reference` answers
/// for the same sequence indices.
void CheckAgainst(const std::map<size_t, WireRouteAnswer>& phase,
                  const std::map<size_t, WireRouteAnswer>& reference,
                  const std::string& what, Report* report) {
  size_t compared = 0;
  size_t mismatched = 0;
  for (const auto& [i, answer] : phase) {
    auto it = reference.find(i);
    if (it == reference.end()) continue;
    ++compared;
    if (!BitwiseEqual(answer, it->second)) ++mismatched;
  }
  report->Info("check " + what,
               std::to_string(compared - mismatched) + "/" +
                   std::to_string(compared) + " bitwise equal");
  if (mismatched > 0 || compared == 0) {
    report->Fail(what + ": " + std::to_string(mismatched) + " of " +
                 std::to_string(compared) + " answers differ");
  }
}

/// Reference answers of a fresh single-node QueryServer for the kept
/// indices of `phase`.
std::map<size_t, WireRouteAnswer> ReferenceAnswers(
    QueryService* reference, const std::vector<RouteQuery>& seq,
    const std::map<size_t, WireRouteAnswer>& phase) {
  std::map<size_t, WireRouteAnswer> out;
  for (const auto& [i, unused] : phase) {
    (void)unused;
    RouteAnswer a = SubmitAndWait(reference, seq[i]);
    if (a.status.ok()) out[i] = ToWire(a);
  }
  return out;
}

// ---------------------------------------------------------------------
// Layer drive (traced run).

/// Per-query results of one layer drive.
struct DriveResult {
  double wall_s = 0.0;
  std::map<size_t, WireRouteAnswer> answers;  ///< every index driven
  uint64_t candidates = 0;
};

/// Runs seq[0, n) through decode -> route enumeration -> SegmentCost ->
/// ComposeSegments -> ScoreCandidates -> encode, on fresh caches sized
/// like the server's.
DriveResult RunLayerDrive(const RouteStack& s,
                          const std::vector<RouteQuery>& seq, size_t n,
                          SpanLog* log) {
  const QueryServer::Options sopts = ServerOptions();
  SpanLog off(false, 0);
  // Spans go to `active`: the untraced log during warm-up, `log` after.
  SpanLog* active = &off;
  PathCostCache cache(sopts.cache);
  const EdgeCentricModel* m = &s.model;
  PathCostModel base = [m, &active](const std::vector<int>& edges,
                                    double depart) {
    Span span(active, "uncertainty.segment_miss");
    return m->PathCostDistribution(edges, depart, kBaseModelBins);
  };
  CachedPathCostModel cost(base, &cache, sopts.cost);
  RouteCache routes(&s.net, sopts.route_cache_entries);
  const int seg_edges = cost.options().segment_edges;
  const int result_bins = cost.options().result_bins;
  FrameParser parser;
  std::vector<NetFrame> frames;
  std::vector<uint8_t> payload;
  std::vector<uint8_t> out_frame;

  auto serve_one = [&](const std::vector<uint8_t>& frame_bytes, uint64_t rid) {
    Span request(active, "request", rid);
    RouteQuery q;
    Status decoded = Status::InvalidArgument("no frame");
    {
      Span span(active, "net.decode", rid);
      frames.clear();
      parser.Consume(frame_bytes.data(), frame_bytes.size(), &frames);
      if (!frames.empty()) {
        decoded = DecodeRouteQueryPayload(frames.front().payload.data(),
                                          frames.front().payload.size(), &q);
      }
    }
    RouteAnswer answer;
    Result<std::vector<Path>> cands = decoded;
    if (decoded.ok()) {
      Span span(active, "routing.enumerate", rid);
      cands = routes.Get(q.source, q.target, q.k, TraceContext{});
    }
    if (!cands.ok()) {
      answer.status = cands.status();
    } else {
      std::vector<Result<Histogram>> costs;
      costs.reserve(cands->size());
      const int bucket = cache.BucketFor(q.depart_seconds);
      for (const Path& route : *cands) {
        std::vector<Histogram> parts;
        Status failed;
        for (const std::vector<int>& seg :
             CachedPathCostModel::SplitSegments(route.edges, seg_edges)) {
          Span span(active, "serve.segment_cost", rid);
          Result<Histogram> h = cost.SegmentCost(seg, bucket);
          if (!h.ok()) {
            failed = h.status();
            break;
          }
          parts.push_back(std::move(h).value());
        }
        if (!failed.ok()) {
          costs.emplace_back(failed);
          continue;
        }
        Span span(active, "uncertainty.compose", rid);
        costs.emplace_back(
            CachedPathCostModel::ComposeSegments(std::move(parts), result_bins));
      }
      Span span(active, "routing.score", rid);
      ScoreCandidates(q, *cands, costs, &answer);
    }
    {
      Span span(active, "net.encode", rid);
      payload.clear();
      EncodeRouteAnswerPayload(answer, &payload);
      out_frame.clear();
      EncodeNetFrame(rid, NetOpcode::kRouteAnswer, payload.data(),
                     payload.size(), &out_frame);
    }
    return answer;
  };

  std::vector<std::vector<uint8_t>> inputs(n);
  for (size_t i = 0; i < n; ++i) inputs[i] = EncodeQueryFrame(seq[i], i + 1);

  active = log;
  DriveResult res;
  const uint64_t t0 = NowNs();
  for (size_t i = 0; i < n; ++i) {
    RouteAnswer a = serve_one(inputs[i], i + 1);
    res.candidates += static_cast<uint64_t>(a.num_candidates);
    if (a.status.ok()) res.answers[i] = ToWire(a);
  }
  res.wall_s = 1e-9 * static_cast<double>(NowNs() - t0);
  return res;
}

/// Times Histogram::Convolve call by call on the shapes the queries
/// produce: each candidate's segment composition, and the edge-by-edge
/// convolutions the base model runs for a segment. Returns mean ns per
/// call; *pairs_per_query gets the bin pairs (n x m per call) per query.
double ConvolveProbe(const RouteStack& s, const std::vector<RouteQuery>& seq,
                     size_t n, double* pairs_per_query) {
  const QueryServer::Options sopts = ServerOptions();
  PathCostCache cache(sopts.cache);
  CachedPathCostModel cost(s.BaseModel(), &cache, sopts.cost);
  uint64_t calls = 0;
  uint64_t ns = 0;
  double pairs = 0.0;
  auto timed = [&](const Histogram& a, const Histogram& b, int bins) {
    const uint64_t t0 = NowNs();
    Histogram out = a.Convolve(b, bins);
    ns += NowNs() - t0;
    ++calls;
    pairs += static_cast<double>(a.NumBins()) * b.NumBins();
    return out;
  };
  for (size_t i = 0; i < n; ++i) {
    const RouteQuery& q = seq[i];
    Result<std::vector<Path>> cands = KShortestPaths(
        s.net, q.source, q.target, q.k, FreeFlowTimeCost(s.net));
    if (!cands.ok()) continue;
    const int bucket = cache.BucketFor(q.depart_seconds);
    for (const Path& route : *cands) {
      std::vector<Histogram> parts;
      for (const std::vector<int>& seg : CachedPathCostModel::SplitSegments(
               route.edges, cost.options().segment_edges)) {
        // The base model's own chain for this segment.
        Result<Histogram> acc = s.model.EdgeDistribution(seg[0], cache.BucketTime(bucket));
        if (!acc.ok()) break;
        Histogram chain = *acc;
        for (size_t e = 1; e < seg.size(); ++e) {
          Result<Histogram> next =
              s.model.EdgeDistribution(seg[e], cache.BucketTime(bucket));
          if (!next.ok()) break;
          chain = timed(chain, *next, kBaseModelBins);
        }
        Result<Histogram> h = cost.SegmentCost(seg, bucket);
        if (h.ok()) parts.push_back(*h);
      }
      if (parts.empty()) continue;
      Histogram total = parts[0];
      for (size_t p = 1; p < parts.size(); ++p) {
        total = timed(total, parts[p], cost.options().result_bins);
      }
    }
  }
  *pairs_per_query = n == 0 ? 0.0 : pairs / static_cast<double>(n);
  return calls == 0 ? 0.0 : static_cast<double>(ns) / static_cast<double>(calls);
}

/// Mean KShortestPaths time per (source, target, k) of the queries.
double KShortestProbeUs(const RouteStack& s, const std::vector<RouteQuery>& seq,
                        size_t n) {
  if (n == 0) return 0.0;
  const EdgeCostFn free_flow = FreeFlowTimeCost(s.net);
  const uint64_t t0 = NowNs();
  for (size_t i = 0; i < n; ++i) {
    (void)KShortestPaths(s.net, seq[i].source, seq[i].target, seq[i].k,
                         free_flow);
  }
  return 1e-3 * static_cast<double>(NowNs() - t0) / static_cast<double>(n);
}

double StageMeanUs(const LatencyHistogram& before, const LatencyHistogram& after) {
  const uint64_t count = after.count() - before.count();
  if (count == 0) return 0.0;
  return 1e6 * (after.total_seconds() - before.total_seconds()) /
         static_cast<double>(count);
}

double Ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

// ---------------------------------------------------------------------

/// One second of wire traffic at the nominal rate before anything is
/// measured, on queries the measured phase does not use: lets the first
/// measured window start from steady state instead of from set-up.
void WarmUp(const RouteStack& s, uint16_t port, uint64_t seed,
            LoadGenerator* load) {
  const std::vector<RouteQuery> seq =
      MakeSequence(s, seed * 31 + 11, static_cast<size_t>(kNominalQps));
  (void)RunWireNominal(port, seq, kNominalQps, 1.0, 1ull << 41, load);
}

/// Blocks of the untraced run (see BlockPlan); a timed throw-away set-up
/// follows every second block.
constexpr int kBlocks = 8;

int RunUntraced(const RunArgs& args, std::unique_ptr<RouteStack> stack,
                const std::function<Window()>& timed_setup,
                std::vector<Window>* setups, Report* report,
                LoadGenerator* load) {
  const double peak_s = 0.35 * args.seconds / kBlocks;
  const double nominal_s = 0.55 * args.seconds / kBlocks;
  const HostSteal& host = *args.host;
  const uint16_t port = stack->socket->port();

  const size_t per_block =
      static_cast<size_t>(std::floor(kNominalQps * nominal_s));
  const std::vector<RouteQuery> seq =
      MakeSequence(*stack, args.seed, per_block * 2 * kBlocks);
  const std::vector<RouteQuery> peak_seq =
      MakeSequence(*stack, args.seed * 31 + 7, 60000);
  WarmUp(*stack, port, args.seed, load);
  const BlockPlan plan(kBlocks, 0.9 * args.seconds);

  std::vector<Window> rates, p50s, p95s, p99s;
  uint64_t peak_ok = 0, peak_errors = 0, attempted = 0, failed = 0;
  uint64_t latency_samples = 0;
  PhaseResult all;  // error counts and kept answers of every block
  int b = 0;
  for (; plan.More(b, p99s, host); ++b) {
    const uint64_t id_base = 1 + static_cast<uint64_t>(b) * per_block;
    PeakResult peak = RunWirePeak(port, peak_seq, kPeakWindow, peak_s,
                                  (1ull << 40) + (uint64_t{1} << 32) * b, load);
    rates.insert(rates.end(), peak.rates.begin(), peak.rates.end());
    peak_ok += peak.ok;
    peak_errors += peak.errors;

    const std::vector<RouteQuery> block(
        seq.begin() + static_cast<long>(b * per_block),
        seq.begin() + static_cast<long>((b + 1) * per_block));
    PhaseResult nominal =
        RunWireNominal(port, block, kNominalQps, nominal_s, id_base, load);
    load->AddLateness(nominal.late);
    for (const Window& w : nominal.Windows(0.5)) p50s.push_back(w);
    for (const Window& w : nominal.Windows(0.95)) p95s.push_back(w);
    for (const Window& w : nominal.Windows(0.99)) p99s.push_back(w);
    attempted += nominal.attempted;
    failed += nominal.Failed();
    latency_samples += nominal.samples.size();
    all.transport_failures += nominal.transport_failures;
    all.unanswered += nominal.unanswered;
    for (const auto& [reason, count] : nominal.errors) all.errors[reason] += count;
    for (const auto& [i, answer] : nominal.sampled) {
      all.sampled[b * per_block + i] = answer;
    }
    if (b % 2 == 1) setups->push_back(timed_setup());
  }
  report->Info("blocks", std::to_string(b));
  report->Set("setup_s", host.QuietMedian(*setups, "setup_s", report));
  const double peak = host.QuietMedian(rates, "peak_per_s", report);
  report->Set("peak_per_s", peak);
  report->Figure("peak_qps", peak, "1/s");
  report->Info("peak phase", std::to_string(peak_ok) + " ok, " +
                                 std::to_string(peak_errors) + " errors");
  report->Set("p50_us", host.QuietMedian(p50s, "p50_us", report));
  report->Figure("p95_us", host.QuietMedian(p95s, "p95_us", report), "us");
  report->Figure("p99_us", host.QuietMedian(p99s, "p99_us", report), "us");
  report->Attempted(attempted, failed);
  report->Figure("error_rate",
                 Ratio(static_cast<double>(failed), static_cast<double>(attempted)),
                 "ratio");
  report->Info("latency samples", std::to_string(latency_samples) + " in " +
                                      std::to_string(p99s.size()) + " windows");
  ReportPhaseErrors(all, "wire", report);

  // Correctness: the kept wire answers against a fresh single-node server.
  QueryServer reference(&stack->net, stack->BaseModel(), ServerOptions());
  if (!reference.Start().ok()) {
    report->Fail("reference server did not start");
    return 0;
  }
  CheckAgainst(all.sampled, ReferenceAnswers(&reference, seq, all.sampled),
               "wire (sharded) vs single-node", report);
  reference.Stop();
  return 0;
}

int RunTraced(const RunArgs& args, std::unique_ptr<RouteStack> stack,
              Report* report, LoadGenerator* load) {
  const double wire_s = 0.35 * args.seconds;
  const double inproc_s = 0.2 * args.seconds;
  const double drive_s = 0.2 * args.seconds;
  RouteStack& s = *stack;
  const uint16_t port = s.socket->port();

  const size_t n = static_cast<size_t>(std::floor(kNominalQps * wire_s));
  const std::vector<RouteQuery> seq = MakeSequence(s, args.seed, n);

  // 1. The nominal wire phase, with exact counter deltas around it.
  WarmUp(s, port, args.seed, load);
  const ServeStatsSnapshot serve0 = s.router->Stats();
  const NetStatsSnapshot net0 = s.socket->Stats();
  const ShardRouterStats shard0 = s.router->ShardStats().router;
  PhaseResult wire = RunWireNominal(port, seq, kNominalQps, wire_s, 1, load);
  s.router->WaitIdle();
  const ServeStatsSnapshot serve1 = s.router->Stats();
  const NetStatsSnapshot net1 = s.socket->Stats();
  const ShardRouterStats shard1 = s.router->ShardStats().router;
  load->AddLateness(wire.late);
  report->Attempted(wire.attempted, wire.Failed());
  ReportPhaseErrors(wire, "wire", report);
  const HostSteal& host = *args.host;
  const double wire_p50 = host.QuietMedian(wire.Windows(0.5), "wire p50", report);

  // 2. In-process Submit on the router behind the socket, and on a
  // single-node server, same queries and rate.
  PhaseResult inproc =
      RunInprocNominal(s.router.get(), seq, kNominalQps, inproc_s, load);
  load->AddLateness(inproc.late);
  ReportPhaseErrors(inproc, "inproc", report);
  // The single node gets the fleet's total worker count, so the p50
  // difference is what sharding costs, not a smaller pool.
  QueryServer::Options single_opts = ServerOptions();
  single_opts.initial_workers *= kShards;
  QueryServer single(&s.net, s.BaseModel(), single_opts);
  if (!single.Start().ok()) {
    report->Fail("single-node server did not start");
    return 0;
  }
  PhaseResult one = RunInprocNominal(&single, seq, kNominalQps, inproc_s, load);
  load->AddLateness(one.late);
  ReportPhaseErrors(one, "single", report);
  const double single_p50 =
      host.QuietMedian(one.Windows(0.5), "single p50", report);

  // 3. The layer drive: untraced, then traced, each on fresh caches.
  size_t drive_n = 0;
  double untraced_wall = 0.0;
  {
    // Size the drive by time: as many queries as fit in half the budget.
    SpanLog off(false, 0);
    const size_t probe_n = std::min<size_t>(n, 200);
    DriveResult probe = RunLayerDrive(s, seq, probe_n, &off);
    const double per_query = probe.wall_s / std::max<size_t>(1, probe_n);
    drive_n = std::min(n, std::max<size_t>(
                              probe_n, static_cast<size_t>(0.5 * drive_s /
                                                           std::max(per_query, 1e-9))));
    DriveResult untraced = RunLayerDrive(s, seq, drive_n, &off);
    untraced_wall = untraced.wall_s;
  }
  SpanLog log(true, 400000);
  DriveResult traced = RunLayerDrive(s, seq, drive_n, &log);
  report->Info("layer drive", std::to_string(drive_n) + " queries");

  // Bitwise: drive answers equal the wire answers and the in-process ones,
  // and every answer equals a single-node reference.
  CheckAgainst(wire.sampled, traced.answers, "wire vs layer drive", report);
  CheckAgainst(inproc.sampled, traced.answers, "in-process vs layer drive",
               report);
  CheckAgainst(wire.sampled, ReferenceAnswers(&single, seq, wire.sampled),
               "wire (sharded) vs single-node", report);
  single.Stop();

  const std::string spans_path =
      args.work_dir + "/spans-" + args.workload + ".csv";
  if (log.WriteCsv(spans_path)) report->Info("spans", spans_path);

  // --- Per-layer metrics ---
  const double dn = static_cast<double>(std::max<size_t>(1, drive_n));
  const double inproc_p50 =
      host.QuietMedian(inproc.Windows(0.5), "in-process p50", report);
  report->Set("net.wire_minus_inproc_p50_us", wire_p50 - inproc_p50);
  report->Set("net.frame_parse_ns", log.Totals("net.decode").MeanNs());
  report->Set("net.answer_encode_ns", log.Totals("net.encode").MeanNs());
  const double wire_queries = static_cast<double>(
      (net1.queries_answered + net1.queries_failed) -
      (net0.queries_answered + net0.queries_failed));
  report->Set("net.bytes_per_query",
              Ratio(static_cast<double>((net1.bytes_read - net0.bytes_read) +
                                        (net1.bytes_written - net0.bytes_written)),
                    wire_queries));
  report->Set("net.shed_queue_full",
              static_cast<double>(net1.shed_queue_full - net0.shed_queue_full));
  report->Set("net.shed_deadline",
              static_cast<double>(net1.shed_deadline - net0.shed_deadline));

  const double forwarded = static_cast<double>(shard1.forwarded - shard0.forwarded);
  const double scattered = static_cast<double>(shard1.scattered - shard0.scattered);
  report->Set("shard.scatter_share", Ratio(scattered, forwarded + scattered));
  report->Set("shard.probes_per_scatter",
              Ratio(static_cast<double>(shard1.probes_sent - shard0.probes_sent),
                    scattered));
  report->Set("shard.router_minus_single_p50_us", inproc_p50 - single_p50);
  report->Set("shard.partial_errors",
              static_cast<double>(shard1.partial_errors - shard0.partial_errors));

  report->Set("serve.inproc_p50_us", inproc_p50);
  const double queue_us = StageMeanUs(serve0.stage_queue, serve1.stage_queue);
  const double batch_us = StageMeanUs(serve0.stage_batch, serve1.stage_batch);
  report->Set("serve.stage_queue_mean_us", queue_us);
  report->Set("serve.stage_batch_mean_us", batch_us);
  report->Set("serve.stage_cache_mean_us",
              StageMeanUs(serve0.stage_cache, serve1.stage_cache));
  report->Set("serve.stage_exec_mean_us",
              StageMeanUs(serve0.stage_exec, serve1.stage_exec));
  report->Set("serve.batch_size_mean",
              Ratio(static_cast<double>(serve1.batched_requests -
                                        serve0.batched_requests),
                    static_cast<double>(serve1.batches - serve0.batches)));
  const double hits = static_cast<double>(serve1.cache_hits - serve0.cache_hits);
  const double misses =
      static_cast<double>(serve1.cache_misses - serve0.cache_misses);
  const double hit_ratio = Ratio(hits, hits + misses);
  report->Set("serve.cache_hit_ratio", hit_ratio);
  report->Set("serve.cache_evictions_per_query",
              Ratio(static_cast<double>(serve1.cache_evictions -
                                        serve0.cache_evictions),
                    wire_queries));
  report->Set("serve.shed_expired",
              static_cast<double>(serve1.shed_expired - serve0.shed_expired));
  report->Set("serve.shed_capacity",
              static_cast<double>(serve1.shed_capacity - serve0.shed_capacity));

  const size_t probe_n = std::min<size_t>(drive_n, 200);
  report->Set("routing.kshortest_us", KShortestProbeUs(s, seq, probe_n));
  report->Set("routing.score_us", 1e-3 * log.Totals("routing.score").MeanNs());
  report->Set("routing.candidates_per_query",
              static_cast<double>(traced.candidates) / dn);
  const double routing_self =
      1e-3 * static_cast<double>(log.Totals("routing.enumerate").self_ns +
                                 log.Totals("routing.score").self_ns) /
      dn;
  report->Set("routing.self_us_per_query", routing_self);
  report->Set("uncertainty.segment_miss_us",
              1e-3 * log.Totals("uncertainty.segment_miss").MeanNs());
  report->Set("uncertainty.compose_us",
              1e-3 * log.Totals("uncertainty.compose").MeanNs());
  double pairs = 0.0;
  report->Set("uncertainty.convolve_ns", ConvolveProbe(s, seq, probe_n, &pairs));
  report->Set("uncertainty.convolve_bin_pairs_per_query", pairs);
  const double uncertainty_self =
      1e-3 * static_cast<double>(log.Totals("uncertainty.segment_miss").self_ns +
                                 log.Totals("uncertainty.compose").self_ns) /
      dn;
  report->Set("uncertainty.self_us_per_query", uncertainty_self);
  report->Set("bench.trace_overhead_pct",
              100.0 * Ratio(traced.wall_s - untraced_wall, untraced_wall));

  // Self time per query by layer, and whether the workload exercises the
  // layers it was chosen for (informational: a faster layer may move it).
  const double net_self =
      1e-3 * static_cast<double>(log.Totals("net.decode").self_ns +
                                 log.Totals("net.encode").self_ns) / dn;
  const double serve_self =
      1e-3 * static_cast<double>(log.Totals("serve.segment_cost").self_ns +
                                 log.Totals("request").self_ns) / dn;
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "net %.2f us, serve %.2f us, routing %.2f us, uncertainty "
                "%.2f us",
                net_self, serve_self, routing_self, uncertainty_self);
  report->Info("self time per query", buf);
  std::snprintf(buf, sizeof(buf),
                "routing+uncertainty self %.1f us vs serve.inproc_p50 %.1f us "
                "(%s half)",
                routing_self + uncertainty_self, inproc_p50,
                routing_self + uncertainty_self > 0.5 * inproc_p50
                    ? "more than"
                    : "NOT more than");
  report->Info("layer check", buf);
  return 0;
}

}  // namespace

int RunRouteWorkload(const RunArgs& args, Report* report, LoadGenerator* load) {
  report->Info("nominal_rate", std::to_string(kNominalQps) + " q/s");
  report->Info("peak_window", std::to_string(kPeakWindow));

  // setup_s is the median of several timed set-ups: the one whose stack is
  // used, and throw-away ones (between blocks in the untraced run).
  auto timed_setup = [&]() {
    Window w;
    w.start_ns = NowNs();
    std::string error;
    std::unique_ptr<RouteStack> scratch = BuildStack(&error);
    w.end_ns = NowNs();
    w.value = 1e-9 * static_cast<double>(w.end_ns - w.start_ns);
    if (!scratch) report->Fail("set-up: " + error);
    return w;
  };
  std::vector<Window> setups(1);
  std::string error;
  setups[0].start_ns = NowNs();
  std::unique_ptr<RouteStack> stack = BuildStack(&error);
  setups[0].end_ns = NowNs();
  setups[0].value =
      1e-9 * static_cast<double>(setups[0].end_ns - setups[0].start_ns);
  if (!stack) {
    report->Fail("set-up: " + error);
    return 1;
  }
  if (args.trace) return RunTraced(args, std::move(stack), report, load);
  return RunUntraced(args, std::move(stack), timed_setup, &setups, report,
                     load);
}

}  // namespace perfbench
