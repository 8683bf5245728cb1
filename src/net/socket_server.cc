#include "src/net/socket_server.h"

#include <arpa/inet.h>
#include <errno.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <string.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <sstream>
#include <thread>
#include <utility>

#include "src/obs/flight_recorder.h"
#include "src/obs/metrics_export.h"
#include "src/obs/trace.h"

namespace tsdm {

namespace {

constexpr size_t kReadChunk = 64 * 1024;

// GET /debug/traces: default and maximum trace count, and the bound on the
// query string an introspection endpoint will even look at — anything
// longer is hostile and answered with a typed 400 before parsing.
constexpr uint64_t kDefaultDebugTraces = 32;
constexpr uint64_t kMaxDebugTraces = 4096;
constexpr size_t kMaxDebugQueryBytes = 256;

Status Errno(const char* what) {
  return Status::Internal(std::string("net: ") + what + ": " +
                          strerror(errno));
}

bool SetNonBlocking(int fd) {
  const int flags = fcntl(fd, F_GETFL, 0);
  return flags >= 0 && fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0;
}

}  // namespace

/// All per-connection state. Owned by exactly one event loop after
/// adoption; only that loop's thread touches it.
struct SocketServer::Connection {
  int fd = -1;
  uint64_t id = 0;
  int loop_index = 0;
  Protocol protocol = Protocol::kUnknown;

  FrameParser frames;
  HttpParser http;
  /// Pending outbound bytes; [out_off, out.size()) not yet written.
  std::vector<uint8_t> out;
  size_t out_off = 0;

  /// NowNs at the read event that began the currently-pending request
  /// bytes (frame deadline accounting); 0 = nothing pending.
  uint64_t request_start_ns = 0;
  /// Wire queries submitted to the serve layer, not yet answered.
  int in_flight = 0;
  /// Peer half-closed (or read error), the HTTP parser hit a terminal
  /// condition, or a request asked for Connection: close. Close once writes
  /// drain and in_flight reaches zero; bytes read meanwhile are dropped
  /// unparsed.
  bool closing = false;
};

/// One epoll thread: its fd set, its wake channel, and its connections.
/// `inbox` is the only cross-thread surface; everything else is loop-local.
struct SocketServer::EventLoop {
  int index = 0;
  int epoll_fd = -1;
  int event_fd = -1;
  std::thread thread;

  std::mutex inbox_mu;
  std::deque<Completion> inbox;
  /// Newly accepted fds awaiting adoption by this loop.
  std::deque<int> pending_fds;

  /// Loop-local: connection registry (adopted fds only).
  std::unordered_map<uint64_t, std::unique_ptr<Connection>> conns;
  std::unordered_map<int, uint64_t> fd_to_conn;
};

SocketServer::SocketServer(QueryService* serve, Options options)
    : serve_(serve), options_(std::move(options)) {
  if (options_.event_loops < 1) options_.event_loops = 1;
  if (options_.max_connections < 1) options_.max_connections = 1;
}

SocketServer::~SocketServer() { Stop(); }

Status SocketServer::Listen() {
  listen_fd_ = socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (listen_fd_ < 0) return Errno("socket");
  const int one = 1;
  setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(options_.port);
  if (bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    close(listen_fd_);
    listen_fd_ = -1;
    return Errno("bind");
  }
  if (listen(listen_fd_, 128) < 0) {
    close(listen_fd_);
    listen_fd_ = -1;
    return Errno("listen");
  }
  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  if (getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound), &len) == 0) {
    port_.store(ntohs(bound.sin_port), std::memory_order_release);
  }
  return Status::OK();
}

Status SocketServer::Start() {
  if (started_) return Status::FailedPrecondition("net: already started");
  TSDM_RETURN_IF_ERROR(Listen());

  router_ = std::make_shared<CompletionRouter>();
  router_->server = this;
  running_.store(true, std::memory_order_release);

  loops_.clear();
  for (int i = 0; i < options_.event_loops; ++i) {
    auto loop = std::make_unique<EventLoop>();
    loop->index = i;
    loop->epoll_fd = epoll_create1(EPOLL_CLOEXEC);
    loop->event_fd = eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
    if (loop->epoll_fd < 0 || loop->event_fd < 0) {
      running_.store(false, std::memory_order_release);
      close(listen_fd_);
      listen_fd_ = -1;
      return Errno("epoll_create1/eventfd");
    }
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.fd = loop->event_fd;
    epoll_ctl(loop->epoll_fd, EPOLL_CTL_ADD, loop->event_fd, &ev);
    loops_.push_back(std::move(loop));
  }
  // The listener lives in loop 0's fd set (level-triggered is fine for a
  // listen socket; AcceptReady still drains until EAGAIN).
  epoll_event lev{};
  lev.events = EPOLLIN;
  lev.data.fd = listen_fd_;
  epoll_ctl(loops_[0]->epoll_fd, EPOLL_CTL_ADD, listen_fd_, &lev);

  for (auto& loop : loops_) {
    const int index = loop->index;
    loop->thread = std::thread([this, index] { LoopMain(index); });
  }
  if (options_.register_metrics_sources) RegisterMetricsSources();
  started_ = true;
  return Status::OK();
}

void SocketServer::Stop() {
  if (!started_) return;
  started_ = false;

  // No new connections. The fd itself closes after the loops join — loop 0
  // may still be inside an accept burst, and closing under it would let
  // the fd number be reused mid-call.
  if (listen_fd_ >= 0) {
    epoll_ctl(loops_[0]->epoll_fd, EPOLL_CTL_DEL, listen_fd_, nullptr);
    shutdown(listen_fd_, SHUT_RDWR);
  }

  // Drain: wait (bounded) for in-flight wire requests to come back and for
  // their responses to reach the kernel, so well-behaved clients see every
  // answer before their socket dies.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (std::chrono::steady_clock::now() < deadline) {
    if (router_->in_flight.load(std::memory_order_acquire) == 0 &&
        unflushed_bytes_.load(std::memory_order_acquire) == 0) {
      bool inboxes_empty = true;
      for (auto& loop : loops_) {
        std::lock_guard<std::mutex> lock(loop->inbox_mu);
        if (!loop->inbox.empty()) inboxes_empty = false;
      }
      if (inboxes_empty) break;
    }
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }

  // Late serve completions must not touch the loops we are about to join.
  {
    std::lock_guard<std::mutex> lock(router_->mu);
    router_->server = nullptr;
  }
  running_.store(false, std::memory_order_release);
  for (auto& loop : loops_) WakeLoop(loop.get());
  for (auto& loop : loops_) {
    if (loop->thread.joinable()) loop->thread.join();
  }
  if (listen_fd_ >= 0) {
    close(listen_fd_);
    listen_fd_ = -1;
  }
  for (auto& loop : loops_) {
    // Loop threads closed their connections on exit; release the fds.
    size_t undelivered = 0;
    {
      std::lock_guard<std::mutex> lock(loop->inbox_mu);
      undelivered = loop->inbox.size();
      loop->inbox.clear();
      for (int fd : loop->pending_fds) close(fd);
      loop->pending_fds.clear();
    }
    router_->dropped.fetch_add(undelivered, std::memory_order_relaxed);
    if (loop->event_fd >= 0) close(loop->event_fd);
    if (loop->epoll_fd >= 0) close(loop->epoll_fd);
  }
  if (options_.register_metrics_sources) UnregisterMetricsSources();
}

void SocketServer::WakeLoop(EventLoop* loop) {
  const uint64_t one = 1;
  [[maybe_unused]] ssize_t n = write(loop->event_fd, &one, sizeof(one));
}

void SocketServer::PostCompletion(int loop_index, Completion item) {
  EventLoop* loop = loops_[static_cast<size_t>(loop_index)].get();
  {
    std::lock_guard<std::mutex> lock(loop->inbox_mu);
    loop->inbox.push_back(std::move(item));
  }
  WakeLoop(loop);
}

void SocketServer::LoopMain(int loop_index) {
  EventLoop* loop = loops_[static_cast<size_t>(loop_index)].get();
  std::vector<epoll_event> events(64);
  while (running_.load(std::memory_order_acquire)) {
    const int n = epoll_wait(loop->epoll_fd, events.data(),
                             static_cast<int>(events.size()), 100);
    if (!running_.load(std::memory_order_acquire)) break;
    for (int i = 0; i < n; ++i) {
      const epoll_event& ev = events[i];
      if (ev.data.fd == loop->event_fd) {
        uint64_t drain = 0;
        while (read(loop->event_fd, &drain, sizeof(drain)) > 0) {
        }
        continue;
      }
      if (loop->index == 0 && ev.data.fd == listen_fd_) {
        AcceptReady(loop);
        continue;
      }
      auto it = loop->fd_to_conn.find(ev.data.fd);
      if (it == loop->fd_to_conn.end()) continue;
      Connection* conn = loop->conns[it->second].get();
      if (ev.events & (EPOLLERR | EPOLLHUP)) {
        CloseConnection(loop, conn);
        continue;
      }
      if (ev.events & EPOLLOUT) HandleWritable(loop, conn);
      // HandleWritable may close on fatal write error; re-check liveness.
      if (loop->fd_to_conn.count(ev.data.fd) == 0) continue;
      if (ev.events & (EPOLLIN | EPOLLRDHUP)) HandleReadable(loop, conn);
    }

    // Adopt handed-off fds and apply posted completions.
    std::deque<Completion> inbox;
    std::deque<int> adopt;
    {
      std::lock_guard<std::mutex> lock(loop->inbox_mu);
      inbox.swap(loop->inbox);
      adopt.swap(loop->pending_fds);
    }
    for (int fd : adopt) {
      auto conn = std::make_unique<Connection>();
      conn->fd = fd;
      conn->id = next_conn_id_.fetch_add(1, std::memory_order_relaxed);
      conn->loop_index = loop->index;
      epoll_event cev{};
      cev.events = EPOLLIN | EPOLLOUT | EPOLLRDHUP | EPOLLET;
      cev.data.fd = fd;
      if (epoll_ctl(loop->epoll_fd, EPOLL_CTL_ADD, fd, &cev) != 0) {
        close(fd);
        connections_closed_.fetch_add(1, std::memory_order_relaxed);
        connections_active_.fetch_sub(1, std::memory_order_relaxed);
        continue;
      }
      loop->fd_to_conn[fd] = conn->id;
      loop->conns[conn->id] = std::move(conn);
    }
    for (Completion& item : inbox) ApplyCompletion(loop, &item);
  }
  // Park: close every connection this loop still owns.
  std::vector<Connection*> remaining;
  remaining.reserve(loop->conns.size());
  for (auto& [id, conn] : loop->conns) remaining.push_back(conn.get());
  for (Connection* conn : remaining) CloseConnection(loop, conn);
}

void SocketServer::AcceptReady(EventLoop* loop) {
  (void)loop;
  while (true) {
    const int fd = accept4(listen_fd_, nullptr, nullptr,
                           SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) return;
      if (errno == EINTR) continue;
      return;  // EMFILE etc. — try again on the next event
    }
    connections_accepted_.fetch_add(1, std::memory_order_relaxed);
    if (connections_active_.load(std::memory_order_acquire) >=
        options_.max_connections) {
      // Accept-time shed: over the cap the cheapest safe action is to
      // close before allocating any per-connection state.
      shed_conn_cap_.fetch_add(1, std::memory_order_relaxed);
      connections_closed_.fetch_add(1, std::memory_order_relaxed);
      close(fd);
      continue;
    }
    connections_active_.fetch_add(1, std::memory_order_relaxed);
    const int one = 1;
    setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    SetNonBlocking(fd);
    AdoptConnection(fd);
  }
}

void SocketServer::AdoptConnection(int fd) {
  const int target = next_loop_.fetch_add(1, std::memory_order_relaxed) %
                     options_.event_loops;
  EventLoop* loop = loops_[static_cast<size_t>(target)].get();
  {
    std::lock_guard<std::mutex> lock(loop->inbox_mu);
    loop->pending_fds.push_back(fd);
  }
  WakeLoop(loop);
}

void SocketServer::CloseConnection(EventLoop* loop, Connection* conn) {
  if (conn->out.size() > conn->out_off) {
    unflushed_bytes_.fetch_sub(conn->out.size() - conn->out_off,
                               std::memory_order_relaxed);
  }
  // Fold this connection's parser bookkeeping into the server totals (the
  // live deltas were already folded after each Consume; nothing to do) and
  // release the fd.
  epoll_ctl(loop->epoll_fd, EPOLL_CTL_DEL, conn->fd, nullptr);
  close(conn->fd);
  loop->fd_to_conn.erase(conn->fd);
  connections_closed_.fetch_add(1, std::memory_order_relaxed);
  connections_active_.fetch_sub(1, std::memory_order_relaxed);
  loop->conns.erase(conn->id);  // frees conn
}

bool SocketServer::TryWrite(Connection* conn) {
  while (conn->out_off < conn->out.size()) {
    const ssize_t n = send(conn->fd, conn->out.data() + conn->out_off,
                           conn->out.size() - conn->out_off, MSG_NOSIGNAL);
    if (n > 0) {
      conn->out_off += static_cast<size_t>(n);
      bytes_written_.fetch_add(static_cast<uint64_t>(n),
                               std::memory_order_relaxed);
      unflushed_bytes_.fetch_sub(static_cast<uint64_t>(n),
                                 std::memory_order_relaxed);
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return true;
    if (n < 0 && errno == EINTR) continue;
    return false;  // peer gone
  }
  conn->out.clear();
  conn->out_off = 0;
  return true;
}

void SocketServer::MaybeClose(EventLoop* loop, Connection* conn) {
  // Waits for in-flight async answers too (a POST /query under
  // Connection: close): every pending response goes out before the close.
  if (conn->closing && conn->out_off >= conn->out.size() &&
      conn->in_flight == 0) {
    CloseConnection(loop, conn);
  }
}

void SocketServer::HandleWritable(EventLoop* loop, Connection* conn) {
  if (!TryWrite(conn)) {
    CloseConnection(loop, conn);
    return;
  }
  MaybeClose(loop, conn);
}

void SocketServer::HandleReadable(EventLoop* loop, Connection* conn) {
  uint8_t buf[kReadChunk];
  bool saw_eof = false;
  // Helpers below may close (and free) conn on fatal write errors; the
  // liveness re-checks must use the saved fd, never conn itself.
  const int fd = conn->fd;
  while (true) {
    const ssize_t n = read(fd, buf, sizeof(buf));
    if (n > 0) {
      bytes_read_.fetch_add(static_cast<uint64_t>(n),
                            std::memory_order_relaxed);
      // A closing connection serves nothing more: later bytes (a request
      // pipelined after Connection: close, more garbage after a 400) are
      // drained, so the close is a FIN rather than a reset that could
      // destroy the last response (RFC 7230 6.6), but never parsed.
      if (conn->closing) continue;
      if (conn->request_start_ns == 0) {
        conn->request_start_ns = TraceRecorder::NowNs();
      }
      if (conn->protocol == Protocol::kUnknown) {
        conn->protocol = (buf[0] == kNetFrameMagic)
                             ? Protocol::kBinary
                             : Protocol::kHttp;
      }
      if (conn->protocol == Protocol::kBinary) {
        std::vector<NetFrame> frames;
        const NetFrameStats before = conn->frames.stats();
        conn->frames.Consume(buf, static_cast<size_t>(n), &frames);
        const NetFrameStats& after = conn->frames.stats();
        for (size_t i = 0; i < std::size(kFrameStatsCounters); ++i) {
          const auto counter = kFrameStatsCounters[i];
          frame_counters_[i].fetch_add(after.*counter - before.*counter,
                                       std::memory_order_relaxed);
        }
        if (!frames.empty()) ProcessBinaryFrames(loop, conn, &frames);
        if (loop->fd_to_conn.count(fd) == 0) return;  // closed
        if (conn->frames.PendingBytes() == 0) conn->request_start_ns = 0;
      } else {
        conn->http.Feed(buf, static_cast<size_t>(n));
        ProcessHttp(loop, conn);
        if (loop->fd_to_conn.count(fd) == 0) return;  // closed
        if (conn->http.BufferedBytes() == 0) conn->request_start_ns = 0;
      }
      continue;
    }
    if (n == 0) {
      saw_eof = true;
      break;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    if (errno == EINTR) continue;
    saw_eof = true;  // fatal read error
    break;
  }
  if (!TryWrite(conn)) {
    CloseConnection(loop, conn);
    return;
  }
  if (saw_eof) conn->closing = true;
  MaybeClose(loop, conn);
}

// --- Binary protocol ------------------------------------------------------

void SocketServer::ProcessBinaryFrames(EventLoop* loop, Connection* conn,
                                       std::vector<NetFrame>* frames) {
  for (const NetFrame& frame : *frames) {
    switch (static_cast<NetOpcode>(frame.opcode)) {
      case NetOpcode::kPing: {
        pings_.fetch_add(1, std::memory_order_relaxed);
        const size_t before = conn->out.size();
        EncodeNetFrame(frame.request_id, NetOpcode::kPong, nullptr, 0,
                       &conn->out);
        unflushed_bytes_.fetch_add(conn->out.size() - before,
                                   std::memory_order_relaxed);
        break;
      }
      case NetOpcode::kRouteQuery:
        Admit(conn, &frame, nullptr);
        break;
      default: {
        rejected_bad_opcode_.fetch_add(1, std::memory_order_relaxed);
        std::vector<uint8_t> payload;
        EncodeErrorPayload(
            Status::InvalidArgument("net: unknown opcode"), &payload);
        const size_t before = conn->out.size();
        EncodeNetFrame(frame.request_id, NetOpcode::kError, payload.data(),
                       payload.size(), &conn->out);
        unflushed_bytes_.fetch_add(conn->out.size() - before,
                                   std::memory_order_relaxed);
        break;
      }
    }
  }
  if (!TryWrite(conn)) CloseConnection(loop, conn);
}

// --- Route-query admission (both protocols) -------------------------------

void SocketServer::Admit(Connection* conn, const NetFrame* frame,
                         const std::string* body) {
  const Protocol protocol = conn->protocol;
  const uint64_t now_ns = TraceRecorder::NowNs();
  const uint64_t start_ns =
      conn->request_start_ns != 0 ? conn->request_start_ns : now_ns;
  RouteQuery query;
  SubmitOptions submit;
  if (frame != nullptr) submit.client_request_id = frame->request_id;

  // Answers on this loop thread: the query never reached a worker, so no
  // callback will.
  auto reject = [&](const RouteAnswer& answer, std::atomic<uint64_t>* shed) {
    if (shed != nullptr) shed->fetch_add(1, std::memory_order_relaxed);
    CountAnswer(protocol, answer.status);
    const size_t before = conn->out.size();
    EncodeAnswer(protocol, answer, &conn->out);
    unflushed_bytes_.fetch_add(conn->out.size() - before,
                               std::memory_order_relaxed);
  };

  // A query shed before Submit never reaches the serve or shard tier, so
  // its flight record is completed here, at shard -1. With tracing on it
  // gets a request id and its net/read span; otherwise request id 0.
  auto shed = [&](Status status, std::atomic<uint64_t>* counter) {
    uint64_t request_id = 0;
    if (FlightRecorder::Enabled() && TraceRecorder::Enabled()) {
      request_id = TraceRecorder::Global().NextRequestId();
      TraceRecorder::Global().RecordSpan(
          "net/read", start_ns, now_ns,
          TraceContext{request_id, TraceRecorder::Global().NextSpanId()},
          static_cast<int64_t>(submit.client_request_id));
    }
    reject(AnswerUnserved(std::move(status), request_id, -1,
                          submit.client_request_id, submit.tenant_id),
           counter);
  };

  // These three run BEFORE the query is decoded, so a shed costs framing
  // (or HTTP parsing) only.
  if (serve_ == nullptr) {
    shed(Status::FailedPrecondition("net: no serve backend"), nullptr);
    return;
  }
  if (options_.admission_deadline_seconds > 0.0 &&
      static_cast<double>(now_ns - start_ns) * 1e-9 >
          options_.admission_deadline_seconds) {
    shed(Status::ResourceExhausted(
             "net: admission deadline exceeded before parse"),
         &shed_deadline_);
    return;
  }
  if (serve_->QueueFull()) {
    shed(Status::ResourceExhausted("net: serve queue full"),
         &shed_queue_full_);
    return;
  }

  Status decoded =
      protocol == Protocol::kBinary
          ? DecodeRouteQueryPayload(frame->payload.data(),
                                    frame->payload.size(), &query,
                                    &submit.priority, &submit.tenant_id)
          : DecodeHttpRouteQuery(*body, &query, &submit.priority,
                                 &submit.tenant_id, &submit.client_request_id);
  if (decoded.ok()) decoded = CheckRouteQueryBounds(query);
  if (!decoded.ok()) {
    shed(std::move(decoded), nullptr);
    return;
  }

  // Root the request's trace tree: net/request spans its whole life on the
  // socket; net/read covers first byte -> request complete; serve/submit
  // (and its subtree) attaches via SubmitOptions::trace_parent; net/write
  // closes the tree when the response goes out.
  uint64_t net_request_id = 0;
  uint64_t root_span_id = 0;
  if (TraceRecorder::Enabled()) {
    net_request_id = TraceRecorder::Global().NextRequestId();
    root_span_id = TraceRecorder::Global().NextSpanId();
    TraceRecorder::Global().RecordSpan(
        "net/read", start_ns, now_ns,
        TraceContext{net_request_id, root_span_id},
        static_cast<int64_t>(submit.client_request_id));
  }
  submit.queue_budget_seconds = options_.queue_budget_seconds;
  submit.trace_parent = TraceContext{net_request_id, root_span_id};

  std::shared_ptr<CompletionRouter> router = router_;
  const int loop_index = conn->loop_index;
  const uint64_t conn_id = conn->id;
  router->in_flight.fetch_add(1, std::memory_order_acq_rel);
  ++conn->in_flight;

  Status admitted = serve_->Submit(
      std::move(query),
      [router, protocol, loop_index, conn_id, start_ns, root_span_id,
       net_request_id](const RouteAnswer& answer) {
        // Serve-worker thread: encode here, ship bytes to the owning loop.
        Completion item{conn_id, {}, start_ns, root_span_id, net_request_id};
        EncodeAnswer(protocol, answer, &item.bytes);
        {
          std::lock_guard<std::mutex> lock(router->mu);
          if (router->server != nullptr) {
            router->server->CountAnswer(protocol, answer.status);
            router->server->PostCompletion(loop_index, std::move(item));
          } else {
            router->dropped.fetch_add(1, std::memory_order_relaxed);
          }
        }
        router->in_flight.fetch_sub(1, std::memory_order_acq_rel);
      },
      submit);
  if (admitted.ok()) return;

  // Shed by the service itself: the callback was not retained, and the
  // serve or shard tier has completed its flight record. The reason comes
  // from the status code, never from its message.
  router->in_flight.fetch_sub(1, std::memory_order_acq_rel);
  --conn->in_flight;
  const StatusCode code = admitted.code();
  RouteAnswer answer;
  answer.status = std::move(admitted);
  answer.client_request_id = submit.client_request_id;
  reject(answer,
         code == StatusCode::kResourceExhausted    ? &shed_queue_full_
         : code == StatusCode::kUnavailable        ? &shed_unavailable_
         : code == StatusCode::kFailedPrecondition ? &shed_closed_
                                                   : nullptr);
}

void SocketServer::EncodeAnswer(Protocol protocol, const RouteAnswer& answer,
                                std::vector<uint8_t>* out) {
  const bool ok = answer.status.ok();
  if (protocol == Protocol::kBinary) {
    std::vector<uint8_t> payload;
    if (ok) {
      EncodeRouteAnswerPayload(answer, &payload);
    } else {
      EncodeErrorPayload(answer.status, &payload);
    }
    EncodeNetFrame(answer.client_request_id,
                   ok ? NetOpcode::kRouteAnswer : NetOpcode::kError,
                   payload.data(), payload.size(), out);
    return;
  }
  std::ostringstream body;
  if (ok) {
    body << "{\"status\":\"ok\",\"code\":0"
         << ",\"cost_mean_seconds\":" << JsonNumber(answer.cost_mean_seconds)
         << ",\"on_time_probability\":"
         << JsonNumber(answer.on_time_probability)
         << ",\"num_candidates\":" << answer.num_candidates
         << ",\"request_id\":" << answer.client_request_id
         << ",\"route_edges\":[";
    for (size_t i = 0; i < answer.route.edges.size(); ++i) {
      if (i) body << ",";
      body << answer.route.edges[i];
    }
    body << "]}";
  } else {
    body << "{\"status\":\"error\",\"code\":"
         << static_cast<int>(answer.status.code()) << ",\"message\":\""
         << JsonEscape(answer.status.message()) << "\",\"request_id\":"
         << answer.client_request_id << "}";
  }
  const int code = ok ? 200
                   : answer.status.code() == StatusCode::kInvalidArgument
                       ? 400
                       : 503;
  WriteHttpResponse(code, "application/json", body.str(), out);
}

void SocketServer::CountAnswer(Protocol protocol, const Status& status) {
  std::atomic<uint64_t>* counter = nullptr;
  if (protocol == Protocol::kBinary) {
    counter = status.ok() ? &queries_answered_ : &queries_failed_;
  } else if (status.ok()) {
    counter = &http_query_;
  } else if (status.code() == StatusCode::kInvalidArgument) {
    counter = &http_bad_request_;
  }
  if (counter != nullptr) counter->fetch_add(1, std::memory_order_relaxed);
}

void SocketServer::ApplyCompletion(EventLoop* loop, Completion* item) {
  auto it = loop->conns.find(item->conn_id);
  if (it == loop->conns.end()) {
    // The connection died while the answer was in flight.
    router_->dropped.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  Connection* conn = it->second.get();
  if (conn->in_flight > 0) --conn->in_flight;
  const uint64_t apply_ns = TraceRecorder::NowNs();
  conn->out.insert(conn->out.end(), item->bytes.begin(), item->bytes.end());
  unflushed_bytes_.fetch_add(item->bytes.size(), std::memory_order_relaxed);
  if (!TryWrite(conn)) {
    CloseConnection(loop, conn);
    return;
  }
  const uint64_t done_ns = TraceRecorder::NowNs();
  if (item->start_ns != 0) {
    std::lock_guard<std::mutex> lock(latency_mu_);
    wire_latency_.Add(1e-9 * static_cast<double>(done_ns - item->start_ns));
  }
  if (item->root_span_id != 0 && TraceRecorder::Enabled()) {
    TraceRecorder::Global().RecordSpan(
        "net/write", apply_ns, done_ns,
        TraceContext{item->net_request_id, item->root_span_id});
    // Close the root retrospectively now that the request's extent is
    // known; its span id was fixed up front so the children already point
    // at it.
    TraceRecorder::Global().Record("net/request", item->start_ns, done_ns,
                                  TraceEvent::kNoArg, item->root_span_id,
                                  /*parent_span_id=*/0, item->net_request_id);
  }
  MaybeClose(loop, conn);
}

// --- HTTP -----------------------------------------------------------------

void SocketServer::ProcessHttp(EventLoop* loop, Connection* conn) {
  while (true) {
    HttpRequest req;
    const HttpParser::Result r = conn->http.Next(&req);
    if (r == HttpParser::Result::kNeedMore) return;
    if (r == HttpParser::Result::kBadRequest) {
      Respond(conn, &http_bad_request_, 400, "text/plain", "bad request\n");
      conn->closing = true;
      break;
    }
    if (r == HttpParser::Result::kTooLarge) {
      Respond(conn, &http_too_large_, 431, "text/plain",
              "request too large\n");
      conn->closing = true;
      break;
    }
    ServeHttpRequest(conn, req);
    if (req.Header("connection") == "close") {
      conn->closing = true;
      break;
    }
  }
  if (!TryWrite(conn)) {
    CloseConnection(loop, conn);
    return;
  }
  MaybeClose(loop, conn);
}

void SocketServer::Respond(Connection* conn, std::atomic<uint64_t>* counter,
                           int code, const std::string& type,
                           const std::string& body) {
  if (counter != nullptr) counter->fetch_add(1, std::memory_order_relaxed);
  const size_t before = conn->out.size();
  WriteHttpResponse(code, type, body, &conn->out);
  unflushed_bytes_.fetch_add(conn->out.size() - before,
                             std::memory_order_relaxed);
}

void SocketServer::ServeHttpRequest(Connection* conn, const HttpRequest& req) {
  // Endpoints route on the path; the query string (everything after '?')
  // only matters to the /debug endpoints and is bounded before parsing.
  std::string path, query;
  SplitTarget(req.target, &path, &query);
  if (path != "/metrics" && path != "/health" && path != "/debug/traces" &&
      path != "/debug/flight" && path != "/query") {
    Respond(conn, &http_not_found_, 404, "text/plain", "not found\n");
    return;
  }
  // POST /query is the one endpoint that is not a GET.
  if (req.method != (path == "/query" ? "POST" : "GET")) {
    Respond(conn, &http_method_not_allowed_, 405, "text/plain",
            "method not allowed\n");
    return;
  }

  if (path == "/query") {
    Admit(conn, nullptr, &req.body);
  } else if (path == "/metrics") {
    // Counted before the export, so the scrape includes itself.
    http_metrics_.fetch_add(1, std::memory_order_relaxed);
    Respond(conn, nullptr, 200, "text/plain; version=0.0.4",
            MetricsExporter::ExportPrometheus());
  } else if (path == "/health") {
    const HealthSnapshot health =
        options_.health_source ? options_.health_source() : HealthSnapshot();
    Respond(conn, &http_health_, 200, "application/json",
            MetricsExporter::Describe(health).ToJson());
  } else if (path == "/debug/flight") {
    const std::string dump = FlightRecorder::Global().LatestDumpJson();
    if (dump.empty()) {
      Respond(conn, &http_not_found_, 404, "text/plain", "no flight dump\n");
    } else {
      Respond(conn, &http_debug_flight_, 200, "application/json", dump);
    }
  } else {  // /debug/traces
    uint64_t n = kDefaultDebugTraces;
    std::string bad;
    if (query.size() > kMaxDebugQueryBytes) {
      bad = "query string too long\n";
    } else if (ParseQueryParamU64(query, "n", &n) == QueryParamResult::kBad) {
      bad = "bad query parameter: n\n";
    } else if (n == 0 || n > kMaxDebugTraces) {
      bad = "bad query parameter: n must be in [1, " +
            std::to_string(kMaxDebugTraces) + "]\n";
    }
    if (!bad.empty()) {
      Respond(conn, &http_bad_request_, 400, "text/plain", bad);
    } else {
      Respond(conn, &http_debug_traces_, 200, "application/json",
              FlightRecorder::Global().ToChromeTraceJson(
                  static_cast<size_t>(n)));
    }
  }
}

// --- Stats / metrics ------------------------------------------------------

NetStatsSnapshot SocketServer::Stats() const {
  NetStatsSnapshot s;
  s.connections_accepted =
      connections_accepted_.load(std::memory_order_relaxed);
  s.connections_closed = connections_closed_.load(std::memory_order_relaxed);
  s.connections_active = connections_active_.load(std::memory_order_relaxed);
  s.shed_conn_cap = shed_conn_cap_.load(std::memory_order_relaxed);
  s.shed_queue_full = shed_queue_full_.load(std::memory_order_relaxed);
  s.shed_deadline = shed_deadline_.load(std::memory_order_relaxed);
  s.shed_unavailable = shed_unavailable_.load(std::memory_order_relaxed);
  s.shed_closed = shed_closed_.load(std::memory_order_relaxed);
  for (size_t i = 0; i < std::size(kFrameStatsCounters); ++i) {
    s.frames.*kFrameStatsCounters[i] =
        frame_counters_[i].load(std::memory_order_relaxed);
  }
  s.rejected_bad_opcode = rejected_bad_opcode_.load(std::memory_order_relaxed);
  s.queries_answered = queries_answered_.load(std::memory_order_relaxed);
  s.queries_failed = queries_failed_.load(std::memory_order_relaxed);
  s.pings = pings_.load(std::memory_order_relaxed);
  s.http_metrics = http_metrics_.load(std::memory_order_relaxed);
  s.http_health = http_health_.load(std::memory_order_relaxed);
  s.http_query = http_query_.load(std::memory_order_relaxed);
  s.http_debug_traces = http_debug_traces_.load(std::memory_order_relaxed);
  s.http_debug_flight = http_debug_flight_.load(std::memory_order_relaxed);
  s.http_bad_request = http_bad_request_.load(std::memory_order_relaxed);
  s.http_not_found = http_not_found_.load(std::memory_order_relaxed);
  s.http_method_not_allowed =
      http_method_not_allowed_.load(std::memory_order_relaxed);
  s.http_too_large = http_too_large_.load(std::memory_order_relaxed);
  s.completions_dropped =
      router_ ? router_->dropped.load(std::memory_order_relaxed) : 0;
  s.bytes_read = bytes_read_.load(std::memory_order_relaxed);
  s.bytes_written = bytes_written_.load(std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lock(latency_mu_);
    s.wire_latency = wire_latency_;
  }
  return s;
}

void SocketServer::RegisterMetricsSources() {
  MetricsExporter::RegisterSource(
      "net", [this] { return MetricsExporter::Describe(Stats()); });
  if (serve_ != nullptr) {
    QueryService* serve = serve_;
    MetricsExporter::RegisterSource(
        "serve", [serve] { return MetricsExporter::Describe(serve->Stats()); });
  }
  // Observability self-metrics ride the same registry, so GET /metrics
  // carries tsdm_trace_dropped_total and the tsdm_flight_* families
  // whenever the front door is up. Both wrap process-global singletons —
  // no lifetime hazard, but unregistered symmetrically anyway.
  MetricsExporter::RegisterSource("trace", [] {
    return MetricsExporter::Describe(TraceRecorder::Global());
  });
  MetricsExporter::RegisterSource("flight", [] {
    return MetricsExporter::Describe(FlightRecorder::Global().Stats());
  });
}

void SocketServer::UnregisterMetricsSources() {
  MetricsExporter::UnregisterSource("net");
  if (serve_ != nullptr) MetricsExporter::UnregisterSource("serve");
  MetricsExporter::UnregisterSource("trace");
  MetricsExporter::UnregisterSource("flight");
}

}  // namespace tsdm
