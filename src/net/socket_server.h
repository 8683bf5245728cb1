#ifndef TSDM_NET_SOCKET_SERVER_H_
#define TSDM_NET_SOCKET_SERVER_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <iterator>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "src/common/status.h"
#include "src/net/http.h"
#include "src/net/net_stats.h"
#include "src/net/wire.h"
#include "src/obs/health.h"
#include "src/serve/query_service.h"

namespace tsdm {

/// The network front door: an epoll-based non-blocking socket server that
/// exposes the serving layer to remote clients over one listening port
/// speaking two protocols, sniffed from the first byte of each connection:
///
///   0xC9 ........ the compact binary frame protocol (src/net/wire.h) —
///                 pipelined route queries and pings, answered
///                 asynchronously as the serve layer completes them;
///   anything else HTTP/1.1 — GET /metrics (Prometheus text via the
///                 MetricsExporter source registry), GET /health
///                 (HealthSnapshot JSON), POST /query (flat JSON route
///                 query).
///
/// Threading: one listener (owned by event loop 0, edge-triggered accept)
/// plus `event_loops` epoll threads; accepted connections are assigned
/// round-robin and then touched only by their owning loop, so per-
/// connection state (parsers, buffers) is single-threaded by construction.
/// Serve-layer answers arrive on worker threads; each completion is
/// encoded there and posted to the owning loop's inbox (mutex + eventfd
/// wake), which writes it out on the loop thread — the socket is never
/// written from two threads.
///
/// Admission control extends to the socket layer: both protocols admit a
/// route query through one path (Admit). A shed answers a typed error
/// frame or a 503 and is counted by reason (tsdm_net_sheds_total):
///   conn_cap     at accept, past max_connections: the socket is closed;
///   deadline     before decode: the request took more than
///                admission_deadline_seconds from first to last byte;
///   queue_full   before decode when QueueFull() (nothing can admit), or
///                Submit returned ResourceExhausted (owner full, quota);
///   unavailable  Submit returned Unavailable (owning shard stopped);
///   closed       Submit returned FailedPrecondition (service stopped).
/// A query that fails to decode or CheckRouteQueryBounds is answered
/// InvalidArgument (HTTP 400), not shed.
///
/// Tracing: each route query, on either protocol, roots a `net/request`
/// span (under a TraceRecorder::NextRequestId id, unique process-wide
/// across every front door) with children `net/read` (first byte -> request complete), the serve layer's
/// own `serve/submit` subtree (linked via SubmitOptions::trace_parent), and
/// `net/write` (completion applied -> bytes handed to the kernel).
class SocketServer {
 public:
  struct Options {
    /// TCP port to bind (loopback); 0 picks an ephemeral port, readable
    /// from port() after Start.
    uint16_t port = 0;
    /// Epoll event-loop threads. Loop 0 additionally owns the listener.
    int event_loops = 2;
    /// Accept-time connection cap; above it new sockets are closed
    /// immediately (shed_conn_cap).
    size_t max_connections = 256;
    /// Queue budget handed to SubmitOptions for route queries.
    double queue_budget_seconds = 0.25;
    /// Admission deadline: a route query (frame or POST /query) whose last
    /// byte arrives more than this after its first byte is shed before it
    /// is decoded (<= 0 disables).
    double admission_deadline_seconds = 0.0;
    /// Snapshot for GET /health; when unset the endpoint serves a default
    /// (empty) HealthSnapshot.
    std::function<HealthSnapshot()> health_source;
    /// Register this server (and, when serve != nullptr, the serve layer)
    /// in the MetricsExporter source registry for the lifetime of
    /// Start..Stop, so GET /metrics serves the aggregate document.
    bool register_metrics_sources = true;
  };

  /// `serve` handles route queries and must outlive Stop(); nullptr makes
  /// query opcodes answer FailedPrecondition (metrics/health still work).
  /// Any QueryService works — a single QueryServer or a ShardRouter
  /// fronting a fleet — so wire clients are shard-oblivious by
  /// construction.
  explicit SocketServer(QueryService* serve) : SocketServer(serve, Options()) {}
  SocketServer(QueryService* serve, Options options);
  ~SocketServer();

  SocketServer(const SocketServer&) = delete;
  SocketServer& operator=(const SocketServer&) = delete;

  /// Binds, listens, spawns the event loops, and registers metrics
  /// sources. FailedPrecondition if already started; Internal on socket
  /// errors (the OS error is in the message).
  Status Start();

  /// Drains in-flight wire requests (bounded wait), parks the loops, joins
  /// them, closes every socket, and unregisters metrics sources.
  /// Idempotent.
  void Stop();

  /// The bound port (after Start); 0 before.
  uint16_t port() const { return port_; }

  NetStatsSnapshot Stats() const;

 private:
  enum class Protocol { kUnknown, kBinary, kHttp };
  struct Connection;
  struct EventLoop;
  /// An encoded response crossing from a serve worker (or another loop)
  /// back to the connection's owning loop.
  struct Completion {
    uint64_t conn_id = 0;
    std::vector<uint8_t> bytes;
    /// Wire-latency sample start (0 = do not record).
    uint64_t start_ns = 0;
    /// net/request root linkage (0 = untraced).
    uint64_t root_span_id = 0;
    uint64_t net_request_id = 0;
  };
  /// Outlives the server in serve-callback captures: completions arriving
  /// after Stop() drop here instead of touching freed loops.
  struct CompletionRouter {
    std::mutex mu;
    SocketServer* server = nullptr;  ///< null once the server stops
    std::atomic<int> in_flight{0};
    std::atomic<uint64_t> dropped{0};
  };

  Status Listen();
  void LoopMain(int loop_index);
  void AcceptReady(EventLoop* loop);
  void AdoptConnection(int fd);
  void HandleReadable(EventLoop* loop, Connection* conn);
  void HandleWritable(EventLoop* loop, Connection* conn);
  void CloseConnection(EventLoop* loop, Connection* conn);
  /// Flushes conn->out as far as the kernel accepts; false on fatal error.
  bool TryWrite(Connection* conn);
  void MaybeClose(EventLoop* loop, Connection* conn);

  void ProcessBinaryFrames(EventLoop* loop, Connection* conn,
                           std::vector<NetFrame>* frames);
  void ProcessHttp(EventLoop* loop, Connection* conn);
  void ServeHttpRequest(Connection* conn, const HttpRequest& req);
  /// Counts (when counter != nullptr) and writes one HTTP response.
  void Respond(Connection* conn, std::atomic<uint64_t>* counter, int code,
               const std::string& type, const std::string& body);
  /// The one admission path for a route query on conn->protocol: `frame`
  /// carries a binary query, `body` a POST /query body.
  void Admit(Connection* conn, const NetFrame* frame, const std::string* body);
  /// Appends a kRouteAnswer or kError frame, or a JSON HTTP response (200,
  /// 400 for InvalidArgument, 503 otherwise).
  static void EncodeAnswer(Protocol protocol, const RouteAnswer& answer,
                           std::vector<uint8_t>* out);
  /// Counts a finished query: queries_answered/queries_failed for binary,
  /// http_query/http_bad_request for HTTP.
  void CountAnswer(Protocol protocol, const Status& status);

  void PostCompletion(int loop_index, Completion item);
  void ApplyCompletion(EventLoop* loop, Completion* item);
  void WakeLoop(EventLoop* loop);

  void RegisterMetricsSources();
  void UnregisterMetricsSources();

  QueryService* serve_;
  Options options_;

  int listen_fd_ = -1;
  std::atomic<uint16_t> port_{0};
  std::vector<std::unique_ptr<EventLoop>> loops_;
  std::shared_ptr<CompletionRouter> router_;
  std::atomic<bool> running_{false};
  bool started_ = false;
  std::atomic<uint64_t> next_conn_id_{1};
  std::atomic<int> next_loop_{0};

  // Counters (written by loop threads, read by Stats()).
  std::atomic<uint64_t> connections_accepted_{0};
  std::atomic<uint64_t> connections_closed_{0};
  std::atomic<size_t> connections_active_{0};
  std::atomic<uint64_t> shed_conn_cap_{0};
  std::atomic<uint64_t> shed_queue_full_{0};
  std::atomic<uint64_t> shed_deadline_{0};
  std::atomic<uint64_t> shed_unavailable_{0};
  std::atomic<uint64_t> shed_closed_{0};
  /// All connections' FrameParser counters, one per kFrameStatsCounters.
  std::atomic<uint64_t> frame_counters_[std::size(kFrameStatsCounters)]{};
  std::atomic<uint64_t> rejected_bad_opcode_{0};
  std::atomic<uint64_t> queries_answered_{0};
  std::atomic<uint64_t> queries_failed_{0};
  std::atomic<uint64_t> pings_{0};
  std::atomic<uint64_t> http_metrics_{0};
  std::atomic<uint64_t> http_health_{0};
  std::atomic<uint64_t> http_query_{0};
  std::atomic<uint64_t> http_debug_traces_{0};
  std::atomic<uint64_t> http_debug_flight_{0};
  std::atomic<uint64_t> http_bad_request_{0};
  std::atomic<uint64_t> http_not_found_{0};
  std::atomic<uint64_t> http_method_not_allowed_{0};
  std::atomic<uint64_t> http_too_large_{0};
  std::atomic<uint64_t> bytes_read_{0};
  std::atomic<uint64_t> bytes_written_{0};
  /// Bytes appended to write buffers and not yet accepted by the kernel —
  /// Stop() waits for this to reach 0 (bounded) before parking the loops.
  std::atomic<uint64_t> unflushed_bytes_{0};

  mutable std::mutex latency_mu_;
  LatencyHistogram wire_latency_;
};

}  // namespace tsdm

#endif  // TSDM_NET_SOCKET_SERVER_H_
