#ifndef TSDM_NET_NET_CLIENT_H_
#define TSDM_NET_NET_CLIENT_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "src/common/status.h"
#include "src/net/wire.h"

namespace tsdm {

/// Blocking client for the binary wire protocol — the counterpart tests,
/// benches, and examples use to talk to a SocketServer. One TCP connection
/// per client; requests may be pipelined (SendQuery repeatedly, then
/// ReceiveFrame/ReceiveAnswer to drain) or issued synchronously (Query,
/// Ping). Not thread-safe: one thread per client, like one connection per
/// event loop on the server side.
class NetClient {
 public:
  NetClient() = default;
  ~NetClient() { Close(); }

  NetClient(const NetClient&) = delete;
  NetClient& operator=(const NetClient&) = delete;

  /// Connects to host:port (numeric IPv4, e.g. "127.0.0.1").
  Status Connect(const std::string& host, uint16_t port);
  void Close();
  bool connected() const { return fd_ >= 0; }

  /// Round-trips a ping frame.
  Status Ping();

  /// Per-query scheduling fields carried in the extended kRouteQuery
  /// payload. Defaults encode the legacy 32-byte form, byte-identical to
  /// the pre-tenant protocol.
  struct QueryOptions {
    int priority = 0;        ///< scheduling class, see SubmitOptions
    std::string tenant_id;   ///< workload tenant ("" = "default")
  };

  /// Synchronous route query: sends one frame, blocks for its answer.
  /// Non-OK Status is a transport/protocol failure; an application-level
  /// rejection arrives as out->status_code != kOk.
  Status Query(const RouteQuery& query, WireRouteAnswer* out);
  Status Query(const RouteQuery& query, const QueryOptions& options,
               WireRouteAnswer* out);

  /// Pipelining surface: sends a query frame without waiting. The assigned
  /// request id comes back in *request_id for matching the answer.
  Status SendQuery(const RouteQuery& query, uint64_t* request_id);
  Status SendQuery(const RouteQuery& query, const QueryOptions& options,
                   uint64_t* request_id);

  /// Blocks for the next frame from the server (any opcode).
  Status ReceiveFrame(NetFrame* out);

  /// Blocks for the next answer frame and decodes it: a kRouteAnswer fills
  /// *out; a kError frame fills out->status_code (and returns OK — the
  /// transport worked, the request was rejected). *request_id gets the
  /// echoed id either way.
  Status ReceiveAnswer(uint64_t* request_id, WireRouteAnswer* out);

  /// Writes raw bytes to the socket — the hostile-input hook for protocol
  /// tests (corrupt frames, partial frames, garbage).
  Status SendRaw(const uint8_t* data, size_t size);

  /// One-shot HTTP/1.1 exchange against the same port (separate
  /// connection, Connection: close).
  struct HttpResponse {
    int status_code = 0;
    std::string body;
    std::vector<std::pair<std::string, std::string>> headers;  ///< lowercased
  };
  static Status HttpGet(const std::string& host, uint16_t port,
                        const std::string& target, HttpResponse* out);
  static Status HttpPost(const std::string& host, uint16_t port,
                         const std::string& target,
                         const std::string& content_type,
                         const std::string& body, HttpResponse* out);

 private:
  static Status HttpExchange(const std::string& host, uint16_t port,
                             const std::string& request, HttpResponse* out);

  int fd_ = -1;
  uint64_t next_request_id_ = 1;
  FrameParser parser_;
  std::vector<NetFrame> pending_;  ///< frames parsed ahead of consumption
};

}  // namespace tsdm

#endif  // TSDM_NET_NET_CLIENT_H_
