#ifndef TSDM_NET_NET_STATS_H_
#define TSDM_NET_NET_STATS_H_

#include <cstdint>

#include "src/common/histogram_ext.h"
#include "src/net/wire.h"

namespace tsdm {

/// One coherent snapshot of the network front door's counters — the shape
/// MetricsExporter::NetTo* serializes (tsdm_net_* families). Plain data so
/// obs can depend on it without pulling in the socket server.
struct NetStatsSnapshot {
  // Connections.
  uint64_t connections_accepted = 0;
  uint64_t connections_closed = 0;
  size_t connections_active = 0;

  // Socket-layer admission sheds, by reason. SocketServer documents which
  // happen before the query is decoded and which come from Submit.
  uint64_t shed_conn_cap = 0;
  uint64_t shed_queue_full = 0;
  uint64_t shed_deadline = 0;
  uint64_t shed_unavailable = 0;
  uint64_t shed_closed = 0;

  // Binary protocol (aggregated over all connections' FrameParsers).
  NetFrameStats frames;
  uint64_t rejected_bad_opcode = 0;  ///< intact frame, unknown opcode

  // Wire route queries that reached the serve layer.
  uint64_t queries_answered = 0;  ///< answered with kRouteAnswer (status OK)
  uint64_t queries_failed = 0;    ///< answered with kError (any reason)
  uint64_t pings = 0;

  // HTTP endpoint.
  uint64_t http_metrics = 0;             ///< GET /metrics served
  uint64_t http_health = 0;              ///< GET /health served
  uint64_t http_query = 0;               ///< POST /query served OK
  uint64_t http_debug_traces = 0;        ///< GET /debug/traces served
  uint64_t http_debug_flight = 0;        ///< GET /debug/flight served
  uint64_t http_bad_request = 0;         ///< 400
  uint64_t http_not_found = 0;           ///< 404
  uint64_t http_method_not_allowed = 0;  ///< 405
  uint64_t http_too_large = 0;           ///< 413/431

  // Responses whose connection vanished before the answer was ready.
  uint64_t completions_dropped = 0;

  uint64_t bytes_read = 0;
  uint64_t bytes_written = 0;

  /// Wire-level request latency: first byte of the request read ->
  /// response fully handed to the kernel, for admitted route queries on
  /// both protocols (binary and POST /query).
  LatencyHistogram wire_latency;

  uint64_t ShedTotal() const {
    return shed_conn_cap + shed_queue_full + shed_deadline + shed_unavailable +
           shed_closed;
  }
  uint64_t HttpErrorsTotal() const {
    return http_bad_request + http_not_found + http_method_not_allowed +
           http_too_large;
  }
};

}  // namespace tsdm

#endif  // TSDM_NET_NET_STATS_H_
