#ifndef TSDM_NET_WIRE_H_
#define TSDM_NET_WIRE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/common/framed_parser.h"
#include "src/common/status.h"
#include "src/serve/request_queue.h"

namespace tsdm {

/// Binary request/response frame — the compact length-prefixed format the
/// network front door speaks. Same framing as the tick format
/// (src/common/framed_parser.h): a magic byte, an explicit length, and a
/// trailing CRC-32 that covers the header too, so a corrupted length byte
/// fails the checksum instead of silently reframing the stream. All
/// integers little-endian:
///
///   offset  size  field
///   0       1     magic 0xC9
///   1       4     u32 body length L (L = 9 + payload size, L in [9, 2^20])
///   5       8     u64 request id (client-assigned, echoed in the response)
///   13      1     u8 opcode
///   14      L-9   payload (opcode-specific, see below)
///   5+L     4     CRC-32 (IEEE) over bytes [0, 5+L)
///
/// Frame size on the wire = 9 + L. Request ids are an end-to-end
/// correlation handle: the server never interprets them beyond echoing
/// them, so clients may pipeline any number of requests on one connection
/// and match answers by id.
inline constexpr uint8_t kNetFrameMagic = 0xC9;
inline constexpr size_t kNetBodyMinSize = 9;       ///< request id + opcode
inline constexpr size_t kNetBodyMaxSize = 1 << 20;
using NetFrameFormat =
    FrameFormat<kNetFrameMagic, uint32_t, kNetBodyMinSize, kNetBodyMaxSize>;

/// Request opcodes (client -> server) occupy [0x01, 0x7E]; response opcodes
/// (server -> client) are the request opcode | 0x80. 0x7F is the typed
/// error response any request can receive instead of its success response.
enum class NetOpcode : uint8_t {
  kPing = 0x01,        ///< empty payload; answered by kPong
  kRouteQuery = 0x02,  ///< RouteQuery payload; answered by kRouteAnswer
  kError = 0x7F,       ///< u8 status code | UTF-8 message
  kPong = 0x81,        ///< empty payload
  kRouteAnswer = 0x82, ///< see EncodeRouteAnswerPayload
};

/// One parsed frame: the body fields with the framing stripped.
struct NetFrame {
  uint64_t request_id = 0;
  uint8_t opcode = 0;
  std::vector<uint8_t> payload;
};

struct NetFrameStats : FrameStats {
  uint64_t RejectedTotal() const {
    return rejected_bad_length + rejected_bad_crc;
  }
};

/// Frame spec of the wire protocol for FramedParser. Every CRC-verified
/// frame is accepted: opcodes are checked by the SocketServer, which answers
/// an unknown one with a typed error instead of dropping it.
struct NetFrameSpec : NetFrameFormat {
  using Message = NetFrame;
  using Stats = NetFrameStats;
  static constexpr const char* kLengthError = "net: frame body length";
  static constexpr const char* kCrcError = "net: frame CRC mismatch";

 protected:
  static FrameVerdict<Stats> Decode(const uint8_t* body, size_t len,
                                    Stats* stats, std::vector<NetFrame>* out);
};

/// Incremental parser for the net frame format (see FramedParser for the
/// framing and resynchronization rules). One parser per connection, driven
/// by that connection's event loop.
using FrameParser = FramedParser<NetFrameSpec>;

/// Appends the encoded frame (header, body, CRC) to *out.
void EncodeNetFrame(uint64_t request_id, NetOpcode opcode,
                    const uint8_t* payload, size_t payload_size,
                    std::vector<uint8_t>* out);

// --- Opcode payloads ------------------------------------------------------

/// kRouteQuery payload. Legacy form (32 bytes): the RouteQuery fields
/// block of PutRouteQueryFields,
///   i32 source | i32 target | i32 k | 4 reserved bytes (0) |
///   f64 depart_seconds | f64 arrival_deadline_seconds
/// Extended form (34 + tenant_len bytes) appends the scheduling fields:
///   ... | u8 priority | u8 tenant_len | tenant_len bytes of tenant id
/// Decoders accept both — a legacy frame means priority 0 and an empty
/// tenant (the reserved kDefaultTenant), so old clients keep working
/// against a tenant-aware server and vice versa.
inline constexpr size_t kRouteQueryPayloadSize = kRouteQueryFieldsSize;
inline constexpr size_t kRouteQueryMaxTenantLen = 255;
void EncodeRouteQueryPayload(const RouteQuery& query,
                             std::vector<uint8_t>* out);
/// Extended encoder: emits the legacy 32-byte form when priority == 0 and
/// the tenant is empty (so default-configured clients stay byte-identical
/// to the old protocol), the extended form otherwise. Tenants longer than
/// kRouteQueryMaxTenantLen are truncated.
void EncodeRouteQueryPayloadEx(const RouteQuery& query, int priority,
                               const std::string& tenant,
                               std::vector<uint8_t>* out);
/// Decodes either form. `priority` / `tenant` (when non-null) receive the
/// extended fields, or 0 / "" for a legacy frame.
Status DecodeRouteQueryPayload(const uint8_t* payload, size_t size,
                               RouteQuery* out, int* priority = nullptr,
                               std::string* tenant = nullptr);

/// Largest candidate count a remote query may ask for. Yen's cost grows
/// faster than linearly in k, so an unbounded k lets one request pin a
/// worker (or, for a scattered query, a socket event loop) for minutes.
inline constexpr int kMaxQueryK = 64;

/// The bounds every route query from outside input must satisfy, whatever
/// protocol carried it: k in [1, kMaxQueryK] and finite departure and
/// deadline times (a non-finite time has no departure bucket).
/// InvalidArgument otherwise.
Status CheckRouteQueryBounds(const RouteQuery& query);

/// kRouteAnswer payload:
///   u8 status code | f64 cost_mean_seconds | f64 on_time_probability |
///   i32 num_candidates | u32 edge count N | u32 edge id x N
/// A non-OK status carries zeroed summary fields and N = 0.
void EncodeRouteAnswerPayload(const RouteAnswer& answer,
                              std::vector<uint8_t>* out);

/// Client-side decoded answer: the wire image of RouteAnswer (the Path is
/// flattened to edge ids — the client does not hold the RoadNetwork).
struct WireRouteAnswer {
  StatusCode status_code = StatusCode::kOk;
  double cost_mean_seconds = 0.0;
  double on_time_probability = 0.0;
  int num_candidates = 0;
  std::vector<uint32_t> edges;
};
Status DecodeRouteAnswerPayload(const uint8_t* payload, size_t size,
                                WireRouteAnswer* out);

/// kError payload: u8 status code | UTF-8 message (rest of payload).
void EncodeErrorPayload(const Status& status, std::vector<uint8_t>* out);
Status DecodeErrorPayload(const uint8_t* payload, size_t size);

}  // namespace tsdm

#endif  // TSDM_NET_WIRE_H_
