#include "src/net/wire.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "src/common/bytes.h"

namespace tsdm {

FrameVerdict<NetFrameStats> NetFrameSpec::Decode(const uint8_t* body,
                                                 size_t len, NetFrameStats*,
                                                 std::vector<NetFrame>* out) {
  NetFrame& frame = out->emplace_back();
  frame.request_id = GetU64(body);
  frame.opcode = body[8];
  frame.payload.assign(body + kNetBodyMinSize, body + len);
  return {};
}

void EncodeNetFrame(uint64_t request_id, NetOpcode opcode,
                    const uint8_t* payload, size_t payload_size,
                    std::vector<uint8_t>* out) {
  const size_t start = NetFrameFormat::Begin(out);
  PutU64(out, request_id);
  PutU8(out, static_cast<uint8_t>(opcode));
  if (payload_size > 0) out->insert(out->end(), payload, payload + payload_size);
  NetFrameFormat::End(start, out);
}

void EncodeRouteQueryPayload(const RouteQuery& query,
                             std::vector<uint8_t>* out) {
  PutRouteQueryFields(query, out);
}

void EncodeRouteQueryPayloadEx(const RouteQuery& query, int priority,
                               const std::string& tenant,
                               std::vector<uint8_t>* out) {
  EncodeRouteQueryPayload(query, out);
  if (priority == 0 && tenant.empty()) return;  // legacy form, byte-identical
  const size_t tenant_len = std::min(tenant.size(), kRouteQueryMaxTenantLen);
  PutU8(out, static_cast<uint8_t>(std::clamp(priority, 0, 255)));
  PutU8(out, static_cast<uint8_t>(tenant_len));
  out->insert(out->end(), tenant.begin(),
              tenant.begin() + static_cast<long>(tenant_len));
}

Status DecodeRouteQueryPayload(const uint8_t* payload, size_t size,
                               RouteQuery* out, int* priority,
                               std::string* tenant) {
  if (priority != nullptr) *priority = 0;
  if (tenant != nullptr) tenant->clear();
  if (size < kRouteQueryPayloadSize) {
    return Status::InvalidArgument("net: route query payload is " +
                                   std::to_string(size) + " bytes, want >= " +
                                   std::to_string(kRouteQueryPayloadSize));
  }
  GetRouteQueryFields(payload, out);
  if (size == kRouteQueryPayloadSize) return Status::OK();  // legacy form
  // Extended form: u8 priority | u8 tenant_len | tenant bytes, nothing
  // after — a trailing-length mismatch is a framing error, not padding.
  if (size < kRouteQueryPayloadSize + 2) {
    return Status::InvalidArgument(
        "net: truncated route query scheduling fields");
  }
  const uint8_t prio = payload[kRouteQueryPayloadSize];
  const size_t tenant_len = payload[kRouteQueryPayloadSize + 1];
  if (size != kRouteQueryPayloadSize + 2 + tenant_len) {
    return Status::InvalidArgument(
        "net: route query tenant length mismatch: payload " +
        std::to_string(size) + " bytes, tenant_len " +
        std::to_string(tenant_len));
  }
  if (priority != nullptr) *priority = prio;
  if (tenant != nullptr) {
    tenant->assign(
        reinterpret_cast<const char*>(payload + kRouteQueryPayloadSize + 2),
        tenant_len);
  }
  return Status::OK();
}

Status CheckRouteQueryBounds(const RouteQuery& query) {
  if (query.k < 1 || query.k > kMaxQueryK) {
    return Status::InvalidArgument("net: k is " + std::to_string(query.k) +
                                   ", want [1, " + std::to_string(kMaxQueryK) +
                                   "]");
  }
  if (!std::isfinite(query.depart_seconds) ||
      !std::isfinite(query.arrival_deadline_seconds)) {
    return Status::InvalidArgument(
        "net: depart_seconds and arrival_deadline_seconds must be finite");
  }
  return Status::OK();
}

void EncodeRouteAnswerPayload(const RouteAnswer& answer,
                              std::vector<uint8_t>* out) {
  PutU8(out, static_cast<uint8_t>(answer.status.code()));
  if (!answer.status.ok()) {
    PutF64(out, 0.0);
    PutF64(out, 0.0);
    PutU32(out, 0);
    PutU32(out, 0);
    return;
  }
  PutF64(out, answer.cost_mean_seconds);
  PutF64(out, answer.on_time_probability);
  PutU32(out, static_cast<uint32_t>(answer.num_candidates));
  PutU32(out, static_cast<uint32_t>(answer.route.edges.size()));
  for (int edge : answer.route.edges) {
    PutU32(out, static_cast<uint32_t>(edge));
  }
}

Status DecodeRouteAnswerPayload(const uint8_t* payload, size_t size,
                                WireRouteAnswer* out) {
  ByteReader reader(payload, size);
  uint8_t code = 0;
  uint32_t candidates = 0;
  uint32_t edge_count = 0;
  if (!reader.ReadU8(&code) || !reader.ReadF64(&out->cost_mean_seconds) ||
      !reader.ReadF64(&out->on_time_probability) ||
      !reader.ReadU32(&candidates) || !reader.ReadU32(&edge_count)) {
    return Status::InvalidArgument("net: truncated route answer payload");
  }
  out->status_code = static_cast<StatusCode>(code);
  out->num_candidates = static_cast<int>(candidates);
  out->edges.clear();
  out->edges.reserve(edge_count);
  for (uint32_t i = 0; i < edge_count; ++i) {
    uint32_t edge = 0;
    if (!reader.ReadU32(&edge)) {
      return Status::InvalidArgument("net: truncated route answer edges");
    }
    out->edges.push_back(edge);
  }
  if (!reader.Done()) {
    return Status::InvalidArgument("net: trailing bytes after route answer");
  }
  return Status::OK();
}

void EncodeErrorPayload(const Status& status, std::vector<uint8_t>* out) {
  PutU8(out, static_cast<uint8_t>(status.code()));
  const std::string& msg = status.message();
  // Bound the message so the error response always fits a frame body.
  const size_t n = std::min(msg.size(), kNetBodyMaxSize - kNetBodyMinSize - 1);
  out->insert(out->end(), msg.data(), msg.data() + n);
}

Status DecodeErrorPayload(const uint8_t* payload, size_t size) {
  if (size < 1) {
    return Status::InvalidArgument("net: empty error payload");
  }
  const StatusCode code = static_cast<StatusCode>(payload[0]);
  std::string msg(reinterpret_cast<const char*>(payload + 1), size - 1);
  switch (code) {
    case StatusCode::kOk:
      return Status::OK();
    case StatusCode::kInvalidArgument:
      return Status::InvalidArgument(std::move(msg));
    case StatusCode::kNotFound:
      return Status::NotFound(std::move(msg));
    case StatusCode::kOutOfRange:
      return Status::OutOfRange(std::move(msg));
    case StatusCode::kFailedPrecondition:
      return Status::FailedPrecondition(std::move(msg));
    case StatusCode::kUnimplemented:
      return Status::Unimplemented(std::move(msg));
    case StatusCode::kResourceExhausted:
      return Status::ResourceExhausted(std::move(msg));
    case StatusCode::kDataLoss:
      return Status::DataLoss(std::move(msg));
    case StatusCode::kUnavailable:
      return Status::Unavailable(std::move(msg));
    case StatusCode::kInternal:
      return Status::Internal(std::move(msg));
  }
  return Status::Internal("net: unknown wire status code " +
                          std::to_string(static_cast<int>(code)));
}

}  // namespace tsdm
