#include "src/ingest/tick_codec.h"

#include <bit>

#include "src/common/bytes.h"

namespace tsdm {

void EncodeTickPayload(const TickMsg& msg, uint8_t* out) {
  StoreU32(out, msg.seq);
  StoreU32(out + 4, msg.sensor);
  StoreU64(out + 8, static_cast<uint64_t>(msg.timestamp));
  StoreU64(out + 16, std::bit_cast<uint64_t>(msg.value));
}

void EncodeTickPayload(const TickMsg& msg, std::vector<uint8_t>* out) {
  const size_t start = out->size();
  out->resize(start + kTickPayloadSize);
  EncodeTickPayload(msg, out->data() + start);
}

void EncodeTickFrame(const TickMsg& msg, std::vector<uint8_t>* out) {
  const size_t start = TickFrameFormat::Begin(out);
  EncodeTickPayload(msg, out);
  TickFrameFormat::End(start, out);
}

Status DecodeTickPayload(const uint8_t* payload, size_t size, TickMsg* out) {
  if (size != kTickPayloadSize) {
    return Status::InvalidArgument("tick payload: expected 24 bytes");
  }
  out->seq = GetU32(payload);
  out->sensor = GetU32(payload + 4);
  out->timestamp = GetI64(payload + 8);
  out->value = GetF64(payload + 16);
  return Status::OK();
}

}  // namespace tsdm
