#include "src/ingest/tick_parser.h"

namespace tsdm {

FrameVerdict<TickParserStats> TickFrameSpec::Decode(
    const uint8_t* body, size_t len, TickParserStats* stats,
    std::vector<TickMsg>* out) {
  if (len != kTickPayloadSize) {
    return {&Stats::rejected_bad_length,
            len == 0 ? Status::InvalidArgument(
                           "tick parser: zero-length payload")
                     : Status::InvalidArgument(
                           "tick parser: unsupported payload length")};
  }
  TickMsg msg;
  // The size was checked above; payload decode cannot fail here.
  (void)DecodeTickPayload(body, len, &msg);
  if (num_sensors_ != 0 && msg.sensor >= num_sensors_) {
    return {&Stats::rejected_bad_sensor,
            Status::OutOfRange("tick parser: sensor id out of range")};
  }
  if (has_seq_ && msg.seq <= last_seq_) {
    return {&Stats::rejected_duplicate_seq,
            Status::FailedPrecondition(
                "tick parser: duplicate or regressed sequence number")};
  }
  if (num_sensors_ != 0) {
    if (msg.timestamp < last_timestamp_[msg.sensor]) {
      return {&Stats::rejected_out_of_order,
              Status::FailedPrecondition(
                  "tick parser: timestamp regressed for sensor")};
    }
    last_timestamp_[msg.sensor] = msg.timestamp;
  }
  if (has_seq_ && msg.seq > last_seq_ + 1) {
    stats->gaps_detected += msg.seq - last_seq_ - 1;
  }
  last_seq_ = msg.seq;
  has_seq_ = true;
  out->push_back(msg);
  return {};
}

}  // namespace tsdm
