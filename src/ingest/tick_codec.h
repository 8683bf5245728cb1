#ifndef TSDM_INGEST_TICK_CODEC_H_
#define TSDM_INGEST_TICK_CODEC_H_

#include <cstdint>
#include <vector>

#include "src/common/framed_parser.h"
#include "src/common/status.h"
#include "src/stream/stream_buffer.h"

namespace tsdm {

/// One tick on the wire: a sequenced, sensor-stamped observation. `seq` is a
/// feed-global monotone sequence number (the retransmission / gap-detection
/// handle every market-data-style feed carries); the rest mirrors
/// stream::Tick.
struct TickMsg {
  uint32_t seq = 0;
  uint32_t sensor = 0;
  int64_t timestamp = 0;
  double value = 0.0;

  Tick ToTick() const {
    return Tick{static_cast<size_t>(sensor), timestamp, value};
  }
};

/// Binary tick frame — the compact length-prefixed format the feed handler
/// parses and the simulator emits. All integers little-endian:
///
///   offset  size  field
///   0       1     magic 0xB7
///   1       1     payload length L (== 24 for this version)
///   2       L     payload: u32 seq | u32 sensor | i64 timestamp | f64 value
///   2+L     4     CRC-32 (IEEE) over bytes [0, 2+L) — magic, length, payload
///
/// The length prefix lets a future version grow the payload without breaking
/// old parsers (unknown lengths are rejected, not misparsed); the CRC covers
/// the header too, so a corrupted length byte cannot silently reframe the
/// stream.
inline constexpr uint8_t kTickFrameMagic = 0xB7;
inline constexpr size_t kTickPayloadSize = 24;
inline constexpr size_t kTickFrameSize = 2 + kTickPayloadSize + 4;
/// Every u8 length is in the window: a length other than 24 is a decode
/// reject of a CRC-verified frame (TickParser), not a framing error.
using TickFrameFormat = FrameFormat<kTickFrameMagic, uint8_t, 0, 255>;

/// Appends the encoded frame of `msg` to *out.
void EncodeTickFrame(const TickMsg& msg, std::vector<uint8_t>* out);

/// Encodes only the 24-byte payload (the WAL stores payloads, not frames —
/// the record framing already carries its own length and CRC) into the
/// kTickPayloadSize bytes at `out`.
void EncodeTickPayload(const TickMsg& msg, uint8_t* out);

/// Appends the 24-byte payload of `msg` to *out.
void EncodeTickPayload(const TickMsg& msg, std::vector<uint8_t>* out);

/// Decodes a 24-byte payload. Fails with InvalidArgument on a size mismatch.
Status DecodeTickPayload(const uint8_t* payload, size_t size, TickMsg* out);

}  // namespace tsdm

#endif  // TSDM_INGEST_TICK_CODEC_H_
