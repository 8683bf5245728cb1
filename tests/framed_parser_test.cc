// Hostile-input suite for FramedParser, run over every framed stream in the
// library: tick frames (0xB7), wire frames (0xC9) and load-trace records
// (0xD6). Arbitrary chunking, a seeded byte flip at every position of a
// clean feed with exact byte accounting, random garbage, inter-frame noise,
// hostile length claims, out-of-window lengths, and a CRC-valid frame that
// hides an intact frame in its body. The parser must never crash, must
// lose exactly the damaged frame, and must never rescan a CRC-verified
// frame. Also the CRC-32 known answers the framing relies on, and the
// table kernel against a bitwise reference at every length and alignment.

#include <algorithm>
#include <cstring>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "src/common/bytes.h"
#include "src/common/crc32.h"
#include "src/common/rng.h"
#include "src/ingest/tick_parser.h"
#include "src/load/load_trace.h"
#include "src/net/wire.h"

namespace tsdm {
namespace {

// --- CRC-32 ---------------------------------------------------------------

TEST(Crc32Test, MatchesZlibKnownAnswers) {
  const std::string check = "123456789";
  const auto* data = reinterpret_cast<const uint8_t*>(check.data());
  EXPECT_EQ(Crc32(data, check.size()), 0xCBF43926u);
  EXPECT_EQ(Crc32(nullptr, 0), 0u);
  for (size_t split = 0; split <= check.size(); ++split) {
    EXPECT_EQ(Crc32Extend(Crc32(data, split), data + split,
                          check.size() - split),
              0xCBF43926u)
        << "split=" << split;
  }
}

/// The textbook bitwise CRC-32 (reflected 0xEDB88320), one bit per step:
/// the reference the table kernel must equal.
uint32_t ReferenceCrc32(const uint8_t* data, size_t size) {
  uint32_t c = 0xFFFFFFFFu;
  for (size_t i = 0; i < size; ++i) {
    c ^= data[i];
    for (int k = 0; k < 8; ++k) {
      c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
  }
  return c ^ 0xFFFFFFFFu;
}

TEST(Crc32Test, KernelEqualsBytewiseReferenceAtEveryLengthAndAlignment) {
  // Every length 0..300 at every start offset 0..7 covers each word-loop
  // trip count with each tail length, from every alignment of the loads.
  constexpr size_t kMaxLength = 300;
  constexpr size_t kOffsets = 8;
  Rng rng(20260);
  std::vector<uint8_t> buffer(kMaxLength + kOffsets);
  for (uint8_t& b : buffer) b = static_cast<uint8_t>(rng.Int(0, 255));
  for (size_t offset = 0; offset < kOffsets; ++offset) {
    for (size_t length = 0; length <= kMaxLength; ++length) {
      const uint8_t* data = buffer.data() + offset;
      const uint32_t want = ReferenceCrc32(data, length);
      ASSERT_EQ(Crc32(data, length), want)
          << "offset=" << offset << " length=" << length;
      for (size_t split = 0; split <= length; ++split) {
        ASSERT_EQ(Crc32Extend(Crc32(data, split), data + split,
                              length - split),
                  want)
            << "offset=" << offset << " length=" << length
            << " split=" << split;
      }
    }
  }
}

// --- One traits struct per framed stream ----------------------------------
//
// Each names its Parser, builds the i-th message of a clean feed (all
// frames the same size), compares messages bitwise, and builds a CRC-valid
// outer frame whose body carries `inner`.

struct TickTraits {
  using Parser = TickParser;
  using Message = TickMsg;
  using Format = TickFrameFormat;
  static constexpr size_t kFrameSize = kTickFrameSize;

  static Parser MakeParser() { return TickParser(4); }
  static Message Make(size_t i) {
    TickMsg msg;
    msg.seq = static_cast<uint32_t>(i + 1);
    msg.sensor = static_cast<uint32_t>(i % 4);
    msg.timestamp = 1000 + static_cast<int64_t>(i);
    msg.value = 1.5 * static_cast<double>(i);
    return msg;
  }
  static void Encode(const Message& msg, std::vector<uint8_t>* out) {
    EncodeTickFrame(msg, out);
  }
  static bool Same(const Message& a, const Message& b) {
    return a.seq == b.seq && a.sensor == b.sensor &&
           a.timestamp == b.timestamp &&
           std::memcmp(&a.value, &b.value, sizeof(a.value)) == 0;
  }
  /// A 30-byte body is not a 24-byte tick payload: rejected by length.
  static std::vector<uint8_t> Nest(const std::vector<uint8_t>& inner) {
    std::vector<uint8_t> out;
    const size_t start = Format::Begin(&out);
    out.insert(out.end(), inner.begin(), inner.end());
    Format::End(start, &out);
    return out;
  }
  static constexpr uint64_t TickParserStats::*kNestedReject =
      &TickParserStats::rejected_bad_length;
};

struct NetTraits {
  using Parser = FrameParser;
  using Message = NetFrame;
  using Format = NetFrameFormat;
  static constexpr size_t kFrameSize = Format::kHeaderSize +
                                       kNetBodyMinSize +
                                       kRouteQueryPayloadSize + Format::kCrcSize;
  static constexpr const char* kBelowMinError =
      "net: frame body length 8 outside [9, 1048576]";

  static Parser MakeParser() { return FrameParser(); }
  static Message Make(size_t i) {
    RouteQuery q;
    q.source = 3 + static_cast<int>(i);
    q.target = 17 + 2 * static_cast<int>(i);
    q.k = 4;
    q.depart_seconds = 8 * 3600.0 + static_cast<double>(i);
    q.arrival_deadline_seconds = q.depart_seconds + 1500.0;
    NetFrame frame;
    frame.request_id = 100 + i;
    frame.opcode = static_cast<uint8_t>(NetOpcode::kRouteQuery);
    EncodeRouteQueryPayload(q, &frame.payload);
    return frame;
  }
  static void Encode(const Message& frame, std::vector<uint8_t>* out) {
    EncodeNetFrame(frame.request_id, static_cast<NetOpcode>(frame.opcode),
                   frame.payload.data(), frame.payload.size(), out);
  }
  static bool Same(const Message& a, const Message& b) {
    return a.request_id == b.request_id && a.opcode == b.opcode &&
           a.payload == b.payload;
  }
  /// Every CRC-valid wire frame is accepted: the inner frame is payload.
  static std::vector<uint8_t> Nest(const std::vector<uint8_t>& inner) {
    std::vector<uint8_t> out;
    EncodeNetFrame(7, NetOpcode::kPing, inner.data(), inner.size(), &out);
    return out;
  }
  static constexpr uint64_t NetFrameStats::*kNestedReject = nullptr;
};

struct LoadTraits {
  using Parser = LoadTraceParser;
  using Message = TimedQuery;
  using Format = LoadTraceFormat;
  static constexpr size_t kFrameSize =
      Format::kHeaderSize + kLoadTraceFixedPayload + 7 + Format::kCrcSize;
  static constexpr const char* kBelowMinError =
      "load trace: payload length 41 outside [42, 65536]";

  static Parser MakeParser() { return LoadTraceParser(); }
  static Message Make(size_t i) {
    TimedQuery q;
    q.at_seconds = 0.25 * static_cast<double>(i);
    q.tenant = "premium";  // 7 bytes, so every record is kFrameSize
    q.priority = 2;
    q.query.source = static_cast<int>(i);
    q.query.target = 24 - static_cast<int>(i % 24);
    q.query.k = 3;
    q.query.depart_seconds = 7 * 3600.0 + 0.1 * static_cast<double>(i);
    q.query.arrival_deadline_seconds = q.query.depart_seconds + 900.0;
    return q;
  }
  static void Encode(const Message& q, std::vector<uint8_t>* out) {
    EncodeLoadTraceRecord(q, out);
  }
  static bool Same(const Message& a, const Message& b) {
    return std::memcmp(&a.at_seconds, &b.at_seconds, sizeof(double)) == 0 &&
           a.tenant == b.tenant && a.priority == b.priority &&
           a.query.source == b.query.source &&
           a.query.target == b.query.target && a.query.k == b.query.k &&
           std::memcmp(&a.query.depart_seconds, &b.query.depart_seconds,
                       sizeof(double)) == 0 &&
           std::memcmp(&a.query.arrival_deadline_seconds,
                       &b.query.arrival_deadline_seconds,
                       sizeof(double)) == 0;
  }
  /// A payload whose tenant_len byte (0) disagrees with L: malformed.
  static std::vector<uint8_t> Nest(const std::vector<uint8_t>& inner) {
    std::vector<uint8_t> out;
    const size_t start = Format::Begin(&out);
    PutF64(&out, 0.5);
    PutU8(&out, 0);  // priority
    PutU8(&out, 0);  // tenant_len
    out.insert(out.end(), inner.begin(), inner.end());
    Format::End(start, &out);
    return out;
  }
  static constexpr uint64_t LoadTraceParserStats::*kNestedReject =
      &LoadTraceParserStats::rejected_bad_payload;
};

template <typename Traits>
class FramedParserTest : public ::testing::Test {
 protected:
  using Parser = typename Traits::Parser;

  static std::vector<uint8_t> CleanFeed(size_t n) {
    std::vector<uint8_t> bytes;
    for (size_t i = 0; i < n; ++i) Traits::Encode(Traits::Make(i), &bytes);
    EXPECT_EQ(bytes.size(), n * Traits::kFrameSize);
    return bytes;
  }

  /// Frames the spec's Decode rejected by policy: consumed whole, like
  /// accepted ones, rather than as resync debris. (The tick's decode-level
  /// length rejects count in rejected_bad_length; no clean-feed-sized frame
  /// can be one.)
  static uint64_t DecodeRejected(const Parser& parser) {
    const auto& s = parser.stats();
    return s.RejectedTotal() - s.rejected_bad_length - s.rejected_bad_crc;
  }
};

using FramedStreams = ::testing::Types<TickTraits, NetTraits, LoadTraits>;
TYPED_TEST_SUITE(FramedParserTest, FramedStreams);

TYPED_TEST(FramedParserTest, EveryChunkSplitRoundTrips) {
  using Traits = TypeParam;
  const size_t kFrames = 20;
  const std::vector<uint8_t> feed = this->CleanFeed(kFrames);
  // Every chunk size from 1 byte to a frame plus 3 puts split points on
  // every intra-frame boundary; the last run takes the feed in one shot.
  std::vector<size_t> chunks;
  for (size_t c = 1; c <= Traits::kFrameSize + 3; ++c) chunks.push_back(c);
  chunks.push_back(feed.size());
  for (size_t chunk : chunks) {
    auto parser = Traits::MakeParser();
    std::vector<typename Traits::Message> out;
    size_t emitted = 0;
    for (size_t pos = 0; pos < feed.size(); pos += chunk) {
      const size_t n = std::min(chunk, feed.size() - pos);
      emitted += parser.Consume(feed.data() + pos, n, &out);
    }
    ASSERT_EQ(out.size(), kFrames) << "chunk=" << chunk;
    EXPECT_EQ(emitted, kFrames) << "chunk=" << chunk;
    for (size_t i = 0; i < kFrames; ++i) {
      EXPECT_TRUE(Traits::Same(out[i], Traits::Make(i)))
          << "chunk=" << chunk << " frame=" << i;
    }
    EXPECT_EQ(parser.stats().frames_accepted, kFrames) << "chunk=" << chunk;
    EXPECT_EQ(parser.stats().RejectedTotal(), 0u) << "chunk=" << chunk;
    EXPECT_EQ(parser.stats().resync_bytes, 0u) << "chunk=" << chunk;
    EXPECT_EQ(parser.stats().bytes_consumed, feed.size()) << "chunk=" << chunk;
    EXPECT_EQ(parser.PendingBytes(), 0u) << "chunk=" << chunk;
    EXPECT_TRUE(parser.last_error().ok()) << "chunk=" << chunk;
  }
}

TYPED_TEST(FramedParserTest, ByteFlipAtEveryPositionLosesExactlyThatFrame) {
  using Traits = TypeParam;
  using Format = typename Traits::Format;
  const size_t kFrames = 16;
  const std::vector<uint8_t> clean = this->CleanFeed(kFrames);
  std::vector<uint8_t> sentinel;
  Traits::Encode(Traits::Make(kFrames), &sentinel);
  // A flipped length byte can leave the parser waiting for a claimed
  // extent that never arrives, with intact frames queued behind it.
  // Enough non-magic bytes to complete any claimable extent make the claim
  // fail its CRC, and the queued frames then parse.
  const std::vector<uint8_t> flush(Format::kMaxExtent, 0x00);

  Rng rng(1234);
  for (size_t pos = 0; pos < clean.size(); ++pos) {
    std::vector<uint8_t> feed = clean;
    const uint8_t flip = static_cast<uint8_t>(rng.Int(1, 255));
    feed[pos] ^= flip;
    const size_t damaged = pos / Traits::kFrameSize;
    SCOPED_TRACE(::testing::Message()
                 << "pos=" << pos << " flip=" << int{flip});

    auto parser = Traits::MakeParser();
    std::vector<typename Traits::Message> out;
    parser.Consume(feed.data(), feed.size(), &out);
    // Before any flush, losing more than the damaged frame is only possible
    // while a claimed extent is still pending.
    if (out.size() + 1 < kFrames) {
      EXPECT_GT(parser.PendingBytes(), 0u);
    }
    if (parser.PendingBytes() > 0) {
      parser.Consume(flush.data(), flush.size(), &out);
    }

    // CRC-32 detects every single-byte corruption, and resynchronization
    // advances one byte at a time, so exactly the damaged frame is lost and
    // its intact neighbors all survive, in order.
    ASSERT_EQ(out.size(), kFrames - 1);
    EXPECT_EQ(parser.stats().frames_accepted, kFrames - 1);
    for (size_t i = 0, j = 0; i < kFrames; ++i) {
      if (i == damaged) continue;
      EXPECT_TRUE(Traits::Same(out[j], Traits::Make(i))) << "frame=" << i;
      ++j;
    }
    // The damage surfaced as a typed rejection or — when the magic byte
    // itself was hit — as resync debris. Never silently.
    EXPECT_TRUE(parser.stats().rejected_bad_crc > 0 ||
                parser.stats().resync_bytes > 0);
    EXPECT_EQ(parser.stats().RejectedTotal() > 0, !parser.last_error().ok());
    // Byte conservation: every consumed byte is inside a whole decoded
    // frame, counted as resync debris, or still pending.
    const auto& s = parser.stats();
    EXPECT_EQ(s.bytes_consumed,
              (s.frames_accepted + this->DecodeRejected(parser)) *
                      Traits::kFrameSize +
                  s.resync_bytes + parser.PendingBytes());
    // The parser is locked back on: a following intact frame parses.
    out.clear();
    EXPECT_EQ(parser.Consume(sentinel.data(), sentinel.size(), &out), 1u);
    ASSERT_EQ(out.size(), 1u);
    EXPECT_TRUE(Traits::Same(out[0], Traits::Make(kFrames)));
  }
}

TYPED_TEST(FramedParserTest, RandomGarbageNeverEmitsAndStaysBounded) {
  using Traits = TypeParam;
  using Format = typename Traits::Format;
  Rng rng(99);
  auto parser = Traits::MakeParser();
  std::vector<typename Traits::Message> out;
  for (int chunk = 0; chunk < 200; ++chunk) {
    uint8_t junk[64];
    for (auto& b : junk) b = static_cast<uint8_t>(rng.Int(0, 255));
    parser.Consume(junk, sizeof(junk), &out);
    // Pending is bounded by the largest claimable extent.
    EXPECT_LE(parser.PendingBytes(), Format::kMaxExtent);
  }
  // Random bytes essentially never pass a CRC-32 (the seeded stream must
  // not): everything lands in resync debris or pending.
  EXPECT_TRUE(out.empty());
  EXPECT_EQ(parser.stats().bytes_consumed, 200u * 64u);
  EXPECT_EQ(parser.stats().bytes_consumed,
            parser.stats().resync_bytes + parser.PendingBytes());
}

TYPED_TEST(FramedParserTest, GarbageBetweenFramesIsResynced) {
  using Traits = TypeParam;
  const uint8_t noise[] = {0x00, 0xFF, 0x13, 0x37, 0xB8};
  std::vector<uint8_t> feed(noise, noise + sizeof(noise));
  Traits::Encode(Traits::Make(0), &feed);
  feed.insert(feed.end(), noise, noise + sizeof(noise));
  Traits::Encode(Traits::Make(1), &feed);
  feed.insert(feed.end(), 64, 0xEE);
  Traits::Encode(Traits::Make(2), &feed);

  auto parser = Traits::MakeParser();
  std::vector<typename Traits::Message> out;
  EXPECT_EQ(parser.Consume(feed.data(), feed.size(), &out), 3u);
  ASSERT_EQ(out.size(), 3u);
  for (size_t i = 0; i < out.size(); ++i) {
    EXPECT_TRUE(Traits::Same(out[i], Traits::Make(i))) << "frame=" << i;
  }
  EXPECT_EQ(parser.stats().resync_bytes, 2 * sizeof(noise) + 64);
  EXPECT_EQ(parser.stats().RejectedTotal(), 0u);
  EXPECT_EQ(parser.PendingBytes(), 0u);
}

TYPED_TEST(FramedParserTest, HostileLengthClaimIsBoundedThenFailsCrc) {
  using Traits = TypeParam;
  using Format = typename Traits::Format;
  // A magic byte claiming the largest in-window body, followed by junk: the
  // parser waits for the claimed extent, never buffering more than it.
  std::vector<uint8_t> bait(Format::kHeaderSize);
  bait[0] = Format::kMagic;
  const typename Format::Length len =
      static_cast<typename Format::Length>(Format::kMaxLength);
  std::memcpy(bait.data() + 1, &len, sizeof(len));

  auto parser = Traits::MakeParser();
  std::vector<typename Traits::Message> out;
  parser.Consume(bait.data(), bait.size(), &out);
  for (int i = 0; i < 100; ++i) {
    const uint8_t junk[2] = {0x00, 0x00};
    parser.Consume(junk, sizeof(junk), &out);
    EXPECT_LE(parser.PendingBytes(), Format::kMaxExtent);
  }
  EXPECT_TRUE(out.empty());
  EXPECT_GT(parser.PendingBytes(), 0u);

  // Completing the claim fails its CRC; the parser resyncs one byte and
  // scans the rest of the claimed extent as debris.
  const std::vector<uint8_t> rest(Format::kMaxExtent, 0x00);
  parser.Consume(rest.data(), rest.size(), &out);
  EXPECT_TRUE(out.empty());
  EXPECT_EQ(parser.stats().rejected_bad_crc, 1u);
  EXPECT_EQ(parser.last_error().code(), StatusCode::kDataLoss);
  EXPECT_EQ(parser.PendingBytes(), 0u);
  EXPECT_EQ(parser.stats().resync_bytes, parser.stats().bytes_consumed);
}

TYPED_TEST(FramedParserTest, CrcVerifiedFrameIsNeverRescanned) {
  using Traits = TypeParam;
  // An outer frame with a valid CRC whose body carries a complete, intact
  // inner frame. Once its CRC passes, the outer extent is trusted and
  // consumed whole, whatever Decode says: the inner frame is never
  // emitted and nothing is booked as resync debris.
  std::vector<uint8_t> inner;
  Traits::Encode(Traits::Make(0), &inner);
  const std::vector<uint8_t> outer = Traits::Nest(inner);

  auto parser = Traits::MakeParser();
  std::vector<typename Traits::Message> out;
  parser.Consume(outer.data(), outer.size(), &out);
  for (const auto& msg : out) EXPECT_FALSE(Traits::Same(msg, Traits::Make(0)));
  if (Traits::kNestedReject != nullptr) {
    EXPECT_TRUE(out.empty());
    EXPECT_EQ(parser.stats().*Traits::kNestedReject, 1u);
    EXPECT_EQ(parser.stats().RejectedTotal(), 1u);
    EXPECT_EQ(parser.last_error().code(), StatusCode::kInvalidArgument);
  } else {
    EXPECT_EQ(out.size(), 1u);
    EXPECT_EQ(parser.stats().RejectedTotal(), 0u);
  }
  EXPECT_EQ(parser.stats().resync_bytes, 0u);
  EXPECT_EQ(parser.PendingBytes(), 0u);
  EXPECT_EQ(parser.stats().bytes_consumed, outer.size());
}

// --- Streams whose length window is narrower than the length field --------

template <typename Traits>
class BoundedFramedParserTest : public FramedParserTest<Traits> {};

using BoundedStreams = ::testing::Types<NetTraits, LoadTraits>;
TYPED_TEST_SUITE(BoundedFramedParserTest, BoundedStreams);

TYPED_TEST(BoundedFramedParserTest, OutOfWindowLengthResyncsOneByte) {
  using Traits = TypeParam;
  using Format = typename Traits::Format;
  static_assert(Format::kLengthBounded);
  // A length outside the window is structurally impossible: rejected by
  // length, not CRC, without waiting for or skipping the claimed extent,
  // so the intact frame right behind it survives.
  for (size_t bad : {Format::kMinLength - 1, Format::kMaxLength + 1}) {
    SCOPED_TRACE(::testing::Message() << "len=" << bad);
    std::vector<uint8_t> feed(Format::kHeaderSize);
    feed[0] = Format::kMagic;
    const typename Format::Length len =
        static_cast<typename Format::Length>(bad);
    std::memcpy(feed.data() + 1, &len, sizeof(len));
    Traits::Encode(Traits::Make(0), &feed);

    auto parser = Traits::MakeParser();
    std::vector<typename Traits::Message> out;
    EXPECT_EQ(parser.Consume(feed.data(), feed.size(), &out), 1u);
    ASSERT_EQ(out.size(), 1u);
    EXPECT_TRUE(Traits::Same(out[0], Traits::Make(0)));
    EXPECT_EQ(parser.stats().rejected_bad_length, 1u);
    EXPECT_EQ(parser.stats().rejected_bad_crc, 0u);
    // The magic byte is debris, then the length bytes are scanned past.
    EXPECT_EQ(parser.stats().resync_bytes, Format::kHeaderSize);
    EXPECT_EQ(parser.PendingBytes(), 0u);
    EXPECT_EQ(parser.last_error().code(), StatusCode::kInvalidArgument);
    if (bad < Format::kMinLength) {
      EXPECT_EQ(parser.last_error().message(), Traits::kBelowMinError);
    }
  }
}

}  // namespace
}  // namespace tsdm
