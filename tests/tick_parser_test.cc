// Feed policy of the tick parser: payload length, sensor ids, sequencing,
// timestamps and gap counting, each rejection reported as a typed Status.
// The framing itself (chunking, byte flips, garbage, hostile lengths) is
// covered for every framed stream by framed_parser_test.

#include <vector>

#include "gtest/gtest.h"
#include "src/ingest/tick_codec.h"
#include "src/ingest/tick_parser.h"

namespace tsdm {
namespace {

TickMsg Msg(uint32_t seq, uint32_t sensor, int64_t ts, double value) {
  TickMsg msg;
  msg.seq = seq;
  msg.sensor = sensor;
  msg.timestamp = ts;
  msg.value = value;
  return msg;
}

/// `n` well-formed frames over 4 sensors, seqs from 1, increasing
/// timestamps.
std::vector<uint8_t> CleanFeed(size_t n) {
  std::vector<uint8_t> bytes;
  for (size_t i = 0; i < n; ++i) {
    EncodeTickFrame(Msg(static_cast<uint32_t>(i + 1),
                        static_cast<uint32_t>(i % 4),
                        1000 + static_cast<int64_t>(i), 1.5 * i),
                    &bytes);
  }
  return bytes;
}

/// A frame with an arbitrary (possibly unsupported) payload length and a
/// *valid* CRC, to drive the bad-length path without tripping the CRC check.
std::vector<uint8_t> FrameWithLength(uint8_t len) {
  std::vector<uint8_t> f;
  const size_t start = TickFrameFormat::Begin(&f);
  for (uint8_t i = 0; i < len; ++i) f.push_back(i);
  TickFrameFormat::End(start, &f);
  return f;
}

TEST(TickParserTest, ZeroLengthPayloadRejectedAndStreamResumes) {
  std::vector<uint8_t> feed = FrameWithLength(0);
  std::vector<uint8_t> tail = CleanFeed(2);
  feed.insert(feed.end(), tail.begin(), tail.end());

  TickParser parser(4);
  std::vector<TickMsg> out;
  EXPECT_EQ(parser.Consume(feed.data(), feed.size(), &out), 2u);
  EXPECT_EQ(parser.stats().rejected_bad_length, 1u);
  EXPECT_EQ(parser.stats().frames_accepted, 2u);
}

TEST(TickParserTest, UnsupportedLengthRejectedWithTypedError) {
  // CRC-valid frames of wrong lengths: a future format version. Rejected,
  // not misparsed, and the intact frame after each one is accepted.
  for (uint8_t len : {uint8_t{1}, uint8_t{10}, uint8_t{25}, uint8_t{255}}) {
    std::vector<uint8_t> feed = FrameWithLength(len);
    std::vector<uint8_t> tail = CleanFeed(1);
    feed.insert(feed.end(), tail.begin(), tail.end());

    TickParser parser(4);
    std::vector<TickMsg> out;
    parser.Consume(feed.data(), feed.size(), &out);
    EXPECT_EQ(parser.stats().rejected_bad_length, 1u) << int{len};
    EXPECT_EQ(parser.stats().frames_accepted, 1u) << int{len};
    EXPECT_EQ(parser.last_error().code(), StatusCode::kInvalidArgument)
        << int{len};
  }
}

TEST(TickParserTest, CrcCorruptionLosesOnlyTheCorruptFrame) {
  std::vector<uint8_t> feed = CleanFeed(3);
  feed[kTickFrameSize + 10] ^= 0x40;  // middle frame's payload

  TickParser parser(4);
  std::vector<TickMsg> out;
  EXPECT_EQ(parser.Consume(feed.data(), feed.size(), &out), 2u);
  EXPECT_EQ(out[0].seq, 1u);
  EXPECT_EQ(out[1].seq, 3u);
  EXPECT_EQ(parser.stats().rejected_bad_crc, 1u);
  EXPECT_EQ(parser.last_error().code(), StatusCode::kDataLoss);
  // The lost frame was counted as a sequence gap, not silently absorbed.
  EXPECT_EQ(parser.stats().gaps_detected, 1u);
}

TEST(TickParserTest, DuplicateAndRegressedSequencesRejected) {
  std::vector<uint8_t> feed;
  EncodeTickFrame(Msg(5, 0, 1000, 1.0), &feed);
  EncodeTickFrame(Msg(5, 1, 1001, 2.0), &feed);  // duplicate
  EncodeTickFrame(Msg(3, 2, 1002, 3.0), &feed);  // regression
  EncodeTickFrame(Msg(6, 0, 1003, 4.0), &feed);  // next in sequence

  TickParser parser(4);
  std::vector<TickMsg> out;
  EXPECT_EQ(parser.Consume(feed.data(), feed.size(), &out), 2u);
  EXPECT_EQ(parser.stats().rejected_duplicate_seq, 2u);
  EXPECT_EQ(parser.last_error().code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(parser.last_seq(), 6u);
}

TEST(TickParserTest, PerSensorTimestampRegressionRejected) {
  std::vector<uint8_t> feed;
  EncodeTickFrame(Msg(1, 0, 2000, 1.0), &feed);
  EncodeTickFrame(Msg(2, 1, 500, 2.0), &feed);   // other sensor: fine
  EncodeTickFrame(Msg(3, 0, 1999, 3.0), &feed);  // sensor 0 went backwards
  EncodeTickFrame(Msg(4, 0, 2000, 4.0), &feed);  // equal is allowed

  TickParser parser(4);
  std::vector<TickMsg> out;
  EXPECT_EQ(parser.Consume(feed.data(), feed.size(), &out), 3u);
  EXPECT_EQ(parser.stats().rejected_out_of_order, 1u);
  EXPECT_EQ(parser.last_error().code(), StatusCode::kFailedPrecondition);
}

TEST(TickParserTest, SensorIdOutOfRangeRejected) {
  std::vector<uint8_t> feed;
  EncodeTickFrame(Msg(1, 0, 1000, 1.0), &feed);
  EncodeTickFrame(Msg(2, 7, 1001, 2.0), &feed);  // fleet is 4 sensors

  TickParser parser(4);
  std::vector<TickMsg> out;
  EXPECT_EQ(parser.Consume(feed.data(), feed.size(), &out), 1u);
  EXPECT_EQ(parser.stats().rejected_bad_sensor, 1u);
  EXPECT_EQ(parser.last_error().code(), StatusCode::kOutOfRange);

  // With num_sensors = 0 the check is off (the WAL-replay configuration
  // validates sensors itself).
  TickParser open_parser(0);
  out.clear();
  EXPECT_EQ(open_parser.Consume(feed.data(), feed.size(), &out), 2u);
}

TEST(TickParserTest, ForwardSequenceGapsAcceptedButCounted) {
  std::vector<uint8_t> feed;
  EncodeTickFrame(Msg(1, 0, 1000, 1.0), &feed);
  EncodeTickFrame(Msg(2, 1, 1001, 2.0), &feed);
  EncodeTickFrame(Msg(5, 2, 1002, 3.0), &feed);   // 3, 4 lost upstream
  EncodeTickFrame(Msg(9, 3, 1003, 4.0), &feed);   // 6..8 lost upstream

  TickParser parser(4);
  std::vector<TickMsg> out;
  EXPECT_EQ(parser.Consume(feed.data(), feed.size(), &out), 4u);
  EXPECT_EQ(parser.stats().gaps_detected, 5u);
}

TEST(TickParserTest, PrimedSequenceRejectsReplayedPrefix) {
  std::vector<uint8_t> feed = CleanFeed(10);
  TickParser parser(4);
  parser.PrimeSequence(6);  // e.g. WAL replay recovered seqs 1..6
  std::vector<TickMsg> out;
  EXPECT_EQ(parser.Consume(feed.data(), feed.size(), &out), 4u);
  EXPECT_EQ(out.front().seq, 7u);
  EXPECT_EQ(parser.stats().rejected_duplicate_seq, 6u);
}

}  // namespace
}  // namespace tsdm
