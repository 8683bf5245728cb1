// Crash-point matrix for the durable ingestion tier: at every kill site
// compiled into the WAL writer, the torn tail must be detected (CRC / framing
// / LSN continuity), replay must rebuild the exact pre-crash stream state,
// and resuming the feed must land bitwise on the state an uninterrupted run
// reaches — including the EW-MAD anomaly internals and the Holt forecast
// state, via StreamPipeline::SaveState blobs and bit-pattern forecast
// comparison. The segment bytes, and each kill site's persisted prefix, are
// also pinned against frames built independently from the README layout.

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "src/common/bytes.h"
#include "src/common/crc32.h"
#include "src/common/rng.h"
#include "src/ingest/ingest_service.h"
#include "src/ingest/tick_codec.h"
#include "src/ingest/wal.h"

namespace tsdm {
namespace {

std::string FreshDir(const std::string& name) {
  std::string dir = ::testing::TempDir() + "/tsdm_ingest_" + name;
  std::filesystem::remove_all(dir);
  return dir;
}

/// Deterministic feed: `n` ticks round-robin over `num_sensors`, strictly
/// increasing timestamps, consecutive sequence numbers from `first_seq`.
std::vector<uint8_t> BuildFeed(size_t n, size_t num_sensors,
                               uint32_t first_seq = 1, uint64_t seed = 42) {
  Rng rng(seed);
  std::vector<uint8_t> bytes;
  bytes.reserve(n * kTickFrameSize);
  for (size_t i = 0; i < n; ++i) {
    TickMsg msg;
    msg.seq = first_seq + static_cast<uint32_t>(i);
    msg.sensor = static_cast<uint32_t>(i % num_sensors);
    msg.timestamp = 1000 + static_cast<int64_t>(i) * 30;
    msg.value = rng.Normal(50.0, 10.0);
    EncodeTickFrame(msg, &bytes);
  }
  return bytes;
}

IngestOptions Options(const std::string& wal_dir, size_t num_sensors = 3) {
  IngestOptions options;
  options.num_sensors = num_sensors;
  options.wal_dir = wal_dir;
  options.sync_every_ticks = 8;
  options.buffer_capacity = 16;
  return options;
}

/// Everything state-bearing about a service, captured for bitwise diffing.
struct StateFingerprint {
  std::vector<uint8_t> pipeline_state;
  std::vector<uint64_t> forecast_bits;  // IEEE-754 bit patterns per sensor
  uint64_t alarms = 0;
  uint64_t ticks = 0;
  std::vector<std::vector<double>> buffer_values;
  std::vector<std::vector<int64_t>> buffer_timestamps;
};

StateFingerprint Fingerprint(IngestService* service) {
  StateFingerprint fp;
  EXPECT_TRUE(service->pipeline().SaveState(&fp.pipeline_state).ok());
  const size_t sensors = service->options().num_sensors;
  for (size_t s = 0; s < sensors; ++s) {
    double f = service->forecast_stage().ForecastNext(s);
    uint64_t bits = 0;
    std::memcpy(&bits, &f, sizeof(bits));
    fp.forecast_bits.push_back(bits);
  }
  fp.alarms = service->anomaly_stage().alarms();
  fp.ticks = service->pipeline().ticks_processed();
  fp.buffer_values.resize(sensors);
  fp.buffer_timestamps.resize(sensors);
  for (size_t s = 0; s < sensors; ++s) {
    service->buffer().SnapshotSensor(s, &fp.buffer_values[s],
                                     &fp.buffer_timestamps[s]);
  }
  return fp;
}

void ExpectSameState(const StateFingerprint& got, const StateFingerprint& want,
                     const std::string& label) {
  EXPECT_EQ(got.ticks, want.ticks) << label;
  EXPECT_EQ(got.alarms, want.alarms) << label;
  ASSERT_EQ(got.pipeline_state.size(), want.pipeline_state.size()) << label;
  EXPECT_EQ(0, std::memcmp(got.pipeline_state.data(),
                           want.pipeline_state.data(),
                           want.pipeline_state.size()))
      << label << ": pipeline state blobs differ";
  EXPECT_EQ(got.forecast_bits, want.forecast_bits)
      << label << ": forecast bit patterns differ";
  EXPECT_EQ(got.buffer_values, want.buffer_values) << label;
  EXPECT_EQ(got.buffer_timestamps, want.buffer_timestamps) << label;
}

/// The uninterrupted run every crash scenario is measured against. WAL
/// disabled: durability must not perturb the analytics.
StateFingerprint ReferenceRun(const std::vector<uint8_t>& feed,
                              size_t num_sensors) {
  IngestService service(Options("", num_sensors));
  EXPECT_TRUE(service.Start().ok());
  auto applied = service.IngestBytes(feed.data(), feed.size());
  EXPECT_TRUE(applied.ok());
  return Fingerprint(&service);
}

// ---------------------------------------------------------------------------
// WAL unit coverage
// ---------------------------------------------------------------------------

TEST(WalWriterTest, RoundTripThroughScan) {
  const std::string dir = FreshDir("roundtrip");
  WalWriter writer(dir, WalOptions());
  ASSERT_TRUE(writer.Open().ok());
  for (uint32_t i = 0; i < 10; ++i) {
    std::vector<uint8_t> payload(12, static_cast<uint8_t>(i));
    uint64_t lsn = 0;
    ASSERT_TRUE(writer.Append(payload.data(),
                              static_cast<uint32_t>(payload.size()), &lsn)
                    .ok());
    EXPECT_EQ(lsn, i + 1);
  }
  ASSERT_TRUE(writer.Close().ok());

  WalScanReport report;
  uint64_t seen = 0;
  ASSERT_TRUE(WalReader::Scan(
                  dir,
                  [&](const WalRecord& record) {
                    EXPECT_EQ(record.lsn, seen + 1);
                    EXPECT_EQ(record.size, 12u);
                    EXPECT_EQ(record.payload[0],
                              static_cast<uint8_t>(seen));
                    ++seen;
                    return Status::OK();
                  },
                  &report)
                  .ok());
  EXPECT_EQ(report.records, 10u);
  EXPECT_EQ(report.torn_records, 0u);
  EXPECT_EQ(report.last_lsn, 10u);
  EXPECT_EQ(report.segments, 1u);
  EXPECT_EQ(report.next_segment_index, 2u);
}

TEST(WalReaderTest, MissingDirectoryIsAnEmptyLog) {
  WalScanReport report;
  ASSERT_TRUE(
      WalReader::Scan(FreshDir("missing"), nullptr, &report).ok());
  EXPECT_EQ(report.records, 0u);
  EXPECT_EQ(report.segments, 0u);
  EXPECT_EQ(report.next_segment_index, 1u);
}

TEST(WalWriterTest, RotationKeepsLsnContinuityAcrossSegments) {
  const std::string dir = FreshDir("rotate");
  WalOptions options;
  // Header 24 + record extent (16 + 24 + 4) = 68; three records per segment.
  options.segment_bytes = 24 + 3 * 44;
  WalWriter writer(dir, options);
  ASSERT_TRUE(writer.Open().ok());
  std::vector<uint8_t> payload(24, 0xAB);
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(writer.Append(payload.data(), 24).ok());
  }
  EXPECT_EQ(writer.stats().rotations, 6u);  // 20 records, 3 per segment
  ASSERT_TRUE(writer.Close().ok());

  WalScanReport report;
  ASSERT_TRUE(WalReader::Scan(dir, nullptr, &report).ok());
  EXPECT_EQ(report.records, 20u);
  EXPECT_EQ(report.torn_records, 0u);
  EXPECT_EQ(report.segments, 7u);
  EXPECT_EQ(report.last_lsn, 20u);
  EXPECT_EQ(report.next_segment_index, 8u);
}

TEST(WalReaderTest, CorruptedTailRecordIsDetectedBySkippedCrc) {
  const std::string dir = FreshDir("torn");
  {
    WalWriter writer(dir, WalOptions());
    ASSERT_TRUE(writer.Open().ok());
    std::vector<uint8_t> payload(24, 0x11);
    for (int i = 0; i < 5; ++i) {
      ASSERT_TRUE(writer.Append(payload.data(), 24).ok());
    }
    ASSERT_TRUE(writer.Close().ok());
  }
  // Flip one payload byte of the last record (header 24 + 4 full records +
  // record header 16 puts us inside record 5's payload).
  const std::string path = dir + "/wal-00000001.seg";
  std::FILE* f = std::fopen(path.c_str(), "r+b");
  ASSERT_NE(f, nullptr);
  std::fseek(f, 24 + 4 * 44 + 16 + 3, SEEK_SET);
  std::fputc(0xEE, f);
  std::fclose(f);

  WalScanReport report;
  ASSERT_TRUE(WalReader::Scan(dir, nullptr, &report).ok());
  EXPECT_EQ(report.records, 4u);
  EXPECT_EQ(report.torn_records, 1u);
  EXPECT_EQ(report.last_lsn, 4u);
}

TEST(WalReaderTest, DirectoryNamedLikeASegmentIsAnErrorNotAThrow) {
  const std::string dir = FreshDir("segment_dir");
  {
    IngestService writer(Options(dir));
    ASSERT_TRUE(writer.Start().ok());
    const std::vector<uint8_t> feed = BuildFeed(3, 3);
    ASSERT_TRUE(writer.IngestBytes(feed.data(), feed.size()).ok());
    ASSERT_TRUE(writer.Stop().ok());
  }
  ASSERT_TRUE(std::filesystem::create_directory(dir + "/wal-00000002.seg"));

  WalScanReport report;
  Status status = Status::OK();
  EXPECT_NO_THROW(status = WalReader::Scan(dir, nullptr, &report));
  EXPECT_EQ(status.code(), StatusCode::kFailedPrecondition)
      << status.message();

  // The service refuses to start over the log rather than replay past it.
  IngestService service(Options(dir));
  Status start = Status::OK();
  EXPECT_NO_THROW(start = service.Start());
  EXPECT_EQ(start.code(), StatusCode::kFailedPrecondition) << start.message();
}

TEST(WalReaderTest, BackupCopyOfASegmentIsNotASegment) {
  const std::string dir = FreshDir("backup_copy");
  {
    WalWriter writer(dir, WalOptions());
    ASSERT_TRUE(writer.Open().ok());
    std::vector<uint8_t> payload(24, 0x22);
    for (int i = 0; i < 5; ++i) {
      ASSERT_TRUE(writer.Append(payload.data(), 24).ok());
    }
    ASSERT_TRUE(writer.Close().ok());
  }
  WalScanReport clean;
  ASSERT_TRUE(WalReader::Scan(dir, nullptr, &clean).ok());
  ASSERT_EQ(clean.segments, 1u);
  ASSERT_EQ(clean.torn_records, 0u);

  std::filesystem::copy_file(dir + "/wal-00000001.seg",
                             dir + "/wal-00000001.seg.bak");
  WalScanReport report;
  ASSERT_TRUE(WalReader::Scan(dir, nullptr, &report).ok());
  EXPECT_EQ(report.segments, 1u);
  EXPECT_EQ(report.records, 5u);
  EXPECT_EQ(report.torn_records, 0u);
  EXPECT_EQ(report.last_lsn, 5u);
  EXPECT_EQ(report.next_segment_index, clean.next_segment_index);
}

// ---------------------------------------------------------------------------
// On-disk bytes, built independently from the README layout
// ---------------------------------------------------------------------------

/// Record payload sizes the golden tests write: empty, one byte, a tick
/// payload, and the largest size a u8 length prefix would carry.
const std::vector<uint32_t> kGoldenSizes = {0, 1, 24, 255, 0, 1, 24, 255};
/// Segment size that makes those records rotate three times: four
/// segments, with rotations before a 255-, a 1- and a 255-byte record.
constexpr size_t kGoldenSegmentBytes = 320;

std::vector<uint8_t> GoldenPayload(size_t ordinal, uint32_t size) {
  std::vector<uint8_t> payload(size);
  for (uint32_t j = 0; j < size; ++j) {
    payload[j] = static_cast<uint8_t>(ordinal * 31 + j);
  }
  return payload;
}

/// The segment files a log must hold, built from the layout alone:
/// segment header (magic "TSWL", version 1, index, base LSN) at offset 0,
/// records (magic "RCRD", length, LSN, payload, CRC-32 over [+4, +16+L))
/// from offset 24, zeros to the segment end, and a fresh segment whenever
/// a frame would cross the end.
class GoldenLog {
 public:
  explicit GoldenLog(size_t segment_bytes) : segment_bytes_(segment_bytes) {
    NewSegment();
  }

  void NewSegment() {
    std::vector<uint8_t> header;
    PutU32(&header, 0x4C575354);
    PutU32(&header, 1);
    PutU64(&header, segments_.size() + 1);
    PutU64(&header, next_lsn_);
    segments_.emplace_back(segment_bytes_, 0);
    std::copy(header.begin(), header.end(), segments_.back().begin());
    offset_ = header.size();
  }

  /// Lands the first `keep` bytes of the next record's frame.
  void Add(const std::vector<uint8_t>& payload, size_t keep = SIZE_MAX) {
    std::vector<uint8_t> frame;
    PutU32(&frame, 0x44524352);
    PutU32(&frame, static_cast<uint32_t>(payload.size()));
    PutU64(&frame, next_lsn_);
    frame.insert(frame.end(), payload.begin(), payload.end());
    PutU32(&frame, Crc32(frame.data() + 4, frame.size() - 4));
    if (offset_ + frame.size() > segment_bytes_) NewSegment();
    std::copy_n(frame.begin(), std::min(keep, frame.size()),
                segments_.back().begin() + offset_);
    offset_ += frame.size();
    ++next_lsn_;
  }

  const std::vector<std::vector<uint8_t>>& segments() const {
    return segments_;
  }

 private:
  size_t segment_bytes_;
  size_t offset_ = 0;
  uint64_t next_lsn_ = 1;
  std::vector<std::vector<uint8_t>> segments_;
};

std::vector<uint8_t> ReadFile(const std::string& path) {
  std::vector<uint8_t> bytes;
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return bytes;
  int c;
  while ((c = std::fgetc(f)) != EOF) bytes.push_back(static_cast<uint8_t>(c));
  std::fclose(f);
  return bytes;
}

void ExpectSegmentsEqual(const std::string& dir, const GoldenLog& golden,
                         const std::string& label) {
  size_t files = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    (void)entry;
    ++files;
  }
  EXPECT_EQ(files, golden.segments().size()) << label;
  for (size_t i = 0; i < golden.segments().size(); ++i) {
    char name[32];
    std::snprintf(name, sizeof(name), "/wal-%08zu.seg", i + 1);
    EXPECT_TRUE(ReadFile(dir + name) == golden.segments()[i])
        << label << ": segment " << i + 1 << " differs from the layout";
  }
}

TEST(WalGoldenTest, SegmentFilesMatchTheLayoutByteForByte) {
  const std::string dir = FreshDir("golden");
  WalOptions options;
  options.segment_bytes = kGoldenSegmentBytes;
  GoldenLog golden(kGoldenSegmentBytes);
  {
    WalWriter writer(dir, options);
    ASSERT_TRUE(writer.Open().ok());
    for (size_t i = 0; i < kGoldenSizes.size(); ++i) {
      const std::vector<uint8_t> payload = GoldenPayload(i, kGoldenSizes[i]);
      ASSERT_TRUE(writer.Append(payload.data(), kGoldenSizes[i]).ok());
      golden.Add(payload);
    }
    EXPECT_EQ(writer.stats().rotations, 3u);
    ASSERT_TRUE(writer.Close().ok());
  }
  ASSERT_EQ(golden.segments().size(), 4u);
  ExpectSegmentsEqual(dir, golden, "golden");
}

/// Bytes of the armed record's frame each kill site leaves on disk, as the
/// CrashPoint documentation states them.
size_t DocumentedPrefix(CrashPoint point, uint32_t size) {
  const size_t extent = 16 + size + 4;
  switch (point) {
    case CrashPoint::kBeforeRecord:
      return 0;
    case CrashPoint::kMidHeader:
      return 6;
    case CrashPoint::kAfterHeader:
      return 16;
    case CrashPoint::kMidPayload:
      return 16 + size / 2;
    case CrashPoint::kBeforeCrc:
      return 16 + size;
    case CrashPoint::kMidCrc:
      return extent - 2;
    default:
      return extent;
  }
}

TEST(WalGoldenTest, EachCrashPointPersistsItsExactPrefix) {
  std::vector<CrashPoint> points(kAllCrashPoints.begin(),
                                 kAllCrashPoints.end());
  points.push_back(CrashPoint::kFailedSync);
  WalOptions options;
  options.segment_bytes = kGoldenSegmentBytes;
  // Ordinals 0-3 arm one record of each size; ordinal 3 rotates first.
  for (CrashPoint point : points) {
    for (size_t ordinal = 0; ordinal < 4; ++ordinal) {
      const std::string label = std::string(CrashPointName(point)) + "@ord" +
                                std::to_string(ordinal);
      const std::string dir = FreshDir("golden_" + label);
      GoldenLog golden(kGoldenSegmentBytes);
      {
        WalWriter writer(dir, options);
        ASSERT_TRUE(writer.Open().ok()) << label;
        writer.ArmCrash(point, ordinal);
        for (size_t i = 0; i < ordinal; ++i) {
          const std::vector<uint8_t> payload =
              GoldenPayload(i, kGoldenSizes[i]);
          ASSERT_TRUE(writer.Append(payload.data(), kGoldenSizes[i]).ok())
              << label;
          golden.Add(payload);
        }
        const uint32_t size = kGoldenSizes[ordinal];
        const std::vector<uint8_t> payload = GoldenPayload(ordinal, size);
        Status status = writer.Append(payload.data(), size);
        if (point == CrashPoint::kFailedSync) {
          // The record lands and the append succeeds; the sync fails.
          ASSERT_TRUE(status.ok()) << label;
          EXPECT_EQ(writer.Sync().code(), StatusCode::kInternal) << label;
        } else {
          EXPECT_EQ(status.code(), StatusCode::kInternal) << label;
        }
        EXPECT_TRUE(writer.crashed()) << label;
        EXPECT_EQ(writer.Append(payload.data(), size).code(),
                  StatusCode::kFailedPrecondition)
            << label;
        if (point == CrashPoint::kAfterRotate) {
          golden.NewSegment();
        } else {
          golden.Add(payload, DocumentedPrefix(point, size));
        }
      }
      ExpectSegmentsEqual(dir, golden, label);
    }
  }
}

// ---------------------------------------------------------------------------
// Crash-point matrix
// ---------------------------------------------------------------------------

struct CrashCase {
  CrashPoint point;
  uint64_t ordinal;    // 0-based Append at which the writer dies
  size_t segment_bytes;
};

/// Crash at `c`, recover, resume the feed, and demand bitwise equality with
/// the uninterrupted reference.
void RunCrashCase(const CrashCase& c, const std::vector<uint8_t>& feed,
                  size_t num_ticks, size_t num_sensors,
                  const StateFingerprint& reference) {
  const std::string label = std::string(CrashPointName(c.point)) +
                            "@ord" + std::to_string(c.ordinal) + "/seg" +
                            std::to_string(c.segment_bytes);
  const std::string dir = FreshDir("crash_" + label);

  IngestOptions options = Options(dir, num_sensors);
  options.wal.segment_bytes = c.segment_bytes;

  // Phase 1: ingest until the armed kill site fires.
  IngestService victim(options);
  ASSERT_TRUE(victim.Start().ok()) << label;
  victim.ArmCrash(c.point, c.ordinal);
  auto applied = victim.IngestBytes(feed.data(), feed.size());
  ASSERT_FALSE(applied.ok()) << label << ": crash point never fired";
  EXPECT_EQ(applied.status().code(), StatusCode::kInternal) << label;
  EXPECT_TRUE(victim.dead()) << label;
  // A dead service refuses everything, like the dead process it models.
  EXPECT_EQ(victim.IngestBytes(feed.data(), feed.size()).status().code(),
            StatusCode::kFailedPrecondition)
      << label;

  // Phase 2: restart over the same directory; replay rebuilds the state.
  IngestService revived(options);
  ASSERT_TRUE(revived.Start().ok()) << label;
  const RecoveryReport& recovery = revived.recovery();

  // Durability accounting per kill site: a record is on disk iff its full
  // frame landed before the kill. kBeforeSync lands the frame and only
  // skips the msync — a *process* crash keeps it (page cache), so replay
  // must see ordinal + 1 ticks. Every torn variant loses exactly the one
  // in-flight record.
  if (c.point == CrashPoint::kBeforeSync) {
    EXPECT_EQ(recovery.ticks_replayed, c.ordinal + 1) << label;
  } else {
    EXPECT_EQ(recovery.ticks_replayed, c.ordinal) << label;
  }
  switch (c.point) {
    case CrashPoint::kMidHeader:
    case CrashPoint::kAfterHeader:
    case CrashPoint::kMidPayload:
    case CrashPoint::kBeforeCrc:
    case CrashPoint::kMidCrc:
      EXPECT_GE(recovery.torn_records_skipped, 1u) << label;
      break;
    case CrashPoint::kBeforeRecord:
    case CrashPoint::kBeforeSync:
    case CrashPoint::kAfterRotate:
      EXPECT_EQ(recovery.torn_records_skipped, 0u) << label;
      break;
    case CrashPoint::kFailedSync:
    case CrashPoint::kNone:
      break;
  }
  if (c.point == CrashPoint::kAfterRotate) {
    EXPECT_GE(recovery.segments_scanned, 2u) << label;
  }

  // Phase 3: the upstream feed resends from last_seq + 1 (frames are fixed
  // size, so the resume offset is just ticks_replayed frames in).
  const size_t resume = recovery.ticks_replayed * kTickFrameSize;
  auto resumed =
      revived.IngestBytes(feed.data() + resume, feed.size() - resume);
  ASSERT_TRUE(resumed.ok()) << label << ": " << resumed.status().message();
  EXPECT_EQ(*resumed, num_ticks - recovery.ticks_replayed) << label;

  StateFingerprint fp = Fingerprint(&revived);
  ExpectSameState(fp, reference, label);
}

TEST(IngestCrashMatrixTest, EveryKillSiteReplaysToBitwiseIdenticalState) {
  const size_t kTicks = 64;
  const size_t kSensors = 3;
  std::vector<uint8_t> feed = BuildFeed(kTicks, kSensors);
  StateFingerprint reference = ReferenceRun(feed, kSensors);
  ASSERT_EQ(reference.ticks, kTicks);

  for (CrashPoint point : kAllCrashPoints) {
    for (uint64_t ordinal : {uint64_t{7}, uint64_t{20}}) {
      RunCrashCase({point, ordinal, WalOptions().segment_bytes}, feed, kTicks,
                   kSensors, reference);
    }
  }
}

TEST(IngestCrashMatrixTest, KillSitesUnderAggressiveRotation) {
  const size_t kTicks = 64;
  const size_t kSensors = 3;
  std::vector<uint8_t> feed = BuildFeed(kTicks, kSensors);
  StateFingerprint reference = ReferenceRun(feed, kSensors);

  // Three 44-byte records per 156-byte segment: the armed append at ordinal
  // 13 sits mid-stream with rotations on both sides of it.
  for (CrashPoint point : kAllCrashPoints) {
    RunCrashCase({point, 13, 24 + 3 * 44}, feed, kTicks, kSensors, reference);
  }
}

TEST(IngestRecoveryTest, SurvivesRepeatedCrashRecoverCycles) {
  const size_t kTicks = 80;
  const size_t kSensors = 3;
  std::vector<uint8_t> feed = BuildFeed(kTicks, kSensors);
  StateFingerprint reference = ReferenceRun(feed, kSensors);
  const std::string dir = FreshDir("cycles");
  IngestOptions options = Options(dir, kSensors);
  options.wal.segment_bytes = 24 + 3 * 44;  // rotation-rich

  // Crash 1: torn payload at ordinal 10.
  {
    IngestService s(options);
    ASSERT_TRUE(s.Start().ok());
    s.ArmCrash(CrashPoint::kMidPayload, 10);
    ASSERT_FALSE(s.IngestBytes(feed.data(), feed.size()).ok());
  }
  // Crash 2: recover (stepping over crash 1's debris), resume, die again
  // with a torn CRC — the armed ordinal counts this writer's appends.
  size_t resume = 0;
  {
    IngestService s(options);
    ASSERT_TRUE(s.Start().ok());
    EXPECT_EQ(s.recovery().ticks_replayed, 10u);
    resume = s.recovery().ticks_replayed * kTickFrameSize;
    s.ArmCrash(CrashPoint::kMidCrc, 15);
    ASSERT_FALSE(
        s.IngestBytes(feed.data() + resume, feed.size() - resume).ok());
  }
  // Final recovery: both tears skipped, LSN continuity walked across all
  // segments, and the finished run matches the never-crashed reference.
  {
    IngestService s(options);
    ASSERT_TRUE(s.Start().ok());
    EXPECT_EQ(s.recovery().ticks_replayed, 25u);  // 10 + 15
    EXPECT_GE(s.recovery().torn_records_skipped, 2u);
    resume = s.recovery().ticks_replayed * kTickFrameSize;
    auto applied =
        s.IngestBytes(feed.data() + resume, feed.size() - resume);
    ASSERT_TRUE(applied.ok());
    ExpectSameState(Fingerprint(&s), reference, "multi-cycle");
  }
}

TEST(IngestRecoveryTest, ReplayPrimesParserAgainstFullResend) {
  const size_t kTicks = 40;
  const size_t kSensors = 2;
  std::vector<uint8_t> feed = BuildFeed(kTicks, kSensors);
  StateFingerprint reference = ReferenceRun(feed, kSensors);
  const std::string dir = FreshDir("resend");
  IngestOptions options = Options(dir, kSensors);

  {
    IngestService s(options);
    ASSERT_TRUE(s.Start().ok());
    s.ArmCrash(CrashPoint::kBeforeCrc, 25);
    ASSERT_FALSE(s.IngestBytes(feed.data(), feed.size()).ok());
  }
  // A naive upstream resends the whole feed. The replayed prefix must be
  // rejected as duplicates — double-applying it would corrupt the state.
  IngestService s(options);
  ASSERT_TRUE(s.Start().ok());
  ASSERT_EQ(s.recovery().ticks_replayed, 25u);
  auto applied = s.IngestBytes(feed.data(), feed.size());
  ASSERT_TRUE(applied.ok());
  EXPECT_EQ(*applied, kTicks - 25);
  EXPECT_EQ(s.parser().stats().rejected_duplicate_seq, 25u);
  ExpectSameState(Fingerprint(&s), reference, "full-resend");
}

TEST(IngestRecoveryTest, CleanRestartReplaysEverythingAndContinues) {
  const size_t kTicks = 48;
  const size_t kSensors = 3;
  std::vector<uint8_t> feed = BuildFeed(kTicks, kSensors);
  StateFingerprint reference = ReferenceRun(feed, kSensors);
  const std::string dir = FreshDir("clean_restart");
  IngestOptions options = Options(dir, kSensors);

  const size_t half = (kTicks / 2) * kTickFrameSize;
  {
    IngestService s(options);
    ASSERT_TRUE(s.Start().ok());
    ASSERT_TRUE(s.IngestBytes(feed.data(), half).ok());
    ASSERT_TRUE(s.Stop().ok());  // orderly shutdown, fully synced
  }
  IngestService s(options);
  ASSERT_TRUE(s.Start().ok());
  EXPECT_EQ(s.recovery().ticks_replayed, kTicks / 2);
  EXPECT_EQ(s.recovery().torn_records_skipped, 0u);
  auto applied = s.IngestBytes(feed.data() + half, feed.size() - half);
  ASSERT_TRUE(applied.ok());
  ExpectSameState(Fingerprint(&s), reference, "clean-restart");
}

TEST(IngestServiceTest, FailedGroupCommitSyncKillsTheService) {
  const size_t kTicks = 40;
  const size_t kSensors = 3;
  std::vector<uint8_t> feed = BuildFeed(kTicks, kSensors);
  StateFingerprint reference = ReferenceRun(feed, kSensors);
  const std::string dir = FreshDir("failed_sync");
  IngestOptions options = Options(dir, kSensors);
  ASSERT_EQ(options.sync_every_ticks, 8u);

  // The 8th tick (ordinal 7) lands in the log, then its group-commit sync
  // fails: the service must die before applying it, like a failed append.
  {
    IngestService victim(options);
    ASSERT_TRUE(victim.Start().ok());
    victim.ArmCrash(CrashPoint::kFailedSync, 7);
    auto applied = victim.IngestBytes(feed.data(), feed.size());
    ASSERT_FALSE(applied.ok());
    EXPECT_EQ(applied.status().code(), StatusCode::kInternal);
    EXPECT_TRUE(victim.dead());
    EXPECT_EQ(victim.pipeline().ticks_processed(), 7u);
    EXPECT_EQ(victim.IngestBytes(feed.data(), feed.size()).status().code(),
              StatusCode::kFailedPrecondition);
  }

  // The logged tick is replayed, and resuming after it lands on the
  // uninterrupted state.
  IngestService revived(options);
  ASSERT_TRUE(revived.Start().ok());
  EXPECT_EQ(revived.recovery().ticks_replayed, 8u);
  const size_t resume = revived.recovery().ticks_replayed * kTickFrameSize;
  auto resumed =
      revived.IngestBytes(feed.data() + resume, feed.size() - resume);
  ASSERT_TRUE(resumed.ok()) << resumed.status().message();
  ExpectSameState(Fingerprint(&revived), reference, "failed-sync");
}

TEST(IngestServiceTest, WalOffAndWalOnProduceIdenticalAnalytics) {
  const size_t kTicks = 60;
  const size_t kSensors = 4;
  std::vector<uint8_t> feed = BuildFeed(kTicks, kSensors);
  StateFingerprint reference = ReferenceRun(feed, kSensors);

  IngestService s(Options(FreshDir("wal_on"), kSensors));
  ASSERT_TRUE(s.Start().ok());
  auto applied = s.IngestBytes(feed.data(), feed.size());
  ASSERT_TRUE(applied.ok());
  EXPECT_EQ(*applied, kTicks);
  ExpectSameState(Fingerprint(&s), reference, "wal-on-vs-off");

  IngestStatsSnapshot stats = s.Stats();
  EXPECT_TRUE(stats.wal_enabled);
  EXPECT_EQ(stats.wal.records, kTicks);
  EXPECT_EQ(stats.parser.frames_accepted, kTicks);
  EXPECT_EQ(stats.ticks_processed, kTicks);
}

}  // namespace
}  // namespace tsdm
