#ifndef TSDM_INGEST_WAL_H_
#define TSDM_INGEST_WAL_H_

#include <array>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "src/common/status.h"

namespace tsdm {

/// Segment log geometry and sync policy.
struct WalOptions {
  /// Fixed size of every segment file. Segments are created at full size
  /// (ftruncate) and memory-mapped, so the zero-filled tail is what marks
  /// the end of the record stream on recovery.
  size_t segment_bytes = 1 << 20;
  /// When false (default), Sync issues MS_ASYNC — writeback is scheduled
  /// but not awaited, the group-commit trade: a *process* crash still loses
  /// nothing (dirty pages survive in the page cache), only a machine crash
  /// can lose the un-written-back window. When true, Sync blocks on
  /// MS_SYNC. Close always ends with a blocking sync.
  bool synchronous = false;
};

/// Deterministic kill sites compiled into WalWriter::Append — the crash-point
/// harness the recovery tests drive. When the armed record ordinal is
/// reached, the writer persists exactly the bytes the point dictates, marks
/// itself dead (every later Append fails FailedPrecondition), and returns
/// Internal. Recovery must then prove the log's valid prefix replays to the
/// same state an uninterrupted run reaches. kFailedSync is the one fault
/// outside Append: the armed record lands and Append succeeds, and the next
/// Sync fails the same way instead.
enum class CrashPoint {
  kNone = 0,
  kBeforeRecord,  ///< die before any byte of the record lands
  kMidHeader,     ///< 6 of the 16 header bytes land (torn header)
  kAfterHeader,   ///< full header, no payload
  kMidPayload,    ///< header plus half the payload
  kBeforeCrc,     ///< header and payload, no trailing CRC
  kMidCrc,        ///< all but the last 2 CRC bytes
  kBeforeSync,    ///< record fully framed, Sync skipped (durable on a
                  ///< process crash: the page cache survives the process)
  kAfterRotate,   ///< rotation to a fresh segment completes, then death
  kFailedSync,    ///< record fully framed, then the next Sync fails (as a
                  ///< failed msync would) and the writer is dead
};

const char* CrashPointName(CrashPoint point);

/// Every kill site inside Append, for matrix tests.
inline constexpr std::array<CrashPoint, 8> kAllCrashPoints = {
    CrashPoint::kBeforeRecord, CrashPoint::kMidHeader,
    CrashPoint::kAfterHeader,  CrashPoint::kMidPayload,
    CrashPoint::kBeforeCrc,    CrashPoint::kMidCrc,
    CrashPoint::kBeforeSync,   CrashPoint::kAfterRotate,
};

struct WalWriterStats {
  uint64_t records = 0;        ///< records fully appended
  uint64_t payload_bytes = 0;  ///< payload bytes in those records
  uint64_t appended_bytes = 0; ///< payload + framing bytes
  uint64_t segments_created = 0;
  uint64_t rotations = 0;
  uint64_t syncs = 0;
};

/// Append-only memory-mapped segment log.
///
/// On-disk layout (all integers little-endian; see also README "Durable
/// ingestion" for the normative description):
///
///   segment file `wal-<8-digit index>.seg`, fixed options.segment_bytes:
///     0   u32  segment magic 0x4C575354 ("TSWL")
///     4   u32  format version (1)
///     8   u64  segment index
///     16  u64  base LSN (the LSN the first record in this segment will get)
///   records append from offset 24:
///     +0   u32  record magic 0x44524352 ("RCRD")
///     +4   u32  payload length L
///     +8   u64  LSN (1-based, gapless across segments)
///     +16  L    payload
///     +16+L u32 CRC-32 (IEEE) over bytes [+4, +16+L) — length, LSN, payload
///
/// A record whose frame would cross the segment end triggers rotation to a
/// fresh segment; the zero-filled tail of the old segment is the rotation
/// marker. On restart the writer always opens a brand-new segment (it never
/// appends after a possibly-torn tail), so a tear is permanent debris that
/// recovery steps over, bounded to one record.
///
/// Single-writer, no internal locking: the ingest path is the stream
/// subsystem's single-consumer thread.
class WalWriter {
 public:
  WalWriter(std::string dir, WalOptions options);
  ~WalWriter();

  WalWriter(const WalWriter&) = delete;
  WalWriter& operator=(const WalWriter&) = delete;

  /// Creates the directory if needed and opens segment `segment_index`
  /// (which must not already exist) with LSNs continuing from `next_lsn`.
  /// Use WalReader::Scan's report to carry both across a restart.
  Status Open(uint64_t segment_index = 1, uint64_t next_lsn = 1);

  /// Appends one record, rotating first if it does not fit. On success
  /// *lsn (optional) receives the record's LSN.
  Status Append(const uint8_t* payload, uint32_t size,
                uint64_t* lsn = nullptr);

  /// msyncs the written prefix of the current segment. After a failure the
  /// log may hold records the caller has not acted on yet: treat it like a
  /// failed Append.
  Status Sync();

  /// Syncs and unmaps. The writer cannot be reopened.
  Status Close();

  /// Arms a crash: the `record_ordinal`-th Append call (0-based, counted
  /// across rotations) dies at `point`.
  void ArmCrash(CrashPoint point, uint64_t record_ordinal);

  bool crashed() const { return crashed_; }
  const WalWriterStats& stats() const { return stats_; }
  uint64_t next_lsn() const { return next_lsn_; }
  const std::string& dir() const { return dir_; }

 private:
  Status OpenSegment(uint64_t segment_index);
  Status UnmapSegment();
  Status DoSync(int flags);

  std::string dir_;
  WalOptions options_;
  bool open_ = false;
  bool crashed_ = false;
  int fd_ = -1;
  uint8_t* map_ = nullptr;
  size_t offset_ = 0;
  uint64_t segment_index_ = 0;
  uint64_t next_lsn_ = 1;
  uint64_t appends_seen_ = 0;
  CrashPoint armed_point_ = CrashPoint::kNone;
  uint64_t armed_ordinal_ = 0;
  bool fail_next_sync_ = false;  // armed kFailedSync record has landed
  WalWriterStats stats_;
};

/// One recovered record.
struct WalRecord {
  uint64_t lsn = 0;
  const uint8_t* payload = nullptr;  ///< valid only during the Scan callback
  uint32_t size = 0;
};

struct WalScanReport {
  uint64_t records = 0;
  uint64_t torn_records = 0;  ///< invalid trailing records detected+skipped
  uint64_t bytes_scanned = 0;
  uint64_t segments = 0;
  uint64_t last_lsn = 0;            ///< 0 when no record was recovered
  uint64_t next_segment_index = 1;  ///< where a restarted writer must write
};

/// Sequential scanner over a WAL directory. Validates segment headers,
/// record framing, CRCs, and LSN continuity; invokes `fn` once per valid
/// record in LSN order. A torn record ends that segment's scan (counted in
/// torn_records); later segments continue the stream iff their records
/// extend the LSN sequence exactly — which is how debris from an earlier
/// crash-recover cycle is stepped over without ever accepting a fork.
class WalReader {
 public:
  using RecordFn = std::function<Status(const WalRecord&)>;

  /// A missing directory is an empty log (OK, zero records), so first boot
  /// and restart share one code path. `fn` may be null to only take stock.
  /// A segment name that is not a regular file fails FailedPrecondition, and
  /// a segment that cannot be opened, stat'ed or read in full fails
  /// Internal: an unreadable segment is an error, never a torn tail.
  static Status Scan(const std::string& dir, const RecordFn& fn,
                     WalScanReport* report);
};

}  // namespace tsdm

#endif  // TSDM_INGEST_WAL_H_
