#ifndef TSDM_LOAD_LOAD_TRACE_H_
#define TSDM_LOAD_LOAD_TRACE_H_

#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <vector>

#include "src/common/framed_parser.h"
#include "src/common/status.h"
#include "src/load/scenario.h"
#include "src/serve/query_service.h"

namespace tsdm {

/// Workload trace format — the compact binary stream a LoadTraceRecorder
/// writes and a TraceReplayer reads back. Same framing as the tick stream
/// (0xB7) and the wire protocol (0xC9), see src/common/framed_parser.h: a
/// magic byte, an explicit length, and a trailing CRC-32 that covers the
/// header too, so a corrupted length byte fails the checksum instead of
/// silently reframing the stream. All integers little-endian.
///
/// A trace file/stream is a fixed header followed by any number of
/// records:
///
///   header (8 bytes):
///     offset  size  field
///     0       4     "TSWT" (TS Workload Trace)
///     4       4     u32 format version (currently 1)
///
///   record (one TimedQuery):
///     offset  size  field
///     0       1     magic 0xD6
///     1       4     u32 payload length L (L in [42, 2^16])
///     5       L     payload
///     5+L     4     CRC-32 (IEEE) over bytes [0, 5+L)
///
///   payload:
///     offset  size  field
///     0       8     f64 at_seconds (offset from stream start)
///     8       1     u8 priority
///     9       1     u8 tenant_len T
///     10      T     tenant id bytes (UTF-8)
///     10+T    32    RouteQuery fields block (PutRouteQueryFields):
///     10+T    4       i32 source
///     14+T    4       i32 target
///     18+T    4       i32 k
///     22+T    4       reserved (written 0, ignored on read)
///     26+T    8       f64 depart_seconds
///     34+T    8       f64 arrival_deadline_seconds
///
/// Doubles are IEEE-754 bit patterns, so a record round-trips bitwise —
/// the property the replay-determinism suite relies on.
inline constexpr char kLoadTraceFileMagic[4] = {'T', 'S', 'W', 'T'};
inline constexpr uint32_t kLoadTraceVersion = 1;
inline constexpr size_t kLoadTraceHeaderSize = 8;
inline constexpr uint8_t kLoadTraceRecordMagic = 0xD6;
/// Fixed payload bytes around the variable-length tenant id.
inline constexpr size_t kLoadTraceFixedPayload = 10 + kRouteQueryFieldsSize;
inline constexpr size_t kLoadTraceMinPayload = kLoadTraceFixedPayload;
inline constexpr size_t kLoadTraceMaxPayload = 1 << 16;
using LoadTraceFormat = FrameFormat<kLoadTraceRecordMagic, uint32_t,
                                    kLoadTraceMinPayload, kLoadTraceMaxPayload>;

/// Appends the 8-byte stream header to *out.
void EncodeLoadTraceHeader(std::vector<uint8_t>* out);

/// Appends one framed record (magic, length, payload, CRC) to *out.
/// Tenants longer than 255 bytes are truncated.
void EncodeLoadTraceRecord(const TimedQuery& q, std::vector<uint8_t>* out);

struct LoadTraceParserStats : FrameStats {
  uint64_t rejected_bad_payload = 0;  ///< CRC-valid but malformed payload

  uint64_t RejectedTotal() const {
    return rejected_bad_length + rejected_bad_crc + rejected_bad_payload;
  }
};

/// Record spec of the trace stream for FramedParser. A CRC-verified record
/// whose payload does not decode was written malformed (or forged), not
/// corrupted; it is rejected and skipped whole.
struct LoadTraceSpec : LoadTraceFormat {
  using Message = TimedQuery;
  using Stats = LoadTraceParserStats;
  static constexpr const char* kLengthError = "load trace: payload length";
  static constexpr const char* kCrcError = "load trace: record CRC mismatch";

 protected:
  static FrameVerdict<Stats> Decode(const uint8_t* body, size_t len,
                                    Stats* stats,
                                    std::vector<TimedQuery>* out);
};

/// Incremental parser for the record stream (header already consumed; see
/// FramedParser for the framing and resynchronization rules). One parser
/// per stream.
using LoadTraceParser = FramedParser<LoadTraceSpec>;

/// Writes header + records to `path` (truncating). One fsync-free pass —
/// traces are workload artifacts, not durability-critical state.
Status WriteTraceFile(const std::string& path,
                      const std::vector<TimedQuery>& queries);

/// Reads a trace file: validates the header, then feeds the rest through
/// a LoadTraceParser. Corrupt records are skipped (resync), not fatal;
/// `stats` (when non-null) receives the parse accounting so callers can
/// distinguish a clean read from a salvaged one. InvalidArgument on a
/// missing/foreign header.
Result<std::vector<TimedQuery>> ReadTraceFile(
    const std::string& path, LoadTraceParserStats* stats = nullptr);

/// Records live QueryServer traffic as a workload trace. Hook it into
/// QueryServer::Options::submit_observer:
///
///   LoadTraceRecorder recorder;
///   options.submit_observer = recorder.Observer();
///
/// Every offered query — admitted or shed — becomes a record whose
/// timestamp is the offset from the first observation, so replaying the
/// trace reproduces the offered load. Thread-safe (Submit runs on any
/// producer thread).
class LoadTraceRecorder {
 public:
  /// The observer to install; holds `this`, so the recorder must outlive
  /// the server options it is installed in.
  std::function<void(const RouteQuery&, const SubmitOptions&, uint64_t)>
  Observer();

  /// Snapshot of everything recorded so far, timestamps rebased to the
  /// first observation.
  std::vector<TimedQuery> Snapshot() const;

  /// Writes the current snapshot to a trace file.
  Status WriteTo(const std::string& path) const;

 private:
  mutable std::mutex mu_;
  std::vector<TimedQuery> recorded_;
  uint64_t first_ns_ = 0;
  bool have_first_ = false;
};

}  // namespace tsdm

#endif  // TSDM_LOAD_LOAD_TRACE_H_
