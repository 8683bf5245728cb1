#ifndef TSDM_INGEST_TICK_PARSER_H_
#define TSDM_INGEST_TICK_PARSER_H_

#include <cstdint>
#include <limits>
#include <vector>

#include "src/common/framed_parser.h"
#include "src/ingest/tick_codec.h"

namespace tsdm {

/// Tick parser bookkeeping. The tick length window admits every u8, so
/// rejected_bad_length counts CRC-verified frames whose payload is not 24
/// bytes (consumed whole, like the policy rejects below).
struct TickParserStats : FrameStats {
  uint64_t rejected_bad_sensor = 0;     ///< sensor id >= configured fleet
  uint64_t rejected_duplicate_seq = 0;  ///< seq <= newest accepted seq
  uint64_t rejected_out_of_order = 0;   ///< timestamp regressed per sensor
  /// Forward jumps in the sequence number: sum of (seq - expected) over
  /// accepted frames — the feed's lost-upstream-ticks signal.
  uint64_t gaps_detected = 0;

  uint64_t RejectedTotal() const {
    return rejected_bad_length + rejected_bad_crc + rejected_bad_sensor +
           rejected_duplicate_seq + rejected_out_of_order;
  }
};

/// Frame spec of the tick stream (src/ingest/tick_codec.h) for
/// FramedParser, holding the feed policy a CRC-verified frame must pass:
///
/// - Length: the payload must be exactly 24 bytes (InvalidArgument).
/// - Sensors: ids must be below the configured fleet size (OutOfRange).
/// - Sequencing: seq must advance (duplicates/regressions are
///   retransmission debris and are rejected); per-sensor timestamps must be
///   non-decreasing; forward seq gaps are accepted but counted
///   (FailedPrecondition for the rejects).
class TickFrameSpec : public TickFrameFormat {
 public:
  using Message = TickMsg;
  using Stats = TickParserStats;
  static constexpr const char* kCrcError = "tick parser: frame CRC mismatch";

  /// `num_sensors` bounds the accepted sensor ids; 0 disables the check.
  explicit TickFrameSpec(size_t num_sensors = 0)
      : num_sensors_(num_sensors),
        last_timestamp_(num_sensors, std::numeric_limits<int64_t>::min()) {}

  /// Newest accepted (or primed) sequence number.
  uint32_t last_seq() const { return last_seq_; }

  /// Primes the sequencing state, e.g. after WAL replay, so the resumed
  /// live feed continues from the recovered sequence instead of treating
  /// replayed ticks' successors as duplicates of nothing.
  void PrimeSequence(uint32_t last_seq) {
    last_seq_ = last_seq;
    has_seq_ = true;
  }

 protected:
  FrameVerdict<Stats> Decode(const uint8_t* body, size_t len, Stats* stats,
                             std::vector<TickMsg>* out);

 private:
  size_t num_sensors_;
  std::vector<int64_t> last_timestamp_;  // per sensor
  uint32_t last_seq_ = 0;
  bool has_seq_ = false;
};

/// Incremental feed-handler parser: bytes go in chunk by chunk with
/// arbitrary split points, validated TickMsgs come out (see FramedParser for
/// the framing and resynchronization rules). Single-threaded, like the WAL
/// writer behind it; the stats are plain counters read from the same thread
/// (snapshotted for export).
using TickParser = FramedParser<TickFrameSpec>;

}  // namespace tsdm

#endif  // TSDM_INGEST_TICK_PARSER_H_
