#ifndef TSDM_COMMON_FRAMED_PARSER_H_
#define TSDM_COMMON_FRAMED_PARSER_H_

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "src/common/bytes.h"
#include "src/common/crc32.h"
#include "src/common/status.h"

namespace tsdm {

/// The layout every CRC-framed byte stream in the library shares (tick
/// frames, wire frames, load-trace records). All integers little-endian:
///
///   offset         size            field
///   0              1               magic
///   1              sizeof(Length)  body length L in [kMinLength, kMaxLength]
///   kHeaderSize    L               body
///   kHeaderSize+L  4               CRC-32 (IEEE) over [0, kHeaderSize+L)
///
/// The CRC covers the header too, so a corrupted length fails the checksum
/// instead of silently reframing the stream. Encoders write frames through
/// Begin/End and FramedParser reads them, so the layout is spelled once for
/// both directions.
template <uint8_t Magic, typename LengthT, size_t MinLength, size_t MaxLength>
struct FrameFormat {
  using Length = LengthT;
  static constexpr uint8_t kMagic = Magic;
  static constexpr size_t kHeaderSize = 1 + sizeof(Length);
  static constexpr size_t kMinLength = MinLength;
  static constexpr size_t kMaxLength = MaxLength;
  static constexpr size_t kCrcSize = 4;
  /// The largest extent a header can claim, which bounds the parser's
  /// pending buffer.
  static constexpr size_t kMaxExtent = kHeaderSize + kMaxLength + kCrcSize;
  /// False when every value of the length field is in the window.
  static constexpr bool kLengthBounded =
      kMinLength > 0 || kMaxLength < std::numeric_limits<Length>::max();

  /// Appends the magic and a length placeholder; returns the frame start to
  /// hand to End once the body has been appended.
  static size_t Begin(std::vector<uint8_t>* out) {
    const size_t start = out->size();
    out->resize(start + kHeaderSize);
    (*out)[start] = kMagic;
    return start;
  }

  /// Patches in the length of the body appended since Begin, then appends
  /// the CRC over the whole frame.
  static void End(size_t start, std::vector<uint8_t>* out) {
    const Length len = static_cast<Length>(out->size() - start - kHeaderSize);
    std::memcpy(out->data() + start + 1, &len, sizeof(len));
    PutU32(out, Crc32(out->data() + start, out->size() - start));
  }
};

/// The counters every FramedParser keeps; a Spec's Stats derives from it
/// and adds its own decode-level reject counters. Every consumed byte is
/// inside a decoded frame (accepted or rejected), counted as resync debris,
/// or still pending.
struct FrameStats {
  uint64_t bytes_consumed = 0;       ///< total bytes handed to Consume
  uint64_t frames_accepted = 0;      ///< frames decoded and emitted
  uint64_t rejected_bad_length = 0;  ///< length outside the window
  uint64_t rejected_bad_crc = 0;     ///< CRC mismatch (corruption)
  /// Bytes skipped hunting for the next magic byte (garbage between frames
  /// and the debris of frames that failed their length or CRC check).
  uint64_t resync_bytes = 0;
};

/// FrameStats' counters, for code that folds or copies them as a set.
inline constexpr uint64_t FrameStats::*kFrameStatsCounters[] = {
    &FrameStats::bytes_consumed, &FrameStats::frames_accepted,
    &FrameStats::rejected_bad_length, &FrameStats::rejected_bad_crc,
    &FrameStats::resync_bytes};

/// A spec's ruling on one CRC-verified frame: accepted (`rejected` is null)
/// or rejected, with the Stats counter to bump and the typed reason.
template <typename Stats>
struct FrameVerdict {
  uint64_t Stats::*rejected = nullptr;
  Status error;
};

/// Incremental parser for one FrameFormat: bytes go in chunk by chunk with
/// arbitrary split points, decoded messages come out. Designed for hostile
/// input — no byte sequence may crash it or desynchronize it past the next
/// intact frame. Every format runs the same loop:
///
///   1. Scan for the magic byte; each skipped byte counts in resync_bytes.
///   2. A length outside the window counts in rejected_bad_length and
///      resyncs by one byte: an unverified length is never used to skip.
///   3. Wait for the whole claimed extent (pending stays <= kMaxExtent).
///   4. A CRC mismatch counts in rejected_bad_crc and resyncs by one byte —
///      the length itself may be the corrupted byte.
///   5. Decode. The extent is now trustworthy, so the frame is consumed
///      whole whether the spec accepts or rejects it.
///
/// A Spec derives from a FrameFormat and supplies:
///   - `Message` and `Stats` types, Stats deriving from FrameStats;
///   - `kCrcError` and, when kLengthBounded, `kLengthError` texts;
///   - `FrameVerdict<Stats> Decode(const uint8_t* body, size_t len,
///      Stats* stats, std::vector<Message>* out)`, public or protected,
///     which appends the message to *out on accept.
/// The parser derives from its Spec, so a stateful spec (the tick
/// sequencing policy) keeps its state in itself and its accessors are the
/// parser's.
///
/// Single-threaded: one parser per stream.
template <typename Spec>
class FramedParser : public Spec {
 public:
  using Message = typename Spec::Message;
  using Stats = typename Spec::Stats;
  using Spec::Spec;

  /// Consumes `size` bytes, appending every accepted message to *out (not
  /// cleared). Returns the number of messages appended. Partial trailing
  /// frames are buffered until the next call.
  size_t Consume(const uint8_t* data, size_t size, std::vector<Message>* out) {
    constexpr size_t kHeader = Spec::kHeaderSize;
    stats_.bytes_consumed += size;
    pending_.insert(pending_.end(), data, data + size);

    size_t emitted = 0;
    size_t pos = 0;
    const size_t n = pending_.size();
    while (pos < n) {
      if (pending_[pos] != Spec::kMagic) {
        ++pos;
        ++stats_.resync_bytes;
        continue;
      }
      if (n - pos < kHeader) break;  // length field not here yet
      const uint8_t* frame = pending_.data() + pos;
      typename Spec::Length len_field;
      std::memcpy(&len_field, frame + 1, sizeof(len_field));
      const size_t len = len_field;
      if constexpr (Spec::kLengthBounded) {
        if (len < Spec::kMinLength || len > Spec::kMaxLength) {
          ++stats_.rejected_bad_length;
          last_error_ = Status::InvalidArgument(
              std::string(Spec::kLengthError) + " " + std::to_string(len) +
              " outside [" + std::to_string(Spec::kMinLength) + ", " +
              std::to_string(Spec::kMaxLength) + "]");
          ++pos;
          ++stats_.resync_bytes;
          continue;
        }
      }
      const size_t extent = kHeader + len + Spec::kCrcSize;
      if (n - pos < extent) break;  // wait for the rest of the claimed frame
      if (Crc32(frame, kHeader + len) != GetU32(frame + kHeader + len)) {
        ++stats_.rejected_bad_crc;
        last_error_ = Status::DataLoss(Spec::kCrcError);
        ++pos;
        ++stats_.resync_bytes;
        continue;
      }
      FrameVerdict<Stats> verdict =
          this->Decode(frame + kHeader, len, &stats_, out);
      if (verdict.rejected == nullptr) {
        ++stats_.frames_accepted;
        ++emitted;
      } else {
        ++(stats_.*verdict.rejected);
        last_error_ = std::move(verdict.error);
      }
      pos += extent;
    }
    pending_.erase(pending_.begin(),
                   pending_.begin() + static_cast<ptrdiff_t>(pos));
    return emitted;
  }

  const Stats& stats() const { return stats_; }

  /// The most recent rejection, as a typed Status (OK if nothing was ever
  /// rejected): InvalidArgument for the length window, DataLoss for CRC
  /// corruption, and whatever the spec's Decode reports.
  const Status& last_error() const { return last_error_; }

  /// Bytes buffered waiting for the rest of a frame.
  size_t PendingBytes() const { return pending_.size(); }

 private:
  std::vector<uint8_t> pending_;
  Stats stats_;
  Status last_error_;
};

}  // namespace tsdm

#endif  // TSDM_COMMON_FRAMED_PARSER_H_
