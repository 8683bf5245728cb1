#ifndef TSDM_COMMON_BYTES_H_
#define TSDM_COMMON_BYTES_H_

#include <bit>
#include <cstdint>
#include <cstring>
#include <vector>

namespace tsdm {

/// Fixed-width little-endian byte (de)serialization used by every on-disk
/// and on-wire format in the library (tick frames, WAL records, stream-stage
/// state blobs). The formats are *defined* little-endian; the memcpy
/// implementation is only valid on little-endian hosts, which the
/// static_assert pins down rather than silently producing byte-swapped
/// files on exotic hardware.
static_assert(std::endian::native == std::endian::little,
              "tsdm serialized formats require a little-endian host");

inline void PutU8(std::vector<uint8_t>* out, uint8_t v) { out->push_back(v); }

inline void PutU32(std::vector<uint8_t>* out, uint32_t v) {
  const uint8_t* p = reinterpret_cast<const uint8_t*>(&v);
  out->insert(out->end(), p, p + sizeof(v));
}

inline void PutU64(std::vector<uint8_t>* out, uint64_t v) {
  const uint8_t* p = reinterpret_cast<const uint8_t*>(&v);
  out->insert(out->end(), p, p + sizeof(v));
}

inline void PutI64(std::vector<uint8_t>* out, int64_t v) {
  PutU64(out, static_cast<uint64_t>(v));
}

/// Doubles are stored as their IEEE-754 bit pattern, so a value round-trips
/// bitwise (including NaN payloads) — the property the replay-determinism
/// tests rely on.
inline void PutF64(std::vector<uint8_t>* out, double v) {
  uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  PutU64(out, bits);
}

/// In-place forms of PutU32/PutU64, for writers that frame straight into a
/// fixed buffer or a mapped file; the caller owns the bounds.
inline void StoreU32(uint8_t* p, uint32_t v) { std::memcpy(p, &v, sizeof(v)); }

inline void StoreU64(uint8_t* p, uint64_t v) { std::memcpy(p, &v, sizeof(v)); }

inline uint8_t GetU8(const uint8_t* p) { return *p; }

inline uint32_t GetU32(const uint8_t* p) {
  uint32_t v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

inline uint64_t GetU64(const uint8_t* p) {
  uint64_t v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

inline int64_t GetI64(const uint8_t* p) {
  return static_cast<int64_t>(GetU64(p));
}

inline double GetF64(const uint8_t* p) {
  uint64_t bits = GetU64(p);
  double v;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

/// Bounds-checked sequential reader over a state blob. Every Read* returns
/// false once the blob is exhausted instead of reading past the end, so a
/// truncated or mismatched blob surfaces as a typed restore error rather
/// than undefined behavior.
class ByteReader {
 public:
  ByteReader(const uint8_t* data, size_t size) : data_(data), size_(size) {}

  size_t remaining() const { return size_ - pos_; }
  bool Done() const { return pos_ == size_; }

  bool ReadU8(uint8_t* v) { return ReadRaw(v, sizeof(*v)); }
  bool ReadU32(uint32_t* v) { return ReadRaw(v, sizeof(*v)); }
  bool ReadU64(uint64_t* v) { return ReadRaw(v, sizeof(*v)); }
  bool ReadI64(int64_t* v) { return ReadRaw(v, sizeof(*v)); }
  bool ReadF64(double* v) { return ReadRaw(v, sizeof(*v)); }

  /// Returns a pointer into the blob and advances, or nullptr if fewer than
  /// `n` bytes remain.
  const uint8_t* ReadSpan(size_t n) {
    if (remaining() < n) return nullptr;
    const uint8_t* p = data_ + pos_;
    pos_ += n;
    return p;
  }

 private:
  bool ReadRaw(void* v, size_t n) {
    if (remaining() < n) return false;
    std::memcpy(v, data_ + pos_, n);
    pos_ += n;
    return true;
  }

  const uint8_t* data_;
  size_t size_;
  size_t pos_ = 0;
};

}  // namespace tsdm

#endif  // TSDM_COMMON_BYTES_H_
