#ifndef TSDM_COMMON_CRC32_H_
#define TSDM_COMMON_CRC32_H_

#include <cstddef>
#include <cstdint>

namespace tsdm {

/// CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320) — the checksum
/// framing every tick frame, wire frame, load-trace record and WAL record.
/// Standard init/final XOR with 0xFFFFFFFF, so the empty input hashes to 0
/// and the values match zlib's crc32() byte for byte (making the formats
/// re-implementable against any stock CRC-32 library).
uint32_t Crc32(const uint8_t* data, size_t size);

/// Incremental form: feed `crc` the result of a previous call to extend the
/// checksum over discontiguous spans, so Crc32Extend(Crc32(a), b) equals
/// the Crc32 of a followed by b. Every framed format checksums one
/// contiguous span (the WAL frames each record in place in its mapped
/// segment), so the library itself calls Crc32. Both run a portable
/// slicing-by-8 table kernel: eight bytes per step through little-endian
/// word loads, the tail bytewise.
uint32_t Crc32Extend(uint32_t crc, const uint8_t* data, size_t size);

}  // namespace tsdm

#endif  // TSDM_COMMON_CRC32_H_
