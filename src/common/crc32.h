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
/// checksum over discontiguous spans (the WAL checksums header fields and
/// payload without copying them together).
uint32_t Crc32Extend(uint32_t crc, const uint8_t* data, size_t size);

}  // namespace tsdm

#endif  // TSDM_COMMON_CRC32_H_
