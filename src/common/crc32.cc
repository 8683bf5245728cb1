#include "src/common/crc32.h"

#include <array>

#include "src/common/bytes.h"

namespace tsdm {

namespace {

/// Slicing-by-8 tables: kTables[0] is the classic bytewise table, and
/// kTables[k][b] is the CRC of byte b followed by k zero bytes, so eight
/// input bytes fold into the CRC with eight independent lookups.
using Crc32Tables = std::array<std::array<uint32_t, 256>, 8>;

constexpr Crc32Tables BuildTables() {
  Crc32Tables tables{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
    tables[0][i] = c;
  }
  for (size_t k = 1; k < tables.size(); ++k) {
    for (uint32_t i = 0; i < 256; ++i) {
      const uint32_t prev = tables[k - 1][i];
      tables[k][i] = tables[0][prev & 0xFFu] ^ (prev >> 8);
    }
  }
  return tables;
}

constexpr Crc32Tables kTables = BuildTables();

}  // namespace

uint32_t Crc32Extend(uint32_t crc, const uint8_t* data, size_t size) {
  uint32_t c = crc ^ 0xFFFFFFFFu;
  for (; size >= 8; data += 8, size -= 8) {
    // Reflected CRC: the low byte of the little-endian word is the first
    // byte of the stream, so it takes the table for seven trailing bytes.
    const uint32_t lo = GetU32(data) ^ c;
    const uint32_t hi = GetU32(data + 4);
    c = kTables[7][lo & 0xFFu] ^ kTables[6][(lo >> 8) & 0xFFu] ^
        kTables[5][(lo >> 16) & 0xFFu] ^ kTables[4][lo >> 24] ^
        kTables[3][hi & 0xFFu] ^ kTables[2][(hi >> 8) & 0xFFu] ^
        kTables[1][(hi >> 16) & 0xFFu] ^ kTables[0][hi >> 24];
  }
  for (size_t i = 0; i < size; ++i) {
    c = kTables[0][(c ^ data[i]) & 0xFFu] ^ (c >> 8);
  }
  return c ^ 0xFFFFFFFFu;
}

uint32_t Crc32(const uint8_t* data, size_t size) {
  return Crc32Extend(0, data, size);
}

}  // namespace tsdm
