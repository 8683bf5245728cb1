#include "src/common/crc32.h"

#include <array>

namespace tsdm {

namespace {

std::array<uint32_t, 256> BuildTable() {
  std::array<uint32_t, 256> table{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
    table[i] = c;
  }
  return table;
}

const std::array<uint32_t, 256>& Table() {
  static const std::array<uint32_t, 256> table = BuildTable();
  return table;
}

}  // namespace

uint32_t Crc32Extend(uint32_t crc, const uint8_t* data, size_t size) {
  const auto& table = Table();
  uint32_t c = crc ^ 0xFFFFFFFFu;
  for (size_t i = 0; i < size; ++i) {
    c = table[(c ^ data[i]) & 0xFFu] ^ (c >> 8);
  }
  return c ^ 0xFFFFFFFFu;
}

uint32_t Crc32(const uint8_t* data, size_t size) {
  return Crc32Extend(0, data, size);
}

}  // namespace tsdm
