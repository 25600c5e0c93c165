#include "util/crc32.h"

#include <array>

namespace rlz {
namespace {

using Crc32Tables = std::array<std::array<uint32_t, 256>, 8>;

// Slicing-by-8 tables: kTables[0] is the classic bytewise table, and
// kTables[k][b] is the CRC of byte b followed by k zero bytes, so eight
// lookups advance the CRC over eight input bytes at once.
constexpr Crc32Tables BuildTables() {
  Crc32Tables t{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1) ? 0xEDB88320U ^ (c >> 1) : c >> 1;
    }
    t[0][i] = c;
  }
  for (size_t k = 1; k < 8; ++k) {
    for (uint32_t i = 0; i < 256; ++i) {
      const uint32_t prev = t[k - 1][i];
      t[k][i] = (prev >> 8) ^ t[0][prev & 0xFF];
    }
  }
  return t;
}

constexpr Crc32Tables kTables = BuildTables();

// Little-endian 32-bit load written bytewise, so it is portable; compilers
// fuse it into one load on little-endian targets.
inline uint32_t LoadLe32(const uint8_t* p) {
  return static_cast<uint32_t>(p[0]) | (static_cast<uint32_t>(p[1]) << 8) |
         (static_cast<uint32_t>(p[2]) << 16) |
         (static_cast<uint32_t>(p[3]) << 24);
}

}  // namespace

uint32_t Crc32(const void* data, size_t size, uint32_t seed) {
  const uint8_t* p = static_cast<const uint8_t*>(data);
  uint32_t c = seed ^ 0xFFFFFFFFU;
  for (; size >= 8; p += 8, size -= 8) {
    const uint32_t lo = c ^ LoadLe32(p);
    const uint32_t hi = LoadLe32(p + 4);
    c = kTables[7][lo & 0xFF] ^ kTables[6][(lo >> 8) & 0xFF] ^
        kTables[5][(lo >> 16) & 0xFF] ^ kTables[4][lo >> 24] ^
        kTables[3][hi & 0xFF] ^ kTables[2][(hi >> 8) & 0xFF] ^
        kTables[1][(hi >> 16) & 0xFF] ^ kTables[0][hi >> 24];
  }
  for (; size > 0; ++p, --size) {
    c = kTables[0][(c ^ *p) & 0xFF] ^ (c >> 8);
  }
  return c ^ 0xFFFFFFFFU;
}

}  // namespace rlz
