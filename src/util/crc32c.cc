#include "src/util/crc32c.h"

#include <array>

namespace logbase::crc32c {

namespace {

// Slicing-by-8 CRC32C over the Castagnoli polynomial (reflected form
// 0x82f63b78). t[0] is the classic byte-at-a-time table; t[k][b] is the CRC
// of byte b followed by k zero bytes, so eight lookups fold in eight bytes
// at once. Built at compile time; portable, no CPU-specific instructions.
struct Tables {
  std::array<std::array<uint32_t, 256>, 8> t;
  constexpr Tables() : t{} {
    for (uint32_t i = 0; i < 256; i++) {
      uint32_t crc = i;
      for (int j = 0; j < 8; j++) {
        crc = (crc >> 1) ^ ((crc & 1) ? 0x82f63b78u : 0);
      }
      t[0][i] = crc;
    }
    for (size_t k = 1; k < 8; k++) {
      for (uint32_t i = 0; i < 256; i++) {
        uint32_t prev = t[k - 1][i];
        t[k][i] = (prev >> 8) ^ t[0][prev & 0xff];
      }
    }
  }
};

constexpr Tables kTables;

// Little-endian load, independent of host byte order and alignment.
inline uint32_t Load32(const unsigned char* p) {
  return static_cast<uint32_t>(p[0]) | (static_cast<uint32_t>(p[1]) << 8) |
         (static_cast<uint32_t>(p[2]) << 16) |
         (static_cast<uint32_t>(p[3]) << 24);
}

}  // namespace

uint32_t Extend(uint32_t init_crc, const char* data, size_t n) {
  const auto& t = kTables.t;
  uint32_t crc = init_crc ^ 0xffffffffu;
  const unsigned char* p = reinterpret_cast<const unsigned char*>(data);
  for (; n >= 8; n -= 8, p += 8) {
    uint32_t lo = crc ^ Load32(p);
    uint32_t hi = Load32(p + 4);
    crc = t[7][lo & 0xff] ^ t[6][(lo >> 8) & 0xff] ^ t[5][(lo >> 16) & 0xff] ^
          t[4][lo >> 24] ^ t[3][hi & 0xff] ^ t[2][(hi >> 8) & 0xff] ^
          t[1][(hi >> 16) & 0xff] ^ t[0][hi >> 24];
  }
  for (; n > 0; n--, p++) {
    crc = t[0][(crc ^ *p) & 0xff] ^ (crc >> 8);
  }
  return crc ^ 0xffffffffu;
}

}  // namespace logbase::crc32c
