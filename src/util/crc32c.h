// CRC32C (Castagnoli) checksums protecting log records, sorted-table blocks
// and checkpoint files against corruption.

#ifndef LOGBASE_UTIL_CRC32C_H_
#define LOGBASE_UTIL_CRC32C_H_

#include <cstddef>
#include <cstdint>

namespace logbase::crc32c {

/// Returns the CRC32C of concat(A, data[0,n-1]) where init_crc is the
/// CRC32C of some string A.
uint32_t Extend(uint32_t init_crc, const char* data, size_t n);

namespace internal {
/// The two implementations Extend picks between, exposed so tests can check
/// that they agree: slicing-by-8 tables, portable; and SSE4.2's CRC32
/// instruction, which Extend uses when HardwareAvailable(). On x86-64,
/// ExtendHardware requires HardwareAvailable(); elsewhere it runs the
/// portable code.
uint32_t ExtendPortable(uint32_t init_crc, const char* data, size_t n);
uint32_t ExtendHardware(uint32_t init_crc, const char* data, size_t n);
bool HardwareAvailable();
}  // namespace internal

/// CRC32C of data[0,n-1].
inline uint32_t Value(const char* data, size_t n) { return Extend(0, data, n); }

static const uint32_t kMaskDelta = 0xa282ead8ul;

/// Returns a masked representation of `crc`. Storing raw CRCs of data that
/// itself contains embedded CRCs weakens the check; masking avoids that
/// (RocksDB idiom).
inline uint32_t Mask(uint32_t crc) {
  return ((crc >> 15) | (crc << 17)) + kMaskDelta;
}

/// Inverse of Mask().
inline uint32_t Unmask(uint32_t masked_crc) {
  uint32_t rot = masked_crc - kMaskDelta;
  return ((rot >> 17) | (rot << 15));
}

}  // namespace logbase::crc32c

#endif  // LOGBASE_UTIL_CRC32C_H_
