#ifndef RLZ_UTIL_CRC32_H_
#define RLZ_UTIL_CRC32_H_

#include <cstddef>
#include <cstdint>
#include <string_view>

namespace rlz {

/// CRC-32 (IEEE 802.3 polynomial, the zlib/gzip checksum). Used to validate
/// archive blocks and compressed streams on read. On x86-64 CPUs with
/// PCLMULQDQ and SSE4.1, inputs of 64 bytes or more run a carry-less-multiply
/// kernel chosen at run time; everything else runs Crc32Portable. Both give
/// the same value for every input.
uint32_t Crc32(const void* data, size_t size, uint32_t seed = 0);

/// The slicing-by-8 table implementation Crc32 falls back to, exposed so the
/// fallback is tested on hosts where Crc32 dispatches to the kernel.
uint32_t Crc32Portable(const void* data, size_t size, uint32_t seed = 0);

inline uint32_t Crc32(std::string_view s, uint32_t seed = 0) {
  return Crc32(s.data(), s.size(), seed);
}

}  // namespace rlz

#endif  // RLZ_UTIL_CRC32_H_
