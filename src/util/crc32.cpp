#include "util/crc32.h"

#include <array>

#if defined(__x86_64__)
#include <immintrin.h>
#endif

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

// Advances the inverted running state `c` over `size` bytes with the
// slicing-by-8 tables.
uint32_t TableUpdate(uint32_t c, const uint8_t* p, size_t size) {
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
  return c;
}

#if defined(__x86_64__)

inline __m128i Load(const uint8_t* p) {
  return _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
}

// hi(x)*k_hi ^ lo(x)*k_lo ^ next: moves the lane x forward over the
// distance the constants k stand for and adds the bytes found there.
__attribute__((target("pclmul,sse4.1"))) inline __m128i Fold(__m128i x,
                                                             __m128i k,
                                                             __m128i next) {
  return _mm_xor_si128(_mm_xor_si128(_mm_clmulepi64_si128(x, k, 0x11),
                                     _mm_clmulepi64_si128(x, k, 0x00)),
                       next);
}

// Advances the inverted running state `c` over `size` bytes, a multiple of
// 16 and at least 64, by carry-less-multiply folding (Gopal et al., "Fast
// CRC Computation for Generic Polynomials Using PCLMULQDQ Instruction",
// Intel, 2009): four 128-bit lanes fold forward 64 bytes per step, fold
// into one lane, which then takes 16 bytes per step; the last 128 bits
// fold to 64 and a Barrett reduction leaves the 32-bit state. With P the
// CRC-32 polynomial 0x104C11DB7, each k is x^n mod P bit-reflected over 32
// bits and shifted left by one (k1, k2: n = 4*128+32 and 4*128-32; k3, k4:
// 128+32 and 128-32; k5: 64); P' and mu are P and floor(x^64 / P)
// bit-reflected over 33 bits.
__attribute__((target("pclmul,sse4.1"))) uint32_t ClmulUpdate(
    uint32_t c, const uint8_t* p, size_t size) {
  const __m128i k1k2 = _mm_set_epi64x(0x1c6e41596, 0x154442bd4);
  const __m128i k3k4 = _mm_set_epi64x(0x0ccaa009e, 0x1751997d0);
  const __m128i k5 = _mm_set_epi64x(0, 0x163cd6124);
  const __m128i poly_mu = _mm_set_epi64x(0x1f7011641, 0x1db710641);
  const __m128i low32 = _mm_setr_epi32(~0, 0, ~0, 0);

  __m128i x1 =
      _mm_xor_si128(Load(p), _mm_cvtsi32_si128(static_cast<int>(c)));
  __m128i x2 = Load(p + 16);
  __m128i x3 = Load(p + 32);
  __m128i x4 = Load(p + 48);
  p += 64;
  size -= 64;
  for (; size >= 64; p += 64, size -= 64) {
    x1 = Fold(x1, k1k2, Load(p));
    x2 = Fold(x2, k1k2, Load(p + 16));
    x3 = Fold(x3, k1k2, Load(p + 32));
    x4 = Fold(x4, k1k2, Load(p + 48));
  }
  x1 = Fold(x1, k3k4, x2);
  x1 = Fold(x1, k3k4, x3);
  x1 = Fold(x1, k3k4, x4);
  for (; size >= 16; p += 16, size -= 16) {
    x1 = Fold(x1, k3k4, Load(p));
  }

  // 128 -> 64 bits: the low half times k4 joins the high half, then the
  // low 32 bits of that times k5 join the rest.
  x1 = _mm_xor_si128(_mm_srli_si128(x1, 8),
                     _mm_clmulepi64_si128(x1, k3k4, 0x10));
  x1 = _mm_xor_si128(
      _mm_srli_si128(x1, 4),
      _mm_clmulepi64_si128(_mm_and_si128(x1, low32), k5, 0x00));

  // Barrett reduction to 32 bits.
  __m128i t = _mm_clmulepi64_si128(_mm_and_si128(x1, low32), poly_mu, 0x10);
  t = _mm_clmulepi64_si128(_mm_and_si128(t, low32), poly_mu, 0x00);
  return static_cast<uint32_t>(_mm_extract_epi32(_mm_xor_si128(x1, t), 1));
}

bool HasClmul() {
  // Resolved on first use, so a call from another translation unit's static
  // initializer still sees the CPU model initialised.
  static const bool has = [] {
    __builtin_cpu_init();
    return __builtin_cpu_supports("pclmul") &&
           __builtin_cpu_supports("sse4.1");
  }();
  return has;
}

#endif  // defined(__x86_64__)

}  // namespace

uint32_t Crc32Portable(const void* data, size_t size, uint32_t seed) {
  return TableUpdate(seed ^ 0xFFFFFFFFU, static_cast<const uint8_t*>(data),
                     size) ^
         0xFFFFFFFFU;
}

uint32_t Crc32(const void* data, size_t size, uint32_t seed) {
#if defined(__x86_64__)
  if (size >= 64 && HasClmul()) {
    const uint8_t* p = static_cast<const uint8_t*>(data);
    const size_t bulk = size & ~size_t{15};
    const uint32_t c = ClmulUpdate(seed ^ 0xFFFFFFFFU, p, bulk);
    return TableUpdate(c, p + bulk, size - bulk) ^ 0xFFFFFFFFU;
  }
#endif
  return Crc32Portable(data, size, seed);
}

}  // namespace rlz
