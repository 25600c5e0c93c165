#ifndef RLZ_UTIL_BITIO_H_
#define RLZ_UTIL_BITIO_H_

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "util/logging.h"

namespace rlz {

/// Appends bit fields to a byte buffer, LSB-first within each byte (the
/// deflate convention). Used by the Huffman and range-coder back ends.
class BitWriter {
 public:
  explicit BitWriter(std::string* out) : out_(out) {}

  /// Writes the low `nbits` bits of `bits` (0 <= nbits <= 57).
  void WriteBits(uint64_t bits, int nbits) {
    RLZ_DCHECK(nbits >= 0 && nbits <= 57);
    RLZ_DCHECK(nbits == 64 || (bits >> nbits) == 0);
    acc_ |= bits << filled_;
    filled_ += nbits;
    while (filled_ >= 8) {
      out_->push_back(static_cast<char>(acc_ & 0xFF));
      acc_ >>= 8;
      filled_ -= 8;
    }
  }

  /// Flushes any partial byte (zero-padded). Must be called exactly once,
  /// at the end of the stream.
  void Finish() {
    if (filled_ > 0) {
      out_->push_back(static_cast<char>(acc_ & 0xFF));
      acc_ = 0;
      filled_ = 0;
    }
  }

  /// Total bits written so far (excluding padding).
  size_t bit_count() const { return out_->size() * 8 - (8 - filled_) % 8; }

 private:
  std::string* out_;
  uint64_t acc_ = 0;
  int filled_ = 0;
};

/// Reads bit fields written by BitWriter. Reading past the end returns
/// zero bits and sets overflowed(); callers validate with a checksum or
/// symbol count rather than aborting, since inputs may be corrupt files.
class BitReader {
 public:
  BitReader(const uint8_t* data, size_t size) : data_(data), size_(size) {}
  explicit BitReader(const std::string& s)
      : BitReader(reinterpret_cast<const uint8_t*>(s.data()), s.size()) {}

  /// Reads `nbits` bits (0 <= nbits <= 57).
  uint64_t ReadBits(int nbits) {
    RLZ_DCHECK(nbits >= 0 && nbits <= 57);
    if (filled_ < nbits) Refill(nbits);
    const uint64_t mask = (nbits == 64) ? ~0ULL : ((1ULL << nbits) - 1);
    const uint64_t v = acc_ & mask;
    acc_ >>= nbits;
    filled_ -= nbits;
    return v;
  }

  /// Peeks at the next `nbits` bits without consuming them.
  uint64_t PeekBits(int nbits) {
    if (filled_ < nbits) Refill(nbits);
    const uint64_t mask = (nbits == 64) ? ~0ULL : ((1ULL << nbits) - 1);
    return acc_ & mask;
  }

  /// Discards `nbits` previously peeked bits.
  void SkipBits(int nbits) {
    RLZ_DCHECK_LE(nbits, filled_);
    acc_ >>= nbits;
    filled_ -= nbits;
  }

  bool overflowed() const { return overflowed_; }

  /// Byte position of the next unread byte.
  size_t byte_pos() const { return pos_; }

 private:
  // Tops up the accumulator until it holds at least `nbits` bits. Away
  // from the stream tail this is one unaligned 64-bit load instead of a
  // byte-at-a-time loop.
  void Refill(int nbits) {
#if defined(__BYTE_ORDER__) && defined(__ORDER_LITTLE_ENDIAN__) && \
    __BYTE_ORDER__ == __ORDER_LITTLE_ENDIAN__
    if (pos_ + 8 <= size_) {
      uint64_t chunk;
      std::memcpy(&chunk, data_ + pos_, 8);
      const int take = (64 - filled_) >> 3;  // whole bytes that fit
      if (take == 8) {  // filled_ == 0, so acc_ is empty
        acc_ = chunk;
        filled_ = 64;
      } else {
        chunk &= (1ULL << (take * 8)) - 1;
        acc_ |= chunk << filled_;
        filled_ += take * 8;
      }
      pos_ += static_cast<size_t>(take);
      return;  // filled_ >= 57 >= nbits
    }
#endif
    while (filled_ < nbits) {
      uint64_t byte = 0;
      if (pos_ < size_) {
        byte = data_[pos_++];
      } else {
        overflowed_ = true;
      }
      acc_ |= byte << filled_;
      filled_ += 8;
    }
  }

  const uint8_t* data_;
  size_t size_;
  size_t pos_ = 0;
  uint64_t acc_ = 0;
  bool overflowed_ = false;
  int filled_ = 0;
};

}  // namespace rlz

#endif  // RLZ_UTIL_BITIO_H_
