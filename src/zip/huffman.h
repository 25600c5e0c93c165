#ifndef RLZ_ZIP_HUFFMAN_H_
#define RLZ_ZIP_HUFFMAN_H_

#include <algorithm>
#include <cstdint>
#include <vector>

#include "util/bitio.h"
#include "util/status.h"

namespace rlz {

/// Maximum Huffman code length supported by the encoder/decoder tables.
inline constexpr int kMaxHuffmanBits = 15;

/// Computes length-limited Huffman code lengths for `freqs` (0 for unused
/// symbols). Builds the tree from two sorted queues (the leaves, and the
/// internal nodes in creation order), then runs the zlib/miniz
/// Kraft-repair pass to enforce `max_bits`. Symbols with nonzero frequency
/// always receive a length in [1, max_bits]. If only one symbol is used it
/// gets length 1.
std::vector<uint8_t> BuildHuffmanCodeLengths(const std::vector<uint64_t>& freqs,
                                             int max_bits = kMaxHuffmanBits);

/// Canonical Huffman encoder: assigns canonical codes from lengths and
/// writes bit-reversed codes through a BitWriter (LSB-first stream, the
/// deflate convention).
class HuffmanEncoder {
 public:
  /// `lengths[s]` is the code length of symbol s (0 = unused).
  explicit HuffmanEncoder(const std::vector<uint8_t>& lengths);

  void Write(BitWriter* bw, uint32_t symbol) const {
    RLZ_DCHECK_LT(symbol, codes_.size());
    RLZ_DCHECK(lengths_[symbol] > 0);
    bw->WriteBits(codes_[symbol], lengths_[symbol]);
  }

  uint8_t length(uint32_t symbol) const { return lengths_[symbol]; }

 private:
  std::vector<uint16_t> codes_;  // bit-reversed canonical codes
  std::vector<uint8_t> lengths_;
};

/// Table-driven canonical Huffman decoder. Codes of up to kRootBits bits
/// resolve through a single root-table lookup; longer (rare) codes fall
/// back to a canonical first-code walk. The root table is capped at
/// 2^kRootBits entries because the serving hot path builds fresh tables
/// for every per-document factor stream (two Inits per ZV document), where
/// an uncapped 2^15-entry fill would cost more than the decode itself
/// (DESIGN.md §9). Init is not cheap even so: it counting-sorts the
/// symbols by code length and fills the root table by doubling copies,
/// ~1.6 µs for a 286-symbol literal/length code and ~0.3 µs for a
/// distance code on a 4-vCPU Xeon VM — about a tenth of a ZV document's
/// decode (EXPERIMENTS.md "Decode throughput").
///
/// Init is re-callable: a reused decoder (GzipxDecodeScratch) keeps its
/// table capacity across streams, so steady-state decoding allocates
/// nothing.
class HuffmanDecoder {
 public:
  /// Root-table width in bits: codes at most this long decode with one
  /// table lookup (the overwhelming majority by construction — canonical
  /// codes this long cover symbols of probability down to ~2^-10).
  static constexpr int kRootBits = 10;

  /// A decoded entry is (symbol << 8) | code length; kInvalidEntry marks
  /// bits that begin no code of this decoder (its symbol is above any
  /// real one).
  static constexpr uint32_t kInvalidEntry = 0xFFFFFFFFU;
  /// Symbol of an entry.
  static uint32_t EntrySymbol(uint32_t entry) { return entry >> 8; }
  /// Code length in bits of a valid entry.
  static int EntryLength(uint32_t entry) {
    return static_cast<int>(entry & 0xFF);
  }

  /// Builds the decode table. Returns Corruption if the lengths do not
  /// describe a prefix-complete (or under-full) code.
  Status Init(const std::vector<uint8_t>& lengths);

  /// Decodes one symbol. Returns a negative value on malformed input.
  int32_t Decode(BitReader* br) const {
    uint32_t entry = table_[br->PeekBits(std::min(max_len_, kRootBits))];
    if (entry == kInvalidEntry) {
      entry = LookupSlow(br->PeekBits(max_len_));
      if (entry == kInvalidEntry) return -1;
    }
    br->SkipBits(EntryLength(entry));
    return static_cast<int32_t>(EntrySymbol(entry));
  }

  /// The root table: 2^kRootBits entries, indexed by the next kRootBits
  /// stream bits. An entry is the code those bits begin if it is at most
  /// kRootBits long, else kInvalidEntry (then call LookupSlow). A decode
  /// loop that writes its output through `char*` copies this pointer into
  /// a local: a char store may alias any object, so reading the table
  /// through the decoder would reload the pointer after every output byte.
  const uint32_t* root_table() const { return table_.data(); }

  /// Resolves the code at the head of `bits` (LSB-first; at least
  /// kMaxHuffmanBits valid bits) by walking the canonical first-code
  /// boundaries: the entry, or kInvalidEntry if no code matches. Does not
  /// consume anything; the caller skips EntryLength(entry) bits.
  uint32_t LookupSlow(uint64_t bits) const;

 private:
  std::vector<uint32_t> table_;  // root table, 2^kRootBits entries
  int max_len_ = 0;
  // Canonical code per length: the first code, the number of codes, and
  // the offset of the first such symbol in sorted_.
  uint32_t first_code_[kMaxHuffmanBits + 1] = {};
  uint32_t code_count_[kMaxHuffmanBits + 1] = {};
  uint32_t sorted_offset_[kMaxHuffmanBits + 1] = {};
  std::vector<uint16_t> sorted_;  // used symbols in canonical order
};

}  // namespace rlz

#endif  // RLZ_ZIP_HUFFMAN_H_
