#ifndef RLZ_CORE_FACTOR_CODER_H_
#define RLZ_CORE_FACTOR_CODER_H_

/// \file
/// Position/length stream codings (§3.4) and the per-document factor coder.

#include <string>
#include <string_view>
#include <vector>

#include "core/dictionary.h"
#include "core/factor.h"
#include "store/decode_scratch.h"
#include "util/status.h"

namespace rlz {

/// Position-stream codes (§3.4). "Z" applies the general-purpose gzipx
/// compressor to the U32-encoded positions of one document, exploiting the
/// within-document skew the paper observed; "U" stores raw 32-bit words.
/// kPFD is an extension codec from the paper's future-work list.
enum class PosCoding : uint8_t {
  kU32 = 0,   ///< "U": raw 32-bit words.
  kZlib = 1,  ///< "Z": gzipx over the U32 stream.
  kPFD = 2,   ///< "PFD": PForDelta-style extension codec.
};

/// Length-stream codes. "V" is vbyte (the paper's default, Fig. 3
/// motivates it); "Z" compresses the vbyte stream with gzipx; kS9/kPFD are
/// the future-work codecs (§6).
enum class LenCoding : uint8_t {
  kVByte = 0,  ///< "V": vbyte.
  kZlib = 1,   ///< "Z": gzipx over the vbyte stream.
  kS9 = 2,     ///< "S9": Simple-9 extension codec.
  kPFD = 3,    ///< "PFD": PForDelta-style extension codec.
};

/// A position–length coding pair, named as in the paper's tables: first
/// letter = positions, second = lengths (e.g. "ZV" = zlib positions, vbyte
/// lengths).
struct PairCoding {
  /// Position-stream code.
  PosCoding pos = PosCoding::kZlib;
  /// Length-stream code.
  LenCoding len = LenCoding::kVByte;

  /// The paper's two-letter name (e.g. "ZV").
  std::string name() const;
  /// Parses a two-letter name back to a coding pair; InvalidArgument on
  /// unknown names.
  static StatusOr<PairCoding> FromName(std::string_view name);
};

/// "ZZ": gzipx positions, gzipx lengths (Tables 4/5/8).
inline constexpr PairCoding kZZ{PosCoding::kZlib, LenCoding::kZlib};
/// "ZV": gzipx positions, vbyte lengths — the paper's recommended pair.
inline constexpr PairCoding kZV{PosCoding::kZlib, LenCoding::kVByte};
/// "UZ": raw positions, gzipx lengths.
inline constexpr PairCoding kUZ{PosCoding::kU32, LenCoding::kZlib};
/// "UV": raw positions, vbyte lengths — the fastest-decode pair.
inline constexpr PairCoding kUV{PosCoding::kU32, LenCoding::kVByte};

/// Encodes one document's factor list into a byte string and back. The
/// per-document layout is
///   vbyte(num_factors) | positions stream | lengths stream
/// with gzipx streams length-prefixed. Positions and lengths are grouped
/// per document and coded separately, as §3.4 prescribes.
class FactorCoder {
 public:
  /// A coder for the given position/length coding pair.
  explicit FactorCoder(PairCoding coding) : coding_(coding) {}

  /// The coding pair this coder implements.
  PairCoding coding() const { return coding_; }

  /// Largest decoded document a factor stream may claim (1 GiB). The sum
  /// of factor lengths is checked against this before the output buffer is
  /// sized, so a crafted stream of maximal lengths cannot force a
  /// multi-GiB allocation out of a few hundred input bytes.
  static constexpr uint64_t kMaxDecodedDocBytes = 1ull << 30;

  /// Rejects per-document z-streams the vbyte32 framing cannot represent:
  /// a raw or compressed stream of kMaxZStreamBytes or more would be
  /// silently truncated to 32 bits in the stream headers and round-trip
  /// corrupt. Exposed so tests can exercise the guard without allocating
  /// 4 GiB.
  static Status CheckZStreamLimits(uint64_t raw_bytes, uint64_t z_bytes);

  /// Upper bound (exclusive) for CheckZStreamLimits: 4 GiB.
  static constexpr uint64_t kMaxZStreamBytes = 1ull << 32;

  /// Appends the encoded form of `factors` to `out`. Returns
  /// InvalidArgument (with `out` restored to its input length) if a
  /// z-coded stream exceeds the per-document format limits — see
  /// CheckZStreamLimits.
  Status EncodeDoc(const std::vector<Factor>& factors, std::string* out) const;

  /// Decodes an encoded document back to factors. `in` must begin at the
  /// encoding; trailing bytes are ignored. Sets `*consumed` if non-null.
  Status DecodeFactors(std::string_view in, std::vector<Factor>* factors,
                       size_t* consumed = nullptr) const;

  /// Decodes an encoded document straight to text via `dict` (Fig. 2),
  /// appending to `*text`. Expansion is two-pass: factor lengths are
  /// summed and bounds-checked first, the output is resized once, then
  /// factors are expanded with a tight memcpy loop — the paper's
  /// memcpy-decode, with no per-factor growth checks. A non-null `scratch`
  /// lends reusable position/length/inflate buffers so the decode performs
  /// no heap allocations beyond the output itself (DESIGN.md §9); output
  /// bytes are identical with or without scratch.
  Status DecodeDoc(std::string_view in, const Dictionary& dict,
                   std::string* text, DecodeScratch* scratch = nullptr) const;

  /// Decodes only text[offset, offset+length) of the document, skipping
  /// factors before the range and stopping after it — snippet extraction
  /// without materializing the whole document. If the range extends past
  /// the end of the document the available suffix is returned. `scratch`
  /// as in DecodeDoc.
  Status DecodeRange(std::string_view in, const Dictionary& dict,
                     size_t offset, size_t length, std::string* text,
                     DecodeScratch* scratch = nullptr) const;

 private:
  Status DecodeStreams(std::string_view in, std::vector<uint32_t>* positions,
                       std::vector<uint32_t>* lengths, size_t* consumed,
                       DecodeScratch* scratch) const;

  /// The fused fast path behind DecodeDoc and DecodeRange for the
  /// paper's four pairs (U32/Zlib positions × VByte/Zlib lengths): the
  /// factors that reach into text[offset, offset+length) are expanded
  /// straight off the raw byte streams with no intermediate
  /// position/length vectors. Byte-identical output to the general path.
  Status DecodeFused(std::string_view in, const Dictionary& dict,
                     size_t offset, size_t length, std::string* text,
                     DecodeScratch* scratch) const;

  PairCoding coding_;
};

}  // namespace rlz

#endif  // RLZ_CORE_FACTOR_CODER_H_
