#ifndef RLZ_ZIP_GZIPX_H_
#define RLZ_ZIP_GZIPX_H_

#include <cstdint>
#include <vector>

#include "zip/compressor.h"
#include "zip/huffman.h"

namespace rlz {

/// Reusable gzipx decode state: the per-block code-length buffers and
/// Huffman decoders (whose root tables hold their capacity across
/// streams). One per caller, like DecodeScratch — the serving hot path
/// keeps one per worker so per-document stream inflation allocates
/// nothing in steady state (DESIGN.md §9).
struct GzipxDecodeScratch {
  /// Literal/length code lengths of the block being decoded.
  std::vector<uint8_t> lit_lens;
  /// Distance code lengths of the block being decoded.
  std::vector<uint8_t> dist_lens;
  /// Literal/length decoder (table capacity reused across blocks).
  HuffmanDecoder lit;
  /// Distance decoder (table capacity reused across blocks).
  HuffmanDecoder dist;
};

/// Options for the gzipx compressor.
struct GzipxOptions {
  /// Maximum hash-chain probes per position. Higher = better matches,
  /// slower compression (zlib's "level" knob).
  int max_chain = 128;
  /// Matches at least this long stop the search early.
  int nice_length = 128;
  /// Enables one-step lazy matching (defer a match if the next position
  /// has a longer one), as zlib does at higher levels.
  bool lazy = true;
};

/// From-scratch DEFLATE-style compressor: LZ77 over a 32 KB sliding window
/// with a hash-chain match finder, followed by per-block semi-static
/// canonical Huffman coding of literal/length and distance symbols (the
/// deflate slot tables). Own container format, not RFC 1951 compatible.
///
/// This is the repository's stand-in for zlib (see DESIGN.md §4): same
/// algorithmic family and window size, so blocked-baseline behaviour
/// (compression vs block size, decode speed) matches zlib's shape.
class GzipxCompressor final : public Compressor {
 public:
  explicit GzipxCompressor(GzipxOptions options = {});

  std::string name() const override { return "gzipx"; }
  void Compress(std::string_view in, std::string* out) const override;
  Status Decompress(std::string_view in, std::string* out) const override {
    return Decompress(in, out, nullptr);
  }
  /// Decompress with reusable decode state: a non-null `scratch` lends
  /// the code-length buffers and decoder tables, removing every per-call
  /// allocation except the output itself. Output bytes are identical with
  /// or without scratch.
  Status Decompress(std::string_view in, std::string* out,
                    GzipxDecodeScratch* scratch) const;
  StatusOr<CompressorId> persistent_id() const override {
    return CompressorId::kGzipx;
  }

  static constexpr int kWindowBits = 15;
  static constexpr int kWindowSize = 1 << kWindowBits;  // 32 KB, as zlib
  static constexpr int kMinMatch = 3;
  static constexpr int kMaxMatch = 258;

 private:
  GzipxOptions options_;
};

/// Test access to the calling thread's compressor state. Compress keeps
/// its hash chains across calls, tagged by a position base that each call
/// advances by its input size, and clears them only when a call's input
/// would carry the base past 2^32.
namespace gzipx_testing {
/// The base the next Compress on this thread starts from.
uint32_t PositionBase();
/// Moves the base up to `base` (never down, so no live entry is
/// mistaken for a current one): a base near 2^32 makes the next Compress
/// take the table-clearing branch.
void RaisePositionBase(uint32_t base);
}  // namespace gzipx_testing

}  // namespace rlz

#endif  // RLZ_ZIP_GZIPX_H_
