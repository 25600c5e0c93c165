#ifndef RLZ_SUFFIX_MATCHER_H_
#define RLZ_SUFFIX_MATCHER_H_

#include <cstdint>
#include <string_view>
#include <vector>

namespace rlz {

/// Result of a longest-match query: `len` characters matched starting at
/// text position `pos` (len == 0 means no character matched).
struct Match {
  int32_t pos = 0;
  int32_t len = 0;
};

/// Pattern matching over a static text via its suffix array — the engine
/// behind the paper's Refine function (Fig. 1 / Table 1). Suffixes sharing
/// a prefix form a contiguous SA interval; Refine narrows the interval by
/// one character with two binary searches. LongestMatch returns the same
/// answer as the Fig. 1 Refine loop from one lower-bound search for the
/// whole pattern (DESIGN.md §5.1).
///
/// Optionally builds a prefix table: an open-addressing hash table from
/// each 4-byte prefix that occurs in the text to the SA interval of the
/// suffixes starting with it, so LongestMatch starts from that interval
/// with 4 characters already matched. The table never takes more memory
/// than the SA: when the text has more distinct 4-byte prefixes than fit,
/// the rest are left out. A prefix that is not in the table (absent from
/// the text, left out, or a pattern shorter than 4 bytes) starts the
/// search from the whole SA, which finds the same match, so the table
/// only changes speed (ablation in bench/micro_bench).
///
/// On top of the table it can build a match-key array: bytes 4-7 of each
/// suffix as one big-endian word, in SA order. Inside a prefix-table run
/// a lower bound over these words finds where a pattern of at least 8
/// bytes inserts without reading the text, so a match shorter than 8
/// bytes (and its leftmost SA entry) never touches it; the text search
/// continues only among suffixes sharing all 8 bytes. It costs 4 bytes
/// per text byte, so the store builds it for its append dictionary only
/// (DESIGN.md §5.1).
class SuffixMatcher {
 public:
  /// `text` must outlive the matcher. If `sa` is empty it is built here.
  explicit SuffixMatcher(std::string_view text,
                         std::vector<int32_t> sa = {},
                         bool build_prefix_table = true);

  /// Builds the match-key array. Does nothing without a prefix table or
  /// on a text shorter than 8 bytes. Not thread-safe: call it before the
  /// matcher is shared.
  void BuildMatchKeys();

  /// The paper's Refine(lb, rb, offset, c): narrows [*lb, *rb] (inclusive
  /// SA index interval whose suffixes share the first `offset` characters)
  /// to those whose character at `offset` equals `c`. Returns false and
  /// leaves the bounds invalid if no suffix qualifies.
  bool Refine(int32_t* lb, int32_t* rb, int32_t offset, uint8_t c) const;

  /// Longest prefix of `pattern` occurring anywhere in the text. Greedy,
  /// leftmost-lowest SA entry wins, exactly as Fig. 1 returns SA[lb].
  /// Does not call Refine: one lower-bound search over the whole pattern
  /// finds the length, a second over the matched prefix the leftmost
  /// entry.
  Match LongestMatch(std::string_view pattern) const;

  std::string_view text() const { return text_; }
  const std::vector<int32_t>& sa() const { return sa_; }
  /// Bytes held by the prefix table; never more than the SA's.
  size_t prefix_table_bytes() const {
    return prefix_table_.size() * sizeof(PrefixSlot);
  }
  /// Bytes held by the match-key array (0 unless it was built).
  size_t match_keys_bytes() const { return keys_.size() * sizeof(uint32_t); }

 private:
  // Character of suffix sa_[i] at distance `offset`, or -1 if the suffix is
  // shorter than offset+1. -1 sorts before every real character, matching
  // lexicographic suffix order.
  int CharAt(int32_t i, int32_t offset) const {
    const size_t p = static_cast<size_t>(sa_[i]) + offset;
    if (p >= text_.size()) return -1;
    return static_cast<uint8_t>(text_[p]);
  }

  // Prefix-table slot: the SA interval [lo, hi) of the suffixes whose
  // first four bytes load as `key`. hi == 0 marks an empty slot, since a
  // stored interval is never empty; every key value, 0 included, is a
  // valid prefix.
  struct PrefixSlot {
    uint32_t key;
    int32_t lo;
    int32_t hi;
  };
  // Finds `pattern`'s longest match in the prefix-table run [lo, hi)
  // from the match keys alone (its first four bytes are the run's).
  // Returns false, having set *match_lo/*match_hi to the SA interval of
  // the suffixes sharing the pattern's first 8 bytes, when the match is
  // at least 8 bytes long.
  bool KeyMatch(const char* pattern, int32_t lo, int32_t hi, Match* m,
                int32_t* match_lo, int32_t* match_hi) const;
  // True if the run [lo, hi) holds a suffix of 4 to 7 bytes, whose key
  // is zero-padded and so does not order it against the pattern.
  bool HoldsShortSuffix(int32_t lo, int32_t hi) const {
    for (const int32_t r : short_ranks_) {
      if (r >= lo && r < hi) return true;
    }
    return false;
  }

  // Home slot of `key`: the top bits of a Fibonacci hash.
  size_t PrefixHome(uint32_t key) const {
    return (key * 0x9E3779B1u) >> prefix_shift_;
  }

  std::string_view text_;
  std::vector<int32_t> sa_;
  // Linear probing over a power-of-two table at most half full; empty
  // when the text has no 4-byte prefix or the table would not fit.
  std::vector<PrefixSlot> prefix_table_;
  int prefix_shift_ = 32;
  // Match keys: bytes 4-7 of suffix sa_[i], big-endian, zero-padded past
  // the text's end. Empty unless built.
  std::vector<uint32_t> keys_;
  // SA ranks of the suffixes of 4 to 7 bytes (-1: none), the only ones
  // whose keys are padded.
  int32_t short_ranks_[4] = {-1, -1, -1, -1};
};

}  // namespace rlz

#endif  // RLZ_SUFFIX_MATCHER_H_
