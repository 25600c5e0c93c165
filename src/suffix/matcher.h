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
/// Optionally builds a jump-start table: a dense index over the packed
/// 2-byte prefixes of suffixes, whose entry narrows LongestMatch's
/// starting interval to the suffixes that share the pattern's first two
/// bytes (ablation in bench/micro_bench; see DESIGN.md §5.1).
class SuffixMatcher {
 public:
  /// `text` must outlive the matcher. If `sa` is empty it is built here.
  explicit SuffixMatcher(std::string_view text,
                         std::vector<int32_t> sa = {},
                         bool build_jump_table = true);

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

 private:
  // Character of suffix sa_[i] at distance `offset`, or -1 if the suffix is
  // shorter than offset+1. -1 sorts before every real character, matching
  // lexicographic suffix order.
  int CharAt(int32_t i, int32_t offset) const {
    const size_t p = static_cast<size_t>(sa_[i]) + offset;
    if (p >= text_.size()) return -1;
    return static_cast<uint8_t>(text_[p]);
  }

  std::string_view text_;
  std::vector<int32_t> sa_;
  // jump_[prefix16] = SA interval [lo, hi) of suffixes starting with the
  // two-byte prefix; empty intervals have lo == hi.
  std::vector<int32_t> jump_lo_;
  std::vector<int32_t> jump_hi_;
  bool has_jump_ = false;
};

}  // namespace rlz

#endif  // RLZ_SUFFIX_MATCHER_H_
