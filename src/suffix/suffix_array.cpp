#include "suffix/suffix_array.h"

#include <algorithm>
#include <numeric>
#include <type_traits>

#include "util/logging.h"

namespace rlz {
namespace {

// SA-IS (Nong, Zhang, Chan 2009) over s[0, n), characters in [0, k),
// into sa[0, n). The text ends in a virtual sentinel: the empty suffix
// n sorts before every other suffix and is not stored. The top level
// reads the text bytes as they are (Char = uint8_t); each recursion
// level reads its reduced string of LMS-substring names (int32_t).
template <typename Char>
void SaIs(const Char* s, int32_t n, int32_t k, int32_t* sa) {
  if (n == 0) return;
  if (n == 1) {
    sa[0] = 0;
    return;
  }

  // Each character with its suffix's type in the two low bits, kL or
  // kS (S: smaller than the next suffix), so one random read in an
  // induction scan yields both. The last suffix is L, as it is larger
  // than the empty one. ct[-2] and ct[-1] are neither type: a scan that
  // meets an empty entry (-1) or suffix 0 reads its predecessor there
  // and skips it with no branch of its own. The scans' branches are on
  // the text's types, which no predictor learns, so every branch not
  // needed is gone: types, LMS positions and the LMS compaction are
  // computed with bitwise operations on bools.
  using Packed = typename std::conditional<sizeof(Char) == 1, uint16_t,
                                           uint32_t>::type;
  constexpr Packed kL = 1;
  constexpr Packed kS = 2;
  std::vector<Packed> ct_buf(n + 2, 0);
  Packed* const ct = ct_buf.data() + 2;
  // The LMS positions in text order, found in the same right-to-left
  // pass: they fill lms_buf[cap - m, cap) backwards, each write
  // unconditional and kept only if its position is LMS.
  const int32_t cap = n / 2 + 1;
  std::vector<int32_t> lms_buf(cap);
  int32_t m = 0;
  bool next_is_s = false;  // suffix n - 1 is L
  ct[n - 1] = static_cast<Packed>((static_cast<Packed>(s[n - 1]) << 2) | kL);
  for (int32_t i = n - 2; i >= 0; --i) {
    const bool is_s = (s[i] < s[i + 1]) | ((s[i] == s[i + 1]) & next_is_s);
    ct[i] = static_cast<Packed>((static_cast<Packed>(s[i]) << 2) |
                                (is_s ? kS : kL));
    lms_buf[cap - 1 - m] = i + 1;
    m += next_is_s & !is_s;
    next_is_s = is_s;
  }
  const int32_t* const lms = lms_buf.data() + cap - m;
  // False for -1 and 0 too, through the padding.
  auto is_lms = [&](int32_t i) {
    return ((ct[i] & kS) != 0) & ((ct[i - 1] & kL) != 0);
  };

  // Bucket c is sa[start[c], start[c + 1]); computed once per level.
  std::vector<int32_t> start(k + 1, 0);
  for (int32_t i = 0; i < n; ++i) ++start[s[i] + 1];
  for (int32_t c = 0; c < k; ++c) start[c + 1] += start[c];
  std::vector<int32_t> cursor(k);

  // Places the LMS suffixes lms[0, m) at their bucket ends (their order
  // within a bucket kept), then induces the L-suffixes left to right and
  // the S-suffixes right to left.
  auto induce = [&](const int32_t* lms, int32_t m) {
    std::fill(sa, sa + n, -1);
    std::copy(start.begin() + 1, start.end(), cursor.begin());
    for (int32_t j = m - 1; j >= 0; --j) sa[--cursor[s[lms[j]]]] = lms[j];
    std::copy(start.begin(), start.end() - 1, cursor.begin());
    // The sentinel comes first; its predecessor, n - 1, is L.
    sa[cursor[s[n - 1]]++] = n - 1;
    for (int32_t i = 0; i < n; ++i) {
      const int32_t j = sa[i] - 1;
      const Packed c = ct[j];
      if (c & kL) sa[cursor[c >> 2]++] = j;
    }
    std::copy(start.begin() + 1, start.end(), cursor.begin());
    for (int32_t i = n - 1; i >= 0; --i) {
      const int32_t j = sa[i] - 1;
      const Packed c = ct[j];
      if (c & kS) sa[--cursor[c >> 2]] = j;
    }
  };

  // Stage 1: sort the LMS substrings by one round of induced sorting.
  if (m == 0) {
    // All L (a non-increasing text): induction from the sentinel alone.
    induce(nullptr, 0);
    return;
  }
  induce(lms, m);
  // The sorted LMS positions, compacted into sa[0, m) (branch-free).
  int32_t kept = 0;
  for (int32_t i = 0; i < n; ++i) {
    const int32_t p = sa[i];
    sa[kept] = p;
    kept += is_lms(p);
  }

  // Name the LMS substrings in sorted order; equal substrings share a
  // name. A substring runs from its LMS position through the next one;
  // the last runs into the sentinel and so equals no other (len 0 below).
  // Equal characters over equal lengths imply equal types.
  // by_half[p / 2] holds the next LMS position after p, then p's name
  // (LMS positions are at least two apart).
  std::vector<int32_t> by_half(n / 2 + 1);
  for (int32_t j = 0; j < m; ++j) {
    by_half[lms[j] / 2] = j + 1 < m ? lms[j + 1] : n;
  }
  int32_t names = 0;
  int32_t prev = 0;
  int32_t prev_len = 0;  // 0: no previous substring
  for (int32_t i = 0; i < m; ++i) {
    const int32_t p = sa[i];
    const int32_t end = by_half[p / 2];
    const int32_t len = end < n ? end - p + 1 : 0;
    names += len == 0 || len != prev_len ||
             !std::equal(s + p, s + p + len, s + prev);
    by_half[p / 2] = names - 1;
    prev = p;
    prev_len = len;
  }

  // Stage 2: order the LMS suffixes into sa[0, m), recursing if names
  // are not unique.
  std::vector<int32_t> s1(m);
  for (int32_t j = 0; j < m; ++j) s1[j] = by_half[lms[j] / 2];
  std::vector<int32_t>().swap(by_half);
  int32_t* const sa1 = sa;
  if (names < m) {
    SaIs(s1.data(), m, names, sa1);
  } else {
    for (int32_t j = 0; j < m; ++j) sa1[s1[j]] = j;
  }

  // Stage 3: induce the full order from the sorted LMS suffixes, placed
  // from s1 (no longer needed as the reduced string) since induce first
  // clears sa.
  for (int32_t j = 0; j < m; ++j) s1[j] = lms[sa1[j]];
  induce(s1.data(), m);
}

}  // namespace

std::vector<int32_t> BuildSuffixArray(std::string_view text) {
  const size_t n = text.size();
  RLZ_CHECK_LE(n, static_cast<size_t>(INT32_MAX) - 1)
      << "text too large for int32 suffix array";
  std::vector<int32_t> sa(n);
  SaIs(reinterpret_cast<const uint8_t*>(text.data()), static_cast<int32_t>(n),
       256, sa.data());
  return sa;
}

std::vector<int32_t> BuildSuffixArrayNaive(std::string_view text) {
  std::vector<int32_t> sa(text.size());
  std::iota(sa.begin(), sa.end(), 0);
  std::sort(sa.begin(), sa.end(), [&](int32_t a, int32_t b) {
    return text.substr(a) < text.substr(b);
  });
  return sa;
}

bool IsValidSuffixArray(std::string_view text,
                        const std::vector<int32_t>& sa) {
  const size_t n = text.size();
  if (sa.size() != n) return false;
  std::vector<bool> seen(n, false);
  for (int32_t p : sa) {
    if (p < 0 || static_cast<size_t>(p) >= n || seen[p]) return false;
    seen[p] = true;
  }
  for (size_t i = 1; i < n; ++i) {
    if (text.substr(sa[i - 1]) >= text.substr(sa[i])) return false;
  }
  return true;
}

}  // namespace rlz
