#ifndef RLZ_TESTS_FIG1_REFERENCE_H_
#define RLZ_TESTS_FIG1_REFERENCE_H_

// Reference longest match: the paper's Fig. 1 loop over the public
// SuffixMatcher::Refine, one character per step. With `jump_start` it
// resolves the first two characters as the 2-byte jump table does (its
// interval is exactly two Refines; a miss falls back to a 1-character
// match), and it extends a single surviving suffix by direct comparison.
// The oracle for the exact (pos, len) that LongestMatch must return.

#include <cstdint>
#include <string_view>
#include <vector>

#include "suffix/matcher.h"

namespace rlz {

inline Match Fig1LongestMatch(const SuffixMatcher& matcher,
                              std::string_view pattern, bool jump_start) {
  const std::string_view text = matcher.text();
  const std::vector<int32_t>& sa = matcher.sa();
  const int32_t plen = static_cast<int32_t>(pattern.size());
  int32_t lb = 0;
  int32_t rb = static_cast<int32_t>(sa.size()) - 1;
  int32_t j = 0;
  if (jump_start && text.size() >= 2 && plen >= 2) {
    int32_t l1 = lb;
    int32_t r1 = rb;
    if (!matcher.Refine(&l1, &r1, 0, static_cast<uint8_t>(pattern[0]))) {
      return Match{};
    }
    lb = l1;
    rb = r1;
    if (!matcher.Refine(&lb, &rb, 1, static_cast<uint8_t>(pattern[1]))) {
      return Match{sa[l1], 1};
    }
    j = 2;
  }
  while (j < plen) {
    if (lb == rb) {
      const size_t start = static_cast<size_t>(sa[lb]);
      while (j < plen && start + j < text.size() &&
             text[start + j] == pattern[j]) {
        ++j;
      }
      break;
    }
    int32_t nlb = lb;
    int32_t nrb = rb;
    if (!matcher.Refine(&nlb, &nrb, j, static_cast<uint8_t>(pattern[j]))) {
      break;
    }
    lb = nlb;
    rb = nrb;
    ++j;
  }
  return j == 0 ? Match{} : Match{sa[lb], j};
}

}  // namespace rlz

#endif  // RLZ_TESTS_FIG1_REFERENCE_H_
