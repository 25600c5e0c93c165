#ifndef RLZ_TESTS_FIG1_REFERENCE_H_
#define RLZ_TESTS_FIG1_REFERENCE_H_

// Reference longest match: the paper's Fig. 1 loop over the public
// SuffixMatcher::Refine, one character per step from the whole SA, and
// SA[lb] of the last non-empty interval. It never reads the matcher's
// 4-byte prefix table, whose hit interval is exactly four Refines and
// whose miss is this loop from the start, so it is the oracle for the
// exact (pos, len) that LongestMatch must return with the table built or
// not.

#include <cstdint>
#include <string_view>
#include <vector>

#include "suffix/matcher.h"

namespace rlz {

inline Match Fig1LongestMatch(const SuffixMatcher& matcher,
                              std::string_view pattern) {
  const std::vector<int32_t>& sa = matcher.sa();
  const int32_t plen = static_cast<int32_t>(pattern.size());
  int32_t lb = 0;
  int32_t rb = static_cast<int32_t>(sa.size()) - 1;
  int32_t j = 0;
  while (j < plen) {
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
