#include "suffix/matcher.h"

#include <algorithm>
#include <cstring>

#include "suffix/suffix_array.h"
#include "util/logging.h"

namespace rlz {
namespace {

static_assert(__BYTE_ORDER__ == __ORDER_LITTLE_ENDIAN__,
              "CommonPrefix reads the first mismatch from the low byte");

// Length of the common prefix of a[0, limit) and b[0, limit), given that
// the first `k` bytes are already known to match. Compares 8 bytes per
// step: the lowest differing byte of the XOR of two little-endian words
// is the first mismatch.
int32_t CommonPrefix(const char* a, const char* b, int32_t k, int32_t limit) {
  while (limit - k >= 8) {
    uint64_t x;
    uint64_t y;
    std::memcpy(&x, a + k, 8);
    std::memcpy(&y, b + k, 8);
    const uint64_t diff = x ^ y;
    if (diff != 0) return k + (__builtin_ctzll(diff) >> 3);
    k += 8;
  }
  while (k < limit && a[k] == b[k]) ++k;
  return k;
}

// The first four bytes at `p` as one key (any fixed byte order works).
uint32_t LoadPrefix(const char* p) {
  uint32_t key;
  std::memcpy(&key, p, 4);
  return key;
}

}  // namespace

SuffixMatcher::SuffixMatcher(std::string_view text, std::vector<int32_t> sa,
                             bool build_prefix_table)
    : text_(text), sa_(std::move(sa)) {
  if (sa_.empty() && !text_.empty()) {
    sa_ = BuildSuffixArray(text_);
  }
  RLZ_CHECK_EQ(sa_.size(), text_.size());
  if (!build_prefix_table || text_.size() < 4) return;

  // Calls emit(key, lo, hi) for each run of suffixes sharing a 4-byte
  // prefix, in SA order, until emit returns false. Runs are contiguous
  // in the SA, and a suffix shorter than 4 bytes never splits one: it
  // sorts before every longer suffix that starts with its bytes.
  const char* t = text_.data();
  const size_t n = sa_.size();
  const size_t last = n - 4;  // suffixes starting past here are short
  auto for_each_run = [&](auto&& emit) {
    size_t i = 0;
    while (i < n) {
      const size_t p = static_cast<size_t>(sa_[i]);
      if (p > last) {
        ++i;
        continue;
      }
      const uint32_t key = LoadPrefix(t + p);
      const size_t start = i;
      while (++i < n) {
        const size_t q = static_cast<size_t>(sa_[i]);
        if (q > last || LoadPrefix(t + q) != key) break;
      }
      if (!emit(key, static_cast<int32_t>(start), static_cast<int32_t>(i))) {
        return;
      }
    }
  };
  size_t runs = 0;
  for_each_run([&](uint32_t, int32_t, int32_t) {
    ++runs;
    return true;
  });

  // At most half full, and no larger than the SA. A prefix left out of a
  // full table starts its search from the whole SA, which returns the
  // same match, so the cap costs speed on such texts and never output.
  const size_t max_bytes = n * sizeof(int32_t);
  size_t slots = 2;
  while (slots < 2 * runs && 2 * slots * sizeof(PrefixSlot) <= max_bytes) {
    slots <<= 1;
  }
  if (slots * sizeof(PrefixSlot) > max_bytes) return;
  prefix_table_.assign(slots, PrefixSlot{0, 0, 0});
  prefix_shift_ = 32 - __builtin_ctzll(slots);
  const size_t mask = slots - 1;
  size_t room = slots / 2;
  for_each_run([&](uint32_t key, int32_t lo, int32_t hi) {
    size_t i = PrefixHome(key);
    while (prefix_table_[i].hi != 0) i = (i + 1) & mask;
    prefix_table_[i] = PrefixSlot{key, lo, hi};
    return --room > 0;
  });
}

bool SuffixMatcher::Refine(int32_t* lb, int32_t* rb, int32_t offset,
                           uint8_t c) const {
  if (*lb > *rb) return false;
  const int target = c;
  // Lower bound: first index in [lb, rb] with CharAt >= target.
  int32_t lo = *lb;
  int32_t hi = *rb + 1;
  while (lo < hi) {
    const int32_t mid = lo + (hi - lo) / 2;
    if (CharAt(mid, offset) < target) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  const int32_t new_lb = lo;
  if (new_lb > *rb || CharAt(new_lb, offset) != target) return false;
  // Upper bound: first index with CharAt > target.
  hi = *rb + 1;
  while (lo < hi) {
    const int32_t mid = lo + (hi - lo) / 2;
    if (CharAt(mid, offset) <= target) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  *lb = new_lb;
  *rb = lo - 1;
  return true;
}

Match SuffixMatcher::LongestMatch(std::string_view pattern) const {
  Match m;
  // No match is longer than the text, so the clamp loses nothing and
  // keeps every length below in int32_t range.
  const int32_t plen =
      static_cast<int32_t>(std::min(pattern.size(), text_.size()));
  if (plen == 0) return m;
  const int32_t n = static_cast<int32_t>(text_.size());
  const char* p = pattern.data();
  const char* t = text_.data();

  // Lower-bound search for the whole pattern over the open SA interval
  // (lo, hi). `llcp`/`rlcp` are lcp(P, suffix) at the two ends; every
  // suffix strictly inside shares at least min(llcp, rlcp) characters
  // with P, so each probe resumes its comparison there (Manber & Myers).
  // The ends start as sentinels whose lcp is what the whole interval is
  // known to share with P: four bytes after a prefix-table hit, else none.
  int32_t lo = -1;
  int32_t hi = n;
  int32_t llcp = 0;
  int32_t rlcp = 0;
  if (plen >= 4 && !prefix_table_.empty()) {
    const uint32_t key = LoadPrefix(p);
    const size_t mask = prefix_table_.size() - 1;
    for (size_t i = PrefixHome(key); prefix_table_[i].hi != 0;
         i = (i + 1) & mask) {
      if (prefix_table_[i].key == key) {
        lo = prefix_table_[i].lo - 1;
        hi = prefix_table_[i].hi;
        llcp = rlcp = 4;
        break;
      }
    }
  }
  const int32_t first = lo;
  const int32_t last = hi;
  // Below the insertion point lcp(P, SA[i]) never decreases as i grows,
  // so the last lower-side end whose lcp is below the final llcp bounds
  // the leftmost-match search from the left.
  int32_t left = lo;
  int32_t left_lcp = llcp;
  while (hi - lo > 1) {
    const int32_t mid = lo + (hi - lo) / 2;
    const int32_t s = sa_[mid];
    const int32_t limit = std::min(plen, n - s);
    const int32_t k = CommonPrefix(t + s, p, std::min(llcp, rlcp), limit);
    if (k == plen || (k < limit && static_cast<uint8_t>(t[s + k]) >
                                       static_cast<uint8_t>(p[k]))) {
      hi = mid;
      rlcp = k;
    } else {
      if (k > llcp) {
        left = lo;
        left_lcp = llcp;
      }
      lo = mid;
      llcp = k;
    }
  }

  // The longest match is at the insertion point `hi` or just before it.
  if (hi < last && (lo == first || rlcp > llcp)) {
    // Everything before `hi` shares at most llcp < rlcp characters.
    if (rlcp > 0) {
      m.pos = sa_[hi];
      m.len = rlcp;
    }
    return m;
  }
  if (llcp == 0) return m;
  // Fig. 1 returns SA[lb], the leftmost suffix with the longest match:
  // a second lower bound over the matched prefix P[0, llcp) in
  // (left, lo], resuming each comparison at the left end's lcp.
  int32_t a = left;
  int32_t a_lcp = left_lcp;
  int32_t b = lo;
  while (b - a > 1) {
    const int32_t mid = a + (b - a) / 2;
    const int32_t s = sa_[mid];
    const int32_t k = CommonPrefix(t + s, p, a_lcp, std::min(llcp, n - s));
    if (k == llcp) {
      b = mid;
    } else {
      a = mid;
      a_lcp = k;
    }
  }
  m.pos = sa_[b];
  m.len = llcp;
  return m;
}

}  // namespace rlz
