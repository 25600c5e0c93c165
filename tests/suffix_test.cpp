#include <algorithm>
#include <ostream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "suffix/matcher.h"
#include "suffix/suffix_array.h"
#include "util/random.h"

namespace rlz {
namespace {

std::string RandomString(Rng& rng, size_t len, int alphabet) {
  std::string s(len, '\0');
  for (auto& c : s) {
    c = static_cast<char>('a' + rng.Uniform(alphabet));
  }
  return s;
}

TEST(SuffixArrayTest, EmptyAndSingle) {
  EXPECT_TRUE(BuildSuffixArray("").empty());
  EXPECT_EQ(BuildSuffixArray("x"), std::vector<int32_t>{0});
}

TEST(SuffixArrayTest, Banana) {
  // banana: suffixes sorted = a(5), ana(3), anana(1), banana(0), na(4), nana(2)
  const std::vector<int32_t> expected = {5, 3, 1, 0, 4, 2};
  EXPECT_EQ(BuildSuffixArray("banana"), expected);
}

TEST(SuffixArrayTest, PaperDictionaryExample) {
  // Table 1 of the paper: d = cabbaabba. Sorted suffixes are
  // a, aabba, abba, abbaabba, ba, baabba, bba, bbaabba, cabbaabba,
  // i.e. 1-based start positions 9 5 6 2 8 4 7 3 1 (the paper's printed
  // "SA" row is the inverse permutation — rank by text position).
  const std::vector<int32_t> expected = {8, 4, 5, 1, 7, 3, 6, 2, 0};
  EXPECT_EQ(BuildSuffixArray("cabbaabba"), expected);
}

TEST(SuffixArrayTest, AllEqualCharacters) {
  const std::string s(500, 'z');
  const auto sa = BuildSuffixArray(s);
  ASSERT_TRUE(IsValidSuffixArray(s, sa));
  // Shortest suffix first.
  EXPECT_EQ(sa.front(), 499);
  EXPECT_EQ(sa.back(), 0);
}

TEST(SuffixArrayTest, ContainsNulBytes) {
  std::string s = "ab";
  s.push_back('\0');
  s += "ab";
  s.push_back('\0');
  s += "c";
  const auto sa = BuildSuffixArray(s);
  EXPECT_TRUE(IsValidSuffixArray(s, sa));
}

TEST(SuffixArrayTest, FullByteAlphabet) {
  Rng rng(99);
  std::string s(2000, '\0');
  for (auto& c : s) c = static_cast<char>(rng.Uniform(256));
  const auto sa = BuildSuffixArray(s);
  EXPECT_TRUE(IsValidSuffixArray(s, sa));
}

struct SaCase {
  const char* name;
  size_t len;
  int alphabet;
};

// Print the case by name so the parameterized test names that gtest (and
// ctest's test discovery) derive from it do not embed the `name` pointer,
// whose value changes from run to run.
void PrintTo(const SaCase& c, std::ostream* os) { *os << c.name; }

class SuffixArrayMatchesNaiveTest : public ::testing::TestWithParam<SaCase> {};

TEST_P(SuffixArrayMatchesNaiveTest, MatchesNaive) {
  const SaCase& c = GetParam();
  Rng rng(static_cast<uint64_t>(c.len * 31 + c.alphabet));
  for (int iter = 0; iter < 8; ++iter) {
    const std::string s = RandomString(rng, c.len, c.alphabet);
    EXPECT_EQ(BuildSuffixArray(s), BuildSuffixArrayNaive(s))
        << "case " << c.name << " iter " << iter;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Cases, SuffixArrayMatchesNaiveTest,
    ::testing::Values(SaCase{"tiny_binary", 10, 2},
                      SaCase{"small_binary", 100, 2},
                      SaCase{"small_dna", 200, 4},
                      SaCase{"medium_english", 1000, 26},
                      SaCase{"repetitive", 800, 3},
                      SaCase{"large_binary", 3000, 2}),
    [](const auto& info) { return info.param.name; });

TEST(SuffixArrayTest, PeriodicStrings) {
  for (const char* pat : {"ab", "abc", "aab", "abab"}) {
    std::string s;
    while (s.size() < 400) s += pat;
    const auto sa = BuildSuffixArray(s);
    EXPECT_TRUE(IsValidSuffixArray(s, sa)) << pat;
  }
}

TEST(MatcherTest, PaperRefineExample) {
  // Table 1, step by step: searching x = bbaancabb in d = cabbaabba.
  // Paper bounds are 1-based; ours are 0-based (subtract 1).
  const std::string d = "cabbaabba";
  SuffixMatcher matcher(d);
  int32_t lb = 0;
  int32_t rb = 8;
  ASSERT_TRUE(matcher.Refine(&lb, &rb, 0, 'b'));
  EXPECT_EQ(lb, 4);  // paper: 5
  EXPECT_EQ(rb, 7);  // paper: 8
  ASSERT_TRUE(matcher.Refine(&lb, &rb, 1, 'b'));
  EXPECT_EQ(lb, 6);  // paper: 7
  EXPECT_EQ(rb, 7);  // paper: 8
  // Both "bba" and "bbaabba" match prefix "bba" (the paper's trace narrows
  // to a single suffix here already; the interval semantics keep both).
  ASSERT_TRUE(matcher.Refine(&lb, &rb, 2, 'a'));
  EXPECT_EQ(lb, 6);
  EXPECT_EQ(rb, 7);
  // Fourth character: suffix "bba" is exhausted, only "bbaabba" survives —
  // the paper's (8, 8), 0-based (7, 7).
  ASSERT_TRUE(matcher.Refine(&lb, &rb, 3, 'a'));
  EXPECT_EQ(lb, 7);
  EXPECT_EQ(rb, 7);
  // Fifth character 'n' does not occur: refinement fails.
  int32_t lb2 = lb;
  int32_t rb2 = rb;
  EXPECT_FALSE(matcher.Refine(&lb2, &rb2, 4, 'n'));
  // The surviving suffix is d[3..] = "baabba"... SA[7] = 2 (paper SA[8]=3).
  EXPECT_EQ(matcher.sa()[lb], 2);
}

TEST(MatcherTest, PaperLongestMatches) {
  const std::string d = "cabbaabba";
  SuffixMatcher matcher(d);
  // First factor of x = bbaancabb: "bbaa" at paper offset 3 (0-based 2).
  Match m = matcher.LongestMatch("bbaancabb");
  EXPECT_EQ(m.len, 4);
  EXPECT_EQ(d.substr(m.pos, m.len), "bbaa");
  // 'n' does not occur at all.
  m = matcher.LongestMatch("ncabb");
  EXPECT_EQ(m.len, 0);
  // Final factor "cabb" at paper offset 1 (0-based 0).
  m = matcher.LongestMatch("cabb");
  EXPECT_EQ(m.len, 4);
  EXPECT_EQ(m.pos, 0);
}

Match NaiveLongestMatch(std::string_view text, std::string_view pattern) {
  Match best;
  for (size_t start = 0; start < text.size(); ++start) {
    size_t l = 0;
    while (l < pattern.size() && start + l < text.size() &&
           text[start + l] == pattern[l]) {
      ++l;
    }
    if (static_cast<int32_t>(l) > best.len) {
      best.len = static_cast<int32_t>(l);
      best.pos = static_cast<int32_t>(start);
    }
  }
  return best;
}

class MatcherPropertyTest : public ::testing::TestWithParam<bool> {};

TEST_P(MatcherPropertyTest, LongestMatchMatchesNaive) {
  const bool jump_table = GetParam();
  Rng rng(4242);
  for (int iter = 0; iter < 30; ++iter) {
    const std::string text = RandomString(rng, 300, 3);
    SuffixMatcher matcher(text, {}, jump_table);
    for (int q = 0; q < 40; ++q) {
      std::string pattern = RandomString(rng, 1 + rng.Uniform(20), 3);
      // Half the queries are substrings of the text (guaranteed matches).
      if (q % 2 == 0 && text.size() > 10) {
        const size_t start = rng.Uniform(text.size() - 5);
        pattern = text.substr(start, 1 + rng.Uniform(10));
      }
      const Match got = matcher.LongestMatch(pattern);
      const Match want = NaiveLongestMatch(text, pattern);
      ASSERT_EQ(got.len, want.len) << "pattern " << pattern;
      if (got.len > 0) {
        // Any position with the same match length is acceptable.
        EXPECT_EQ(text.substr(got.pos, got.len), pattern.substr(0, got.len));
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(JumpTable, MatcherPropertyTest, ::testing::Bool(),
                         [](const auto& info) {
                           return info.param ? "WithJumpTable" : "PureBinarySearch";
                         });

TEST(MatcherTest, MatchAcrossFullText) {
  const std::string text = "the quick brown fox jumps over the lazy dog";
  SuffixMatcher matcher(text);
  const Match m = matcher.LongestMatch(text);
  EXPECT_EQ(m.len, static_cast<int32_t>(text.size()));
  EXPECT_EQ(m.pos, 0);
}

TEST(MatcherTest, EmptyPattern) {
  SuffixMatcher matcher("abc");
  const Match m = matcher.LongestMatch("");
  EXPECT_EQ(m.len, 0);
}

TEST(MatcherTest, SingleCharText) {
  SuffixMatcher matcher("a");
  EXPECT_EQ(matcher.LongestMatch("aaa").len, 1);
  EXPECT_EQ(matcher.LongestMatch("b").len, 0);
}

// ---------------------------------------------------------------------------
// Property test: the jump-table fast path must be indistinguishable from
// the pure binary-search path — same length AND same (leftmost-lowest SA)
// position — on every input. The jump table skips the first two Refine
// rounds and excludes length-1 suffixes, which is exactly where a silent
// divergence would hide.

// Runs every pattern through both matchers (shared suffix array, built
// once) and requires identical Match results.
void CrossCheckMatchers(const std::string& text,
                        const std::vector<std::string>& patterns,
                        const char* label) {
  const std::vector<int32_t> sa = BuildSuffixArray(text);
  const SuffixMatcher with_jump(text, sa, /*build_jump_table=*/true);
  const SuffixMatcher no_jump(text, sa, /*build_jump_table=*/false);
  for (const std::string& pattern : patterns) {
    const Match a = with_jump.LongestMatch(pattern);
    const Match b = no_jump.LongestMatch(pattern);
    ASSERT_EQ(a.len, b.len)
        << label << ": length diverged on pattern of size " << pattern.size();
    ASSERT_EQ(a.pos, b.pos)
        << label << ": position diverged on pattern of size " << pattern.size();
  }
}

// Patterns that stress a given text: its substrings (including suffixes of
// length 1 and 2), mutated substrings, overshooting prefixes, and random
// noise over the full byte alphabet.
std::vector<std::string> StressPatterns(const std::string& text, Rng& rng) {
  std::vector<std::string> patterns;
  patterns.push_back("");
  if (!text.empty()) {
    patterns.push_back(text);                        // full text
    patterns.push_back(text.substr(text.size() - 1));  // length-1 suffix
    patterns.push_back(text + "x");                  // overshoot at the end
  }
  for (int i = 0; i < 60; ++i) {
    if (text.empty()) break;
    const size_t pos = rng.Next() % text.size();
    const size_t len = 1 + rng.Next() % std::min<size_t>(64, text.size() - pos);
    std::string p = text.substr(pos, len);
    patterns.push_back(p);
    // Mutate one byte so matches break mid-pattern at arbitrary offsets
    // (offset 0 and 1 exercise the jump table's no-2-char-match fallback).
    std::string q = p;
    q[rng.Next() % q.size()] ^= static_cast<char>(1 + rng.Next() % 255);
    patterns.push_back(q);
  }
  for (int i = 0; i < 20; ++i) {
    std::string p(1 + rng.Next() % 8, '\0');
    for (auto& c : p) c = static_cast<char>(rng.Next() % 256);
    patterns.push_back(p);
  }
  return patterns;
}

TEST(MatcherPropertyTest, JumpTableMatchesBinarySearchOnRandomTexts) {
  Rng rng(20110613);
  for (const int alphabet : {2, 4, 26, 255}) {
    const std::string text = RandomString(rng, 2000, alphabet);
    CrossCheckMatchers(text, StressPatterns(text, rng), "random");
  }
}

TEST(MatcherPropertyTest, JumpTableMatchesBinarySearchOnRepetitiveTexts) {
  Rng rng(42);
  for (const char* period : {"a", "ab", "aab", "abcabd"}) {
    std::string text;
    while (text.size() < 1500) text += period;
    CrossCheckMatchers(text, StressPatterns(text, rng), period);
  }
}

TEST(MatcherPropertyTest, JumpTableMatchesBinarySearchWithNulBytes) {
  Rng rng(7);
  // NUL-heavy text: key 0x0000 occupies jump-table slot 0, and suffixes
  // ending in NUL stress the excluded-length-1 bookkeeping.
  std::string text;
  for (int i = 0; i < 800; ++i) {
    text.push_back(static_cast<char>(rng.Next() % 3));  // '\0','\1','\2'
  }
  std::vector<std::string> patterns = StressPatterns(text, rng);
  patterns.push_back(std::string(1, '\0'));
  patterns.push_back(std::string(2, '\0'));
  CrossCheckMatchers(text, patterns, "nul");
}

TEST(MatcherPropertyTest, JumpTableMatchesBinarySearchOnTinyTexts) {
  // Length 0/1/2 texts sit at the jump table's build threshold (it is only
  // built for texts of length >= 2); length-1 suffixes dominate.
  for (const char* text : {"", "a", "ab", "aa", "ba"}) {
    std::vector<std::string> patterns = {"",  "a",  "b",  "aa", "ab",
                                         "ba", "bb", "aba", "x"};
    CrossCheckMatchers(text, patterns, "tiny");
  }
  // A pattern whose only match is the final (length-1) suffix: the jump
  // table has no entry for it, so the fast path must fall back correctly.
  const std::string text = "bbbbbbba";
  std::vector<std::string> patterns = {"a", "ab", "ac", "aa"};
  CrossCheckMatchers(text, patterns, "last-suffix");
}

}  // namespace
}  // namespace rlz
