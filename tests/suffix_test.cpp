#include <algorithm>
#include <ostream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/dictionary.h"
#include "corpus/generator.h"
#include "fig1_reference.h"
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

// SA-IS against the sort-based reference, and IsValidSuffixArray, on one
// text.
void ExpectSaIsMatchesNaive(const std::string& s, const std::string& label) {
  const std::vector<int32_t> sa = BuildSuffixArray(s);
  ASSERT_EQ(sa, BuildSuffixArrayNaive(s)) << label;
  ASSERT_TRUE(IsValidSuffixArray(s, sa)) << label;
}

TEST(SuffixArrayTest, EverySizeUpTo64) {
  // Small texts hit every early exit of the recursion: no LMS position,
  // one, or names that are all unique on the first level.
  Rng rng(64);
  for (size_t n = 1; n <= 64; ++n) {
    for (const int alphabet : {1, 2, 3, 256}) {
      for (int iter = 0; iter < 4; ++iter) {
        std::string s(n, '\0');
        for (auto& c : s) c = static_cast<char>(rng.Uniform(alphabet));
        ExpectSaIsMatchesNaive(s, "n=" + std::to_string(n) + " alphabet=" +
                                      std::to_string(alphabet));
      }
    }
    // Strictly decreasing and increasing texts: all L, all S but the last.
    std::string down(n, '\0');
    std::string up(n, '\0');
    for (size_t i = 0; i < n; ++i) {
      down[i] = static_cast<char>(200 - i);
      up[i] = static_cast<char>(10 + i);
    }
    ExpectSaIsMatchesNaive(down, "decreasing n=" + std::to_string(n));
    ExpectSaIsMatchesNaive(up, "increasing n=" + std::to_string(n));
  }
}

TEST(SuffixArrayTest, AllEqualBytesOfEverySize) {
  for (const size_t n : {1, 2, 3, 7, 8, 9, 63, 64, 65, 1000, 4097}) {
    for (const char c : {'\0', 'a', '\xFF'}) {
      ExpectSaIsMatchesNaive(std::string(n, c),
                             "all-equal n=" + std::to_string(n));
    }
  }
}

TEST(SuffixArrayTest, NulAndFfRuns) {
  // Runs of the smallest and the largest byte, of random lengths: long
  // equal-character runs make long L and S runs and equal LMS substrings.
  Rng rng(255);
  for (int iter = 0; iter < 20; ++iter) {
    std::string s;
    while (s.size() < 2000) {
      const char c = rng.Uniform(2) == 0 ? '\0' : '\xFF';
      s.append(1 + rng.Uniform(iter < 10 ? 4 : 40), c);
      if (rng.Uniform(8) == 0) s.push_back('a');
    }
    ExpectSaIsMatchesNaive(s, "runs iter " + std::to_string(iter));
  }
}

TEST(SuffixArrayTest, RandomSmallAlphabetTexts) {
  Rng rng(3);
  for (const size_t n : {100, 1000, 5000, 20000}) {
    for (const int alphabet : {2, 3, 4}) {
      ExpectSaIsMatchesNaive(RandomString(rng, n, alphabet),
                             "n=" + std::to_string(n) + " alphabet=" +
                                 std::to_string(alphabet));
    }
  }
}

TEST(SuffixArrayTest, SampledDictionary) {
  // A 170 KB dictionary sampled from a generated web corpus, the size of
  // a 64 MB store's per-shard append dictionary: boilerplate shared
  // across pages gives it deep recursion levels.
  CorpusOptions options;
  options.target_bytes = 4u << 20;
  options.seed = 20110613;
  const Corpus corpus = GenerateCorpus(options);
  const std::unique_ptr<Dictionary> dict = DictionaryBuilder::BuildSampled(
      corpus.collection.data(), 171000, 1024);
  ASSERT_GT(dict->size(), 160000u);
  ExpectSaIsMatchesNaive(std::string(dict->text()), "sampled dictionary");
}

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
  const bool prefix_table = GetParam();
  Rng rng(4242);
  for (int iter = 0; iter < 30; ++iter) {
    const std::string text = RandomString(rng, 300, 3);
    SuffixMatcher matcher(text, {}, prefix_table);
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
        EXPECT_EQ(text.substr(got.pos, got.len), pattern.substr(0, got.len));
      }
      // Of the positions with that length, Fig. 1's leftmost SA entry.
      EXPECT_EQ(got.pos, Fig1LongestMatch(matcher, pattern).pos)
          << "pattern " << pattern;
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
// Property test: with or without the 4-byte prefix table, LongestMatch
// must return exactly what the paper's Fig. 1 Refine loop returns — same
// length AND same (leftmost-lowest SA) position — on every input. The
// table narrows the starting interval and leaves out suffixes shorter
// than 4 bytes (and, on texts with too many distinct prefixes, some
// prefixes), and the leftmost search breaks ties, which is where a silent
// divergence would hide. The test names keep the table's earlier name,
// the jump table.

// Runs every pattern through both matchers (shared suffix array, built
// once) and requires the Fig. 1 reference's Match from each.
// Three matchers: no table, the prefix table, and the table with match
// keys.
void CrossCheckMatchers(const std::string& text,
                        const std::vector<std::string>& patterns,
                        const char* label) {
  const std::vector<int32_t> sa = BuildSuffixArray(text);
  for (const int arm : {0, 1, 2}) {
    const bool table = arm > 0;
    SuffixMatcher matcher(text, sa, table);
    if (arm == 2) matcher.BuildMatchKeys();
    const char* name =
        arm == 0 ? " (no table)" : arm == 1 ? " (table)" : " (keys)";
    // The prefix table never outgrows the SA; the keys take 4 bytes per
    // text byte when built.
    ASSERT_LE(matcher.prefix_table_bytes(), sa.size() * sizeof(int32_t))
        << label;
    if (!table) {
      ASSERT_EQ(matcher.prefix_table_bytes(), 0u) << label;
    }
    const bool keyed = arm == 2 && matcher.prefix_table_bytes() > 0 &&
                       text.size() >= 8;
    ASSERT_EQ(matcher.match_keys_bytes(),
              keyed ? text.size() * sizeof(uint32_t) : 0u)
        << label;
    for (const std::string& pattern : patterns) {
      const Match got = matcher.LongestMatch(pattern);
      const Match want = Fig1LongestMatch(matcher, pattern);
      ASSERT_EQ(got.len, want.len)
          << label << name << ": length diverged on pattern of size "
          << pattern.size();
      ASSERT_EQ(got.pos, want.pos)
          << label << name << ": position diverged on pattern of size "
          << pattern.size();
    }
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
    // (offsets 0-3 exercise the prefix table's miss path).
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
  // NUL-heavy text: key 0x00000000 is a real prefix here, and suffixes
  // ending in NUL stress the excluded-short-suffix bookkeeping.
  std::string text;
  for (int i = 0; i < 800; ++i) {
    text.push_back(static_cast<char>(rng.Next() % 3));  // '\0','\1','\2'
  }
  std::vector<std::string> patterns = StressPatterns(text, rng);
  patterns.push_back(std::string(1, '\0'));
  patterns.push_back(std::string(2, '\0'));
  patterns.push_back(std::string(4, '\0'));
  patterns.push_back(std::string(9, '\0'));
  CrossCheckMatchers(text, patterns, "nul");
}

TEST(MatcherPropertyTest, JumpTableMatchesBinarySearchOnTinyTexts) {
  // Length 0/1/2 texts have no 4-byte prefix at all; short suffixes
  // dominate.
  for (const char* text : {"", "a", "ab", "aa", "ba"}) {
    std::vector<std::string> patterns = {"",  "a",  "b",  "aa", "ab",
                                         "ba", "bb", "aba", "x"};
    CrossCheckMatchers(text, patterns, "tiny");
  }
  // A pattern whose only match is the final (length-1) suffix: the prefix
  // table has no entry for it, so the search must start from the whole SA.
  const std::string text = "bbbbbbba";
  std::vector<std::string> patterns = {"a", "ab", "ac", "aa"};
  CrossCheckMatchers(text, patterns, "last-suffix");
}

TEST(MatcherPropertyTest, TiesOverrunsAndJumpMisses) {
  // Periodic text: every "abcab" prefix is shared by hundreds of suffixes,
  // and Fig. 1 must return the leftmost of them. "abcab" inserts at the
  // left end of the tie, "abcabd" and "abcabcabd" to its right, "abcaa"
  // to its left.
  std::string text;
  while (text.size() < 1200) text += "abc";
  std::vector<std::string> patterns = {
      "abcab", "abcabd", "abcabcabd", "abcaa", "bcabcabx", "cab", "cabcac",
      // Runs past the end of the text.
      text + "abc", text.substr(text.size() - 7) + "abcabc",
      text.substr(text.size() - 1) + "x",
      // One byte, present and absent.
      "a", "b", "c", "d",
      // Prefix misses: the first bytes occur, the 4-byte prefix does not.
      "aa", "ac", "cc", "ax", "abca", "abcc", "cabb", "bcax"};
  CrossCheckMatchers(text, patterns, "periodic");

  // The same ties where the matched prefix runs to the last suffix.
  Rng rng(5);
  std::string mixed = RandomString(rng, 300, 3);
  for (int i = 0; i < 40; ++i) mixed += "abcab";
  CrossCheckMatchers(mixed, StressPatterns(mixed, rng), "mixed");
  CrossCheckMatchers(mixed, patterns, "mixed-fixed");
}

// Every pattern over `alphabet` of length 1 to `max_len`.
std::vector<std::string> AllPatterns(const std::string& alphabet,
                                     size_t max_len) {
  std::vector<std::string> patterns;
  std::vector<std::string> frontier = {""};
  for (size_t len = 1; len <= max_len; ++len) {
    std::vector<std::string> next;
    for (const std::string& p : frontier) {
      for (const char c : alphabet) next.push_back(p + c);
    }
    patterns.insert(patterns.end(), next.begin(), next.end());
    frontier = std::move(next);
  }
  return patterns;
}

TEST(MatcherPropertyTest, PrefixTableOnTextsOfLengthThreeToEight) {
  // Texts of 3 bytes have no 4-byte prefix; from 4 bytes on a table may
  // exist, but only while it fits in the SA. Every pattern up to 5 bytes
  // over the texts' bytes plus one absent byte.
  const std::vector<std::string> patterns =
      AllPatterns(std::string("ab\0x", 4), 5);
  for (const std::string& text :
       {std::string("abc"), std::string("abab"), std::string("aaaa"),
        std::string("ab\0ab", 5), std::string("aaaaa"), std::string("abaab"),
        std::string("\0\0\0\0\0\0", 6), std::string("abababa"),
        std::string("aab\0aab\0", 8)}) {
    CrossCheckMatchers(text, patterns, "short text");
  }
}

TEST(MatcherPropertyTest, PatternsShorterThanFourBytesSkipTheTable) {
  Rng rng(33);
  const std::string text = RandomString(rng, 3000, 5);
  // Every 1-3 byte pattern over the text's alphabet plus one absent byte.
  CrossCheckMatchers(text, AllPatterns("abcdef", 3), "short patterns");
}

TEST(MatcherPropertyTest, PrefixOnlyInShortSuffixesMisses) {
  // "xyz" occurs only as the text's last three bytes, so no 4-byte
  // prefix starts with it: "xyzw" misses the table and its longest match
  // is that 3-byte suffix, found from the whole SA.
  Rng rng(44);
  const std::string text = RandomString(rng, 2000, 3) + "xyz";
  CrossCheckMatchers(text,
                     {"xyz", "xyzw", "xyzxyz", "xyza", "yz", "yzab", "z",
                      "zabc", "cxyz", "cxyzw", "bcxyzq"},
                     "short-suffix prefix");
}

TEST(MatcherPropertyTest, PrefixKeysWithNulBytes) {
  // An empty slot must not read as key 0x00000000: once with that key
  // absent from the text and once present, plus keys with NULs inside.
  Rng rng(55);
  const std::string base = RandomString(rng, 1500, 4);
  const std::string nul4(4, '\0');
  const std::vector<std::string> patterns = {
      nul4, nul4 + "abc", std::string(6, '\0'), std::string("\0\0\0a", 4),
      std::string("a\0\0\0", 4), std::string("\0a\0b", 4),
      std::string("ab\0\0cd", 6), std::string("\0\0\0", 3)};
  std::string with_nul = base;
  with_nul.insert(700, std::string("\0\0\0\0\0ab\0\0cd\0a\0b", 15));
  with_nul += std::string("a\0\0\0", 4);
  CrossCheckMatchers(base, patterns, "no NUL key");
  CrossCheckMatchers(with_nul, patterns, "NUL keys");
  CrossCheckMatchers(with_nul, StressPatterns(with_nul, rng), "NUL stress");
}

TEST(MatcherPropertyTest, PrefixTableWithManyKeysCollides) {
  // Over 11 letters nearly all 14,641 4-byte prefixes occur, so the
  // table holds more than 10k keys and probes run past their home slot.
  Rng rng(66);
  const std::string text = RandomString(rng, 200000, 11);
  {
    const SuffixMatcher matcher(text);
    EXPECT_GT(matcher.prefix_table_bytes(), 0u);
  }
  std::vector<std::string> patterns = StressPatterns(text, rng);
  for (int i = 0; i < 3000; ++i) {
    patterns.push_back(RandomString(rng, 4 + rng.Uniform(8), 12));
  }
  CrossCheckMatchers(text, patterns, "many keys");
}

TEST(MatcherPropertyTest, PrefixTableMemoryBoundOnRandomBytes) {
  // 1 MB of random bytes has about a million distinct 4-byte prefixes,
  // more than a table of the SA's size holds; the rest are left out and
  // their searches start from the whole SA.
  Rng rng(77);
  std::string text(1 << 20, '\0');
  for (auto& c : text) c = static_cast<char>(rng.Next() % 256);
  {
    const SuffixMatcher matcher(text);
    EXPECT_GT(matcher.prefix_table_bytes(), 0u);
    EXPECT_LE(matcher.prefix_table_bytes(), text.size() * sizeof(int32_t));
  }
  std::vector<std::string> patterns = StressPatterns(text, rng);
  for (int i = 0; i < 2000; ++i) {
    const size_t pos = rng.Uniform(text.size() - 16);
    patterns.push_back(text.substr(pos, 4 + rng.Uniform(12)));
  }
  CrossCheckMatchers(text, patterns, "random bytes");
}

// Every pattern of exactly 4 to 9 bytes taken from `text`, each also
// with its last byte changed, plus random ones over `alphabet`.
std::vector<std::string> KeyLengthPatterns(const std::string& text,
                                           const std::string& alphabet,
                                           Rng& rng) {
  std::vector<std::string> patterns;
  for (size_t len = 4; len <= 9; ++len) {
    for (int i = 0; i < 60 && text.size() >= len; ++i) {
      std::string p = text.substr(rng.Uniform(text.size() - len + 1), len);
      patterns.push_back(p);
      p.back() = alphabet[rng.Uniform(alphabet.size())];
      patterns.push_back(p);
    }
    for (int i = 0; i < 40; ++i) {
      std::string p(len, '\0');
      for (auto& c : p) c = alphabet[rng.Uniform(alphabet.size())];
      patterns.push_back(p);
    }
  }
  return patterns;
}

TEST(MatcherPropertyTest, MatchKeysOnSmallAlphabets) {
  // Over 2-3 letters most suffixes of a 4-byte run also share bytes 4-7,
  // so equal keys are common and the text search inside them runs often.
  Rng rng(808);
  for (const int alphabet : {2, 3}) {
    const std::string letters = std::string("abc").substr(0, alphabet);
    const std::string text = RandomString(rng, 3000, alphabet);
    std::vector<std::string> patterns = StressPatterns(text, rng);
    const std::vector<std::string> keyed =
        KeyLengthPatterns(text, letters, rng);
    patterns.insert(patterns.end(), keyed.begin(), keyed.end());
    CrossCheckMatchers(text, patterns, "small alphabet");
  }
}

TEST(MatcherPropertyTest, MatchKeysWithNulAndFfBytes) {
  // 0x00 and 0xFF are the ends of the key order, and 0x00 is also the
  // padding of a short suffix's key.
  Rng rng(909);
  const std::string alphabet("\0\xFF" "a", 3);
  std::string text;
  while (text.size() < 3000) {
    text.append(1 + rng.Uniform(9), alphabet[rng.Uniform(3)]);
  }
  std::vector<std::string> patterns = StressPatterns(text, rng);
  const std::vector<std::string> keyed = KeyLengthPatterns(text, alphabet, rng);
  patterns.insert(patterns.end(), keyed.begin(), keyed.end());
  for (const char c : alphabet) {
    for (size_t len = 4; len <= 12; ++len) {
      patterns.push_back(std::string(len, c));
    }
  }
  CrossCheckMatchers(text, patterns, "nul/ff");
}

TEST(MatcherPropertyTest, MatchKeysRunHoldingShortSuffix) {
  // "wxyz" starts many suffixes, and the text ends in "wxyz" plus 0 to 3
  // more bytes, so the run also holds a suffix of 4 to 7 bytes whose key
  // is zero-padded: a pattern continuing with NULs gives both the same
  // key, and the matcher must search that run in the text instead.
  Rng rng(1010);
  for (size_t tail = 0; tail <= 3; ++tail) {
    std::string text = RandomString(rng, 1500, 3);
    for (int i = 0; i < 40; ++i) {
      text.insert(rng.Uniform(text.size()),
                  std::string("wxyz") + static_cast<char>('a' + i % 3) +
                      std::string(i % 4, '\0') + "b");
    }
    const std::string end = std::string("wxyz") + std::string("abc", tail);
    text += end;
    std::vector<std::string> patterns = {end, end + "a", end + "b"};
    for (size_t pad = 1; pad <= 5; ++pad) {
      patterns.push_back(end + std::string(pad, '\0'));
      patterns.push_back(end + std::string(pad, '\0') + "b");
      patterns.push_back(end.substr(0, 4 + tail / 2) +
                         std::string(pad, '\0'));
    }
    for (const char c : {'a', 'b', 'c'}) {
      patterns.push_back(std::string("wxyz") + c + std::string(4, '\0'));
      patterns.push_back(std::string("wxyz") + c + "\0\0b");
    }
    const std::vector<std::string> keyed =
        KeyLengthPatterns(text, std::string("abcwxyz\0", 8), rng);
    patterns.insert(patterns.end(), keyed.begin(), keyed.end());
    CrossCheckMatchers(text, patterns, "short suffix in run");
  }
}

TEST(MatcherPropertyTest, MatchKeysOnSampledDictionary) {
  // The store's case: a sampled web dictionary against patterns of 4 to
  // 9 bytes and documents of another seed's corpus.
  CorpusOptions options;
  options.target_bytes = 2u << 20;
  options.seed = 7;
  const std::unique_ptr<Dictionary> dict = DictionaryBuilder::BuildSampled(
      GenerateCorpus(options).collection.data(), 64 << 10, 1024);
  options.seed = 8;
  const Corpus other = GenerateCorpus(options);
  const std::string text(dict->text());
  Rng rng(1111);
  std::vector<std::string> patterns =
      KeyLengthPatterns(text, "<>/ abcdefghijklmnopqrstuvwxyz", rng);
  for (int i = 0; i < 400; ++i) {
    const std::string_view doc =
        other.collection.doc(rng.Uniform(other.collection.num_docs()));
    const size_t pos = rng.Uniform(doc.size());
    patterns.push_back(std::string(doc.substr(pos, 64)));
  }
  CrossCheckMatchers(text, patterns, "sampled dictionary");
}

}  // namespace
}  // namespace rlz
