#include <ostream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "suffix/lcp.h"
#include "suffix/suffix_array.h"
#include "util/random.h"

namespace rlz {
namespace {

TEST(LcpTest, Banana) {
  const std::string text = "banana";
  const auto sa = BuildSuffixArray(text);
  const auto lcp = BuildLcpArray(text, sa);
  // SA: a(5), ana(3), anana(1), banana(0), na(4), nana(2)
  const std::vector<int32_t> expected = {0, 1, 3, 0, 0, 2};
  EXPECT_EQ(lcp, expected);
}

TEST(LcpTest, EmptyAndSingle) {
  EXPECT_TRUE(BuildLcpArray("", {}).empty());
  const auto lcp = BuildLcpArray("x", BuildSuffixArray("x"));
  EXPECT_EQ(lcp, std::vector<int32_t>{0});
}

TEST(LcpTest, AllSameCharacter) {
  const std::string text(50, 'a');
  const auto sa = BuildSuffixArray(text);
  const auto lcp = BuildLcpArray(text, sa);
  // SA is 49, 48, ..., 0; lcp[i] = i.
  for (int32_t i = 0; i < 50; ++i) EXPECT_EQ(lcp[i], i);
}

struct LcpCase {
  const char* name;
  size_t len;
  int alphabet;
};

// Print the case by name so the parameterized test names that gtest (and
// ctest's test discovery) derive from it do not embed the `name` pointer,
// whose value changes from run to run.
void PrintTo(const LcpCase& c, std::ostream* os) { *os << c.name; }

class LcpMatchesNaiveTest : public ::testing::TestWithParam<LcpCase> {};

TEST_P(LcpMatchesNaiveTest, MatchesNaive) {
  const LcpCase& c = GetParam();
  Rng rng(c.len * 7 + c.alphabet);
  for (int iter = 0; iter < 6; ++iter) {
    std::string text(c.len, '\0');
    for (auto& ch : text) {
      ch = static_cast<char>('a' + rng.Uniform(c.alphabet));
    }
    const auto sa = BuildSuffixArray(text);
    EXPECT_EQ(BuildLcpArray(text, sa), BuildLcpArrayNaive(text, sa))
        << c.name << " iter " << iter;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Cases, LcpMatchesNaiveTest,
    ::testing::Values(LcpCase{"binary_small", 64, 2},
                      LcpCase{"binary_medium", 500, 2},
                      LcpCase{"quaternary", 400, 4},
                      LcpCase{"english", 1200, 26}),
    [](const auto& info) { return info.param.name; });

TEST(RepeatStatsTest, UniqueTextHasNoRepeats) {
  const std::string text = "abcdefghijklmnopqrstuvwxyz";
  const auto sa = BuildSuffixArray(text);
  const RepeatStats stats = ComputeRepeatStats(text, sa, 2);
  EXPECT_EQ(stats.max_lcp, 0);
  EXPECT_DOUBLE_EQ(stats.repeat_fraction, 0.0);
}

TEST(RepeatStatsTest, DuplicatedBlockIsDetected) {
  Rng rng(3);
  std::string block(200, '\0');
  for (auto& c : block) c = static_cast<char>('a' + rng.Uniform(26));
  const std::string text = block + block;
  const auto sa = BuildSuffixArray(text);
  const RepeatStats stats = ComputeRepeatStats(text, sa, 16);
  // Half the suffixes (those in the first copy) share >= 16 bytes with
  // their twin in the second copy.
  EXPECT_GT(stats.repeat_fraction, 0.8);
  EXPECT_GE(stats.max_lcp, 200);
}

TEST(RepeatStatsTest, ThresholdMonotonicity) {
  Rng rng(4);
  std::string text;
  const std::string phrase = "the common phrase here ";
  for (int i = 0; i < 40; ++i) {
    text += phrase;
    for (int k = 0; k < 10; ++k) {
      text.push_back(static_cast<char>('a' + rng.Uniform(26)));
    }
  }
  const auto sa = BuildSuffixArray(text);
  const double f4 = ComputeRepeatStats(text, sa, 4).repeat_fraction;
  const double f16 = ComputeRepeatStats(text, sa, 16).repeat_fraction;
  const double f64 = ComputeRepeatStats(text, sa, 64).repeat_fraction;
  EXPECT_GE(f4, f16);
  EXPECT_GE(f16, f64);
  EXPECT_GT(f16, 0.0);
}

TEST(RepeatStatsTest, EmptyText) {
  const RepeatStats stats = ComputeRepeatStats("", {}, 4);
  EXPECT_DOUBLE_EQ(stats.mean_lcp, 0.0);
}

}  // namespace
}  // namespace rlz
