#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/rlz.h"
#include "corpus/generator.h"
#include "fig1_reference.h"
#include "util/random.h"

namespace rlz {
namespace {

std::string RandomText(Rng& rng, size_t len, int alphabet) {
  std::string s(len, '\0');
  for (auto& c : s) c = static_cast<char>('a' + rng.Uniform(alphabet));
  return s;
}

// Reference greedy factorizer: at every position, scan the whole dictionary
// for the longest match. Quadratic; used as the oracle.
std::vector<Factor> NaiveFactorize(std::string_view doc,
                                   std::string_view dict) {
  std::vector<Factor> out;
  size_t i = 0;
  while (i < doc.size()) {
    size_t best_len = 0;
    size_t best_pos = 0;
    for (size_t p = 0; p < dict.size(); ++p) {
      size_t l = 0;
      while (i + l < doc.size() && p + l < dict.size() &&
             dict[p + l] == doc[i + l]) {
        ++l;
      }
      if (l > best_len) {
        best_len = l;
        best_pos = p;
      }
    }
    if (best_len == 0) {
      out.push_back(Factor{static_cast<uint8_t>(doc[i]), 0});
      i += 1;
    } else {
      out.push_back(Factor{static_cast<uint32_t>(best_pos),
                           static_cast<uint32_t>(best_len)});
      i += best_len;
    }
  }
  return out;
}

// ---------------------------------------------------------------------------
// Factorizer
// ---------------------------------------------------------------------------

TEST(FactorizerTest, PaperWorkedExample) {
  // §3: x = bbaancabb relative to d = cabbaabba factorizes into
  // (3,4) ("bbaa"), ('n',0), (1,4) ("cabb") with 1-based offsets.
  Dictionary dict("cabbaabba");
  Factorizer factorizer(&dict);
  std::vector<Factor> factors;
  factorizer.Factorize("bbaancabb", &factors);
  ASSERT_EQ(factors.size(), 3u);
  EXPECT_EQ(factors[0].len, 4u);
  EXPECT_EQ(dict.text().substr(factors[0].pos, 4), "bbaa");
  EXPECT_EQ(factors[1].len, 0u);
  EXPECT_EQ(factors[1].pos, static_cast<uint32_t>('n'));
  EXPECT_EQ(factors[2].len, 4u);
  EXPECT_EQ(dict.text().substr(factors[2].pos, 4), "cabb");
}

TEST(FactorizerTest, DecodeInvertsFactorize) {
  Rng rng(21);
  for (int iter = 0; iter < 20; ++iter) {
    Dictionary dict(RandomText(rng, 500, 4));
    Factorizer factorizer(&dict);
    const std::string doc = RandomText(rng, 300, 4);
    std::vector<Factor> factors;
    factorizer.Factorize(doc, &factors);
    std::string decoded;
    ASSERT_TRUE(Factorizer::Decode(factors, dict, &decoded).ok());
    EXPECT_EQ(decoded, doc);
  }
}

TEST(FactorizerTest, GreedyMatchesNaiveLengths) {
  // Greedy parsing is canonical: factor lengths (hence count) must match
  // the quadratic oracle even if positions differ (ties).
  Rng rng(22);
  for (int iter = 0; iter < 15; ++iter) {
    const std::string dict_text = RandomText(rng, 400, 3);
    Dictionary dict(dict_text);
    Factorizer factorizer(&dict);
    const std::string doc = RandomText(rng, 200, 3);
    std::vector<Factor> fast;
    factorizer.Factorize(doc, &fast);
    const std::vector<Factor> slow = NaiveFactorize(doc, dict_text);
    ASSERT_EQ(fast.size(), slow.size());
    for (size_t i = 0; i < fast.size(); ++i) {
      EXPECT_EQ(fast[i].len, slow[i].len) << "factor " << i;
      if (fast[i].len > 0) {
        EXPECT_EQ(dict_text.substr(fast[i].pos, fast[i].len),
                  dict_text.substr(slow[i].pos, slow[i].len));
      } else {
        EXPECT_EQ(fast[i].pos, slow[i].pos);
      }
    }
  }
}

// Fig. 1 over the public Refine (fig1_reference.h), one factor at a time.
std::vector<Factor> Fig1Factorize(std::string_view doc,
                                  const Dictionary& dict) {
  std::vector<Factor> out;
  size_t i = 0;
  while (i < doc.size()) {
    const Match m = Fig1LongestMatch(dict.matcher(), doc.substr(i));
    if (m.len == 0) {
      out.push_back(Factor{static_cast<uint8_t>(doc[i]), 0});
      i += 1;
    } else {
      out.push_back(Factor{static_cast<uint32_t>(m.pos),
                           static_cast<uint32_t>(m.len)});
      i += m.len;
    }
  }
  return out;
}

TEST(FactorizerTest, MatchesFig1ReferenceFactorForFactor) {
  // Every archive byte depends on the exact (pos, len) stream, ties
  // included. A 1% dictionary of the corpus itself gives long factors
  // (the build); one sampled from another seed's corpus gives short ones
  // (the seal against a drifted append dictionary).
  CorpusOptions options;
  options.target_bytes = 1 << 20;
  options.seed = 2011;
  const Collection collection = GenerateCorpus(options).collection;
  options.seed = 2012;
  const Collection other = GenerateCorpus(options).collection;
  const std::shared_ptr<const Dictionary> dicts[] = {
      DictionaryBuilder::BuildSampled(collection.data(),
                                      collection.size_bytes() / 100, 1024),
      DictionaryBuilder::BuildSampled(other.data(), 1 << 16, 1024)};
  for (const auto& dict : dicts) {
    Factorizer factorizer(dict.get());
    for (size_t d = 0; d < collection.num_docs(); ++d) {
      std::vector<Factor> got;
      factorizer.Factorize(collection.doc(d), &got);
      const std::vector<Factor> want = Fig1Factorize(collection.doc(d), *dict);
      ASSERT_EQ(got.size(), want.size()) << "doc " << d;
      for (size_t f = 0; f < got.size(); ++f) {
        ASSERT_EQ(got[f].pos, want[f].pos) << "doc " << d << " factor " << f;
        ASSERT_EQ(got[f].len, want[f].len) << "doc " << d << " factor " << f;
      }
    }
  }
}

TEST(FactorizerTest, DocEqualToDictionaryIsOneFactor) {
  const std::string text = "abracadabra simsalabim";
  Dictionary dict(text);
  Factorizer factorizer(&dict);
  std::vector<Factor> factors;
  factorizer.Factorize(text, &factors);
  ASSERT_EQ(factors.size(), 1u);
  EXPECT_EQ(factors[0].pos, 0u);
  EXPECT_EQ(factors[0].len, text.size());
}

TEST(FactorizerTest, AllLiteralsWhenNothingMatches) {
  Dictionary dict("aaaa");
  Factorizer factorizer(&dict);
  std::vector<Factor> factors;
  factorizer.Factorize("xyz", &factors);
  ASSERT_EQ(factors.size(), 3u);
  for (const Factor& f : factors) EXPECT_EQ(f.len, 0u);
  EXPECT_EQ(factorizer.stats().num_literals, 3u);
}

TEST(FactorizerTest, StatsAccumulate) {
  Dictionary dict("hello world hello world");
  Factorizer factorizer(&dict);
  std::vector<Factor> factors;
  factorizer.Factorize("hello", &factors);
  factorizer.Factorize("world", &factors);
  EXPECT_EQ(factorizer.stats().text_bytes, 10u);
  EXPECT_EQ(factorizer.stats().num_factors, 2u);
  EXPECT_DOUBLE_EQ(factorizer.stats().avg_factor_length(), 5.0);
}

TEST(FactorizerTest, CoverageTracking) {
  Dictionary dict("abcdefgh");
  Factorizer factorizer(&dict, /*track_coverage=*/true);
  std::vector<Factor> factors;
  factorizer.Factorize("abcd", &factors);  // covers dict[0..3]
  EXPECT_DOUBLE_EQ(factorizer.UnusedFraction(), 0.5);
  factorizer.Factorize("efgh", &factors);  // covers the rest
  EXPECT_DOUBLE_EQ(factorizer.UnusedFraction(), 0.0);
}

TEST(FactorizerTest, EmptyDoc) {
  Dictionary dict("abc");
  Factorizer factorizer(&dict);
  std::vector<Factor> factors;
  factorizer.Factorize("", &factors);
  EXPECT_TRUE(factors.empty());
}

TEST(FactorizerTest, DecodeRejectsOutOfRangeFactor) {
  Dictionary dict("short");
  std::string out;
  EXPECT_EQ(
      Factorizer::Decode({Factor{3, 100}}, dict, &out).code(),
      StatusCode::kCorruption);
}

// ---------------------------------------------------------------------------
// DictionaryBuilder
// ---------------------------------------------------------------------------

TEST(DictionaryBuilderTest, SampledSizeApproximatelyRequested) {
  Rng rng(23);
  const std::string collection = RandomText(rng, 100000, 26);
  auto dict = DictionaryBuilder::BuildSampled(collection, 10000, 1000);
  EXPECT_GE(dict->size(), 9000u);
  EXPECT_LE(dict->size(), 11000u);
}

TEST(DictionaryBuilderTest, SmallCollectionBecomesWholeDictionary) {
  auto dict = DictionaryBuilder::BuildSampled("tiny", 1000, 100);
  EXPECT_EQ(dict->text(), "tiny");
}

TEST(DictionaryBuilderTest, SamplesAreEvenlySpaced) {
  // Collection of 10 distinct 100-byte runs; a 500-byte dictionary of
  // 100-byte samples must pick 5 distinct evenly spaced runs.
  std::string collection;
  for (int i = 0; i < 10; ++i) {
    collection += std::string(100, static_cast<char>('a' + i));
  }
  auto dict = DictionaryBuilder::BuildSampled(collection, 500, 100);
  ASSERT_EQ(dict->size(), 500u);
  EXPECT_EQ(dict->text().substr(0, 1)[0], 'a');
  // Samples at strides of 2 runs: a, c, e, g, i.
  for (int s = 0; s < 5; ++s) {
    EXPECT_EQ(dict->text()[s * 100], 'a' + 2 * s) << "sample " << s;
  }
}

TEST(DictionaryBuilderTest, PrefixDictionaryUsesOnlyPrefix) {
  std::string collection = std::string(5000, 'a') + std::string(5000, 'b');
  auto dict =
      DictionaryBuilder::BuildFromPrefix(collection, 0.5, 1000, 100);
  EXPECT_EQ(dict->text().find('b'), std::string::npos);
}

TEST(DictionaryBuilderTest, PrunedDictionaryDropsUnusedRuns) {
  Rng rng(24);
  const std::string collection = RandomText(rng, 50000, 26);
  auto dict = DictionaryBuilder::BuildSampled(collection, 2000, 200);
  Bitmap used(dict->size());
  // Mark only the first half of the dictionary used.
  used.SetRange(0, dict->size() / 2);
  auto pruned = DictionaryBuilder::BuildPruned(collection, *dict, used, 200);
  // The used half survives; freed space is refilled with fresh samples up
  // to at most the original size.
  EXPECT_LE(pruned->size(), dict->size());
  EXPECT_GE(pruned->size(), dict->size() / 2);
  EXPECT_EQ(pruned->text().substr(0, dict->size() / 2),
            dict->text().substr(0, dict->size() / 2));
}

// ---------------------------------------------------------------------------
// FactorCoder
// ---------------------------------------------------------------------------

class FactorCoderTest : public ::testing::TestWithParam<const char*> {};

TEST_P(FactorCoderTest, RoundTripFactors) {
  auto coding = PairCoding::FromName(GetParam());
  ASSERT_TRUE(coding.ok());
  const FactorCoder coder(*coding);
  Rng rng(25);
  for (int iter = 0; iter < 10; ++iter) {
    std::vector<Factor> factors;
    const size_t n = rng.Uniform(500);
    for (size_t i = 0; i < n; ++i) {
      if (rng.Bernoulli(0.1)) {
        factors.push_back(Factor{static_cast<uint32_t>(rng.Uniform(256)), 0});
      } else {
        factors.push_back(Factor{static_cast<uint32_t>(rng.Uniform(1 << 20)),
                                 1 + static_cast<uint32_t>(rng.Uniform(100))});
      }
    }
    std::string buf;
    coder.EncodeDoc(factors, &buf);
    std::vector<Factor> decoded;
    size_t consumed = 0;
    ASSERT_TRUE(coder.DecodeFactors(buf, &decoded, &consumed).ok());
    EXPECT_EQ(consumed, buf.size());
    EXPECT_EQ(decoded, factors);
  }
}

TEST_P(FactorCoderTest, DecodeDocMatchesFactorExpansion) {
  auto coding = PairCoding::FromName(GetParam());
  ASSERT_TRUE(coding.ok());
  const FactorCoder coder(*coding);
  Rng rng(26);
  Dictionary dict(RandomText(rng, 2000, 4));
  Factorizer factorizer(&dict);
  const std::string doc = RandomText(rng, 1500, 4);
  std::vector<Factor> factors;
  factorizer.Factorize(doc, &factors);
  std::string buf;
  coder.EncodeDoc(factors, &buf);
  std::string text;
  ASSERT_TRUE(coder.DecodeDoc(buf, dict, &text).ok());
  EXPECT_EQ(text, doc);
}

TEST_P(FactorCoderTest, ConcatenatedDocsDecodeWithConsumed) {
  auto coding = PairCoding::FromName(GetParam());
  ASSERT_TRUE(coding.ok());
  const FactorCoder coder(*coding);
  std::vector<Factor> doc1 = {{5, 3}, {'x', 0}};
  std::vector<Factor> doc2 = {{0, 7}};
  std::string buf;
  coder.EncodeDoc(doc1, &buf);
  const size_t split = buf.size();
  coder.EncodeDoc(doc2, &buf);

  std::vector<Factor> out1;
  size_t consumed = 0;
  ASSERT_TRUE(coder.DecodeFactors(buf, &out1, &consumed).ok());
  EXPECT_EQ(consumed, split);
  EXPECT_EQ(out1, doc1);
  std::vector<Factor> out2;
  ASSERT_TRUE(
      coder.DecodeFactors(std::string_view(buf).substr(split), &out2, nullptr)
          .ok());
  EXPECT_EQ(out2, doc2);
}

TEST_P(FactorCoderTest, EmptyFactorList) {
  auto coding = PairCoding::FromName(GetParam());
  ASSERT_TRUE(coding.ok());
  const FactorCoder coder(*coding);
  std::string buf;
  coder.EncodeDoc({}, &buf);
  std::vector<Factor> out;
  ASSERT_TRUE(coder.DecodeFactors(buf, &out, nullptr).ok());
  EXPECT_TRUE(out.empty());
}

INSTANTIATE_TEST_SUITE_P(AllCodings, FactorCoderTest,
                         ::testing::Values("ZZ", "ZV", "UZ", "UV", "US", "UP",
                                           "PV", "PZ"),
                         [](const auto& info) { return info.param; });

TEST(PairCodingTest, Names) {
  EXPECT_EQ(kZZ.name(), "ZZ");
  EXPECT_EQ(kZV.name(), "ZV");
  EXPECT_EQ(kUZ.name(), "UZ");
  EXPECT_EQ(kUV.name(), "UV");
  EXPECT_FALSE(PairCoding::FromName("XX").ok());
  EXPECT_FALSE(PairCoding::FromName("Z").ok());
}

// ---------------------------------------------------------------------------
// End-to-end compression on a synthetic collection
// ---------------------------------------------------------------------------

TEST(CompressCollectionTest, RoundTripsEveryDocument) {
  CorpusOptions options;
  options.target_bytes = 1 << 20;
  options.seed = 31;
  const Corpus corpus = GenerateCorpus(options);

  RlzOptions rlz_options;
  rlz_options.dict_bytes = 64 << 10;
  rlz_options.sample_bytes = 1024;
  rlz_options.coding = kZV;
  RlzBuildInfo info;
  auto archive = CompressCollection(corpus.collection, rlz_options, &info);

  ASSERT_EQ(archive->num_docs(), corpus.collection.num_docs());
  std::string doc;
  for (size_t i = 0; i < archive->num_docs(); ++i) {
    ASSERT_TRUE(archive->Get(i, &doc, nullptr).ok());
    ASSERT_EQ(doc, corpus.collection.doc(i)) << "doc " << i;
  }
  EXPECT_GT(info.stats.avg_factor_length(), 1.0);
}

TEST(CompressCollectionTest, CompressesWebCorpusWell) {
  CorpusOptions options;
  options.target_bytes = 2 << 20;
  options.seed = 32;
  const Corpus corpus = GenerateCorpus(options);
  RlzOptions rlz_options;
  rlz_options.dict_bytes = 128 << 10;
  auto archive = CompressCollection(corpus.collection, rlz_options);
  // The paper reports 9-14% on web data; our synthetic corpus should land
  // in the same ballpark (well under 35% even at small scale).
  const double ratio = static_cast<double>(archive->stored_bytes()) /
                       corpus.collection.size_bytes();
  EXPECT_LT(ratio, 0.35);
}

TEST(CompressCollectionTest, OutOfRangeGetFails) {
  Collection collection;
  collection.Append("only doc");
  auto archive = CompressCollection(collection, {});
  std::string doc;
  EXPECT_EQ(archive->Get(5, &doc, nullptr).code(), StatusCode::kOutOfRange);
}

TEST(CompressCollectionTest, LargerDictionaryNeverHurtsMuch) {
  CorpusOptions options;
  options.target_bytes = 2 << 20;
  options.seed = 33;
  const Corpus corpus = GenerateCorpus(options);
  RlzOptions small;
  small.dict_bytes = 32 << 10;
  RlzOptions large;
  large.dict_bytes = 256 << 10;
  auto a_small = CompressCollection(corpus.collection, small);
  auto a_large = CompressCollection(corpus.collection, large);
  // Larger dictionaries give at least as good payload compression
  // (Tables 4/8 trend). Compare payload only: the dictionary itself is
  // amortized at real scale but dominates at 2 MB test scale.
  EXPECT_LE(a_large->payload_bytes(), a_small->payload_bytes() * 1.02);
}

TEST(DictionarySaveLoadTest, RoundTrip) {
  const std::string path = ::testing::TempDir() + "/dict_roundtrip.bin";
  Dictionary dict("some dictionary payload with structure structure");
  ASSERT_TRUE(dict.Save(path).ok());
  auto loaded = Dictionary::Load(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ((*loaded)->text(), dict.text());
  // The rebuilt matcher must behave identically.
  EXPECT_EQ((*loaded)->matcher().LongestMatch("structure").len, 9);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace rlz
