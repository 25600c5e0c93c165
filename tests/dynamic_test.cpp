// §3.6 dynamic-update machinery: the streaming archive builder and
// dictionary growth by sample appending.

#include <memory>
#include <string>

#include <gtest/gtest.h>

#include "build/archive_builder.h"
#include "core/rlz.h"
#include "corpus/generator.h"

namespace rlz {
namespace {

Corpus MakeCorpus(uint64_t seed, size_t bytes = 1 << 20) {
  CorpusOptions options;
  options.target_bytes = bytes;
  options.seed = seed;
  return GenerateCorpus(options);
}

TEST(ArchiveBuilderTest, MatchesBatchBuild) {
  const Corpus corpus = MakeCorpus(111);
  auto dict = std::shared_ptr<const Dictionary>(
      DictionaryBuilder::BuildSampled(corpus.collection.data(), 32 << 10,
                                      1024));
  RlzBuildOptions batch_options;
  batch_options.coding = kZV;
  auto batch = RlzArchive::Build(corpus.collection, dict, batch_options);

  BuildPool pool;
  RlzArchiveBuilder builder(dict, &pool);
  for (size_t i = 0; i < corpus.collection.num_docs(); ++i) {
    builder.AddDocument(corpus.collection.doc(i));
  }
  RlzBuildInfo info;
  auto streamed = std::move(builder).Finish(&info);
  EXPECT_GT(info.stats.num_factors, 0u);

  ASSERT_EQ(streamed->num_docs(), batch->num_docs());
  EXPECT_EQ(streamed->payload_bytes(), batch->payload_bytes());
  std::string a;
  std::string b;
  for (size_t i = 0; i < streamed->num_docs(); ++i) {
    ASSERT_TRUE(streamed->Get(i, &a).ok());
    ASSERT_TRUE(batch->Get(i, &b).ok());
    ASSERT_EQ(a, b);
    ASSERT_EQ(a, corpus.collection.doc(i));
  }
}

TEST(ArchiveBuilderTest, CoverageTracking) {
  auto dict = std::shared_ptr<const Dictionary>(
      std::make_unique<Dictionary>("abcdefgh"));
  RlzBuildOptions options;
  options.coding = kUV;
  options.track_coverage = true;
  BuildPool pool;
  // Half the dictionary after the first document, all of it after both.
  for (const size_t docs : {1, 2}) {
    RlzArchiveBuilder builder(dict, &pool, options);
    builder.AddDocument("abcd");
    if (docs == 2) builder.AddDocument("efgh");
    RlzBuildInfo info;
    auto archive = std::move(builder).Finish(&info);
    EXPECT_EQ(archive->num_docs(), docs);
    EXPECT_DOUBLE_EQ(info.unused_dictionary_fraction, docs == 1 ? 0.5 : 0.0);
    EXPECT_EQ(info.coverage.CountSet(), docs == 1 ? 4u : 8u);
  }
}

TEST(ArchiveBuilderTest, EmptyArchive) {
  auto dict = std::shared_ptr<const Dictionary>(
      std::make_unique<Dictionary>("dictionary"));
  BuildPool pool;
  RlzArchiveBuilder builder(dict, &pool, {.coding = kZZ});
  auto archive = std::move(builder).Finish();
  EXPECT_EQ(archive->num_docs(), 0u);
  std::string doc;
  EXPECT_EQ(archive->Get(0, &doc).code(), StatusCode::kOutOfRange);
}

TEST(AppendSamplesTest, OldOffsetsPreserved) {
  const Corpus corpus = MakeCorpus(112);
  const std::string_view data = corpus.collection.data();
  auto base = DictionaryBuilder::BuildSampled(data.substr(0, data.size() / 2),
                                              16 << 10, 512);
  auto grown = DictionaryBuilder::AppendSamples(
      *base, data.substr(data.size() / 2), 16 << 10, 512);
  // The base dictionary is a strict prefix of the grown one (§3.6: "the
  // previous pair codes are still valid").
  ASSERT_GE(grown->size(), base->size());
  EXPECT_EQ(grown->text().substr(0, base->size()), base->text());
}

TEST(AppendSamplesTest, OldEncodingsDecodeAgainstGrownDictionary) {
  const Corpus corpus = MakeCorpus(113);
  const Collection& collection = corpus.collection;
  const std::string_view data = collection.data();

  auto base = std::shared_ptr<const Dictionary>(
      DictionaryBuilder::BuildSampled(data.substr(0, data.size() / 3),
                                      16 << 10, 512));
  // Encode the first third against the base dictionary.
  const FactorCoder coder(kZV);
  Factorizer factorizer(base.get());
  std::vector<std::string> encoded;
  const size_t old_docs = collection.num_docs() / 3;
  for (size_t i = 0; i < old_docs; ++i) {
    std::vector<Factor> factors;
    factorizer.Factorize(collection.doc(i), &factors);
    encoded.emplace_back();
    coder.EncodeDoc(factors, &encoded.back());
  }

  auto grown = std::shared_ptr<const Dictionary>(DictionaryBuilder::AppendSamples(
      *base, data.substr(data.size() / 3), 16 << 10, 512));

  // Old factor streams decode identically against the grown dictionary.
  std::string doc;
  for (size_t i = 0; i < old_docs; ++i) {
    doc.clear();
    ASSERT_TRUE(coder.DecodeDoc(encoded[i], *grown, &doc).ok());
    ASSERT_EQ(doc, collection.doc(i)) << "doc " << i;
  }
}

TEST(AppendSamplesTest, GrownDictionaryImprovesNewDocs) {
  const Corpus corpus = MakeCorpus(114, 2 << 20);
  const Collection& collection = corpus.collection;
  const std::string_view data = collection.data();

  // Base dictionary sees only the first 10%.
  auto base = std::shared_ptr<const Dictionary>(
      DictionaryBuilder::BuildFromPrefix(data, 0.10, 24 << 10, 512));
  auto grown = std::shared_ptr<const Dictionary>(
      DictionaryBuilder::AppendSamples(*base, data.substr(data.size() / 10),
                                       24 << 10, 512));

  RlzBuildOptions build;
  build.coding = kZV;
  auto stale = RlzArchive::Build(collection, base, build);
  auto fresh = RlzArchive::Build(collection, grown, build);
  // The grown dictionary can only help the payload.
  EXPECT_LE(fresh->payload_bytes(), stale->payload_bytes());
}

}  // namespace
}  // namespace rlz
