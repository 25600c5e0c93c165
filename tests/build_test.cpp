// The parallel build pipeline (DESIGN.md §7): the word-packed Bitmap,
// FactorStats merging, BuildPool's shared workers, BuildPipeline's
// ordered-merge contract, and the headline property — parallel builds
// are byte-identical to serial ones for every backend (RLZ, blocked,
// semistatic), at every tested thread count, across random, repetitive,
// and empty-document collections (the sharded store's per-shard check is
// in serve_test). Runs under ThreadSanitizer in CI (ctest label
// `concurrency`).

#include <atomic>
#include <memory>
#include <mutex>
#include <numeric>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include "build/archive_builder.h"
#include "build/build_pipeline.h"
#include "core/factorizer.h"
#include "core/rlz.h"
#include "corpus/generator.h"
#include "io/file.h"
#include "semistatic/semistatic_archive.h"
#include "store/blocked_archive.h"
#include "util/bitmap.h"
#include "util/random.h"
#include "zip/gzipx.h"

namespace rlz {
namespace {

// ---------------------------------------------------------------------------
// Bitmap
// ---------------------------------------------------------------------------

// Reference implementation to property-check against.
std::vector<bool> ReferenceSetRange(std::vector<bool> bits, size_t begin,
                                    size_t len) {
  for (size_t i = begin; i < begin + len; ++i) bits[i] = true;
  return bits;
}

bool Matches(const Bitmap& bitmap, const std::vector<bool>& reference) {
  if (bitmap.size() != reference.size()) return false;
  for (size_t i = 0; i < reference.size(); ++i) {
    if (bitmap.Test(i) != reference[i]) return false;
  }
  return true;
}

TEST(BitmapTest, SetRangeMatchesReferenceAcrossWordBoundaries) {
  Rng rng(7);
  constexpr size_t kBits = 1000;
  Bitmap bitmap(kBits);
  std::vector<bool> reference(kBits, false);
  // Ranges chosen to hit within-word, word-crossing, and word-aligned
  // cases (word size is 64).
  const size_t cases[][2] = {{0, 1},    {63, 1},   {64, 1},  {60, 8},
                             {0, 64},   {64, 128}, {5, 200}, {999, 1},
                             {930, 70}, {128, 0}};
  for (const auto& c : cases) {
    bitmap.SetRange(c[0], c[1]);
    reference = ReferenceSetRange(std::move(reference), c[0], c[1]);
    ASSERT_TRUE(Matches(bitmap, reference))
        << "after SetRange(" << c[0] << ", " << c[1] << ")";
    ASSERT_EQ(bitmap.CountSet(),
              static_cast<size_t>(
                  std::count(reference.begin(), reference.end(), true)));
  }
  // Random ranges.
  for (int i = 0; i < 200; ++i) {
    const size_t begin = rng.Next() % kBits;
    const size_t len = rng.Next() % (kBits - begin + 1);
    bitmap.SetRange(begin, len);
    reference = ReferenceSetRange(std::move(reference), begin, len);
  }
  EXPECT_TRUE(Matches(bitmap, reference));
}

TEST(BitmapTest, OrWithMergesPartitionsExactly) {
  Rng rng(8);
  constexpr size_t kBits = 777;
  Bitmap full(kBits);
  Bitmap parts[4] = {Bitmap(kBits), Bitmap(kBits), Bitmap(kBits),
                     Bitmap(kBits)};
  for (int i = 0; i < 300; ++i) {
    const size_t begin = rng.Next() % kBits;
    const size_t len = rng.Next() % (kBits - begin + 1);
    full.SetRange(begin, len);
    parts[rng.Next() % 4].SetRange(begin, len);
  }
  // Merge in a scrambled order: OR is commutative and associative.
  Bitmap merged(kBits);
  for (int p : {2, 0, 3, 1}) merged.OrWith(parts[p]);
  EXPECT_EQ(merged, full);
  EXPECT_EQ(merged.CountSet(), full.CountSet());
}

TEST(BitmapTest, FractionSetTracksCoverage) {
  Bitmap bitmap(100);
  EXPECT_DOUBLE_EQ(bitmap.FractionSet(), 0.0);
  bitmap.SetRange(0, 25);
  EXPECT_DOUBLE_EQ(bitmap.FractionSet(), 0.25);
  bitmap.SetRange(0, 100);
  EXPECT_DOUBLE_EQ(bitmap.FractionSet(), 1.0);
  EXPECT_DOUBLE_EQ(Bitmap().FractionSet(), 0.0);  // empty: defined as 0
}

TEST(BitmapTest, EqualityIsExact) {
  Bitmap a(65);
  Bitmap b(65);
  EXPECT_EQ(a, b);
  a.Set(64);
  EXPECT_NE(a, b);
  b.Set(64);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, Bitmap(64));  // same words, different size
}

// ---------------------------------------------------------------------------
// FactorStats
// ---------------------------------------------------------------------------

TEST(FactorStatsTest, MergeSumsAllCounters) {
  FactorStats a;
  a.num_factors = 10;
  a.num_literals = 3;
  a.text_bytes = 1000;
  FactorStats b;
  b.num_factors = 5;
  b.num_literals = 1;
  b.text_bytes = 500;
  a.Merge(b);
  EXPECT_EQ(a.num_factors, 15u);
  EXPECT_EQ(a.num_literals, 4u);
  EXPECT_EQ(a.text_bytes, 1500u);
  EXPECT_DOUBLE_EQ(a.avg_factor_length(), 100.0);
}

TEST(FactorStatsTest, AvgFactorDecayMeasuresStaleness) {
  // The live store's staleness trigger (DESIGN.md §11): decay is the
  // fractional drop in average factor length against a baseline build.
  FactorStats baseline;
  baseline.num_factors = 10;
  baseline.text_bytes = 1000;  // avg 100
  FactorStats decayed;
  decayed.num_factors = 40;
  decayed.text_bytes = 1000;  // avg 25: a 75% drop
  EXPECT_DOUBLE_EQ(decayed.avg_factor_decay(baseline), 0.75);
  // As-good-or-better factors never report decay.
  EXPECT_DOUBLE_EQ(baseline.avg_factor_decay(baseline), 0.0);
  EXPECT_DOUBLE_EQ(baseline.avg_factor_decay(decayed), 0.0);
  // Degenerate inputs (no factors on either side) are defined as 0.
  EXPECT_DOUBLE_EQ(FactorStats().avg_factor_decay(baseline), 0.0);
  EXPECT_DOUBLE_EQ(baseline.avg_factor_decay(FactorStats()), 0.0);
}

// ---------------------------------------------------------------------------
// BuildPipeline
// ---------------------------------------------------------------------------

TEST(BuildPipelineTest, PartitionCoversAllDocsContiguously) {
  const auto ranges = BuildPipeline::Partition(100, 7);
  ASSERT_EQ(ranges.size(), 15u);
  size_t expect_begin = 0;
  for (const DocRange& r : ranges) {
    EXPECT_EQ(r.begin, expect_begin);
    EXPECT_GT(r.end, r.begin);
    expect_begin = r.end;
  }
  EXPECT_EQ(ranges.back().end, 100u);
  EXPECT_TRUE(BuildPipeline::Partition(0, 4).empty());
}

#ifdef __linux__
TEST(BuildPoolTest, BackgroundWorkersRunAtLowestPriority) {
  // Each chunk records the nice value of the worker that encoded it.
  for (const bool background : {false, true}) {
    BuildPool pool(2, background);
    BuildPipeline pipeline(&pool);
    constexpr int kChunks = 8;
    std::vector<int> nice(kChunks, -100);
    for (int i = 0; i < kChunks; ++i) {
      pipeline.Submit(
          [&nice, i](int) { nice[i] = getpriority(PRIO_PROCESS, 0); },
          [] {});
    }
    pipeline.Finish();
    const int inherited = getpriority(PRIO_PROCESS, 0);
    for (int i = 0; i < kChunks; ++i) {
      EXPECT_EQ(nice[i], background ? 19 : inherited) << "chunk " << i;
    }
  }
}

TEST(BuildPoolTest, BackgroundWorkersWorkOnEveryCpuTheyMayUse) {
  // An idle background worker waits pinned to one CPU; the chunk it is
  // handed runs with the thread's full mask again.
  cpu_set_t mask;
  ASSERT_EQ(sched_getaffinity(0, sizeof(mask), &mask), 0);
  const int cpus = CPU_COUNT(&mask);
  BuildPool pool(2, /*background=*/true);
  for (int run = 0; run < 2; ++run) {
    BuildPipeline pipeline(&pool);
    constexpr int kChunks = 8;
    std::vector<int> counts(kChunks, -1);
    for (int i = 0; i < kChunks; ++i) {
      pipeline.Submit(
          [&counts, i](int) {
            cpu_set_t own;
            if (sched_getaffinity(0, sizeof(own), &own) == 0) {
              counts[i] = CPU_COUNT(&own);
            }
          },
          [] {});
    }
    pipeline.Finish();
    for (int i = 0; i < kChunks; ++i) {
      EXPECT_EQ(counts[i], cpus) << "run " << run << " chunk " << i;
    }
  }
}
#endif

class BuildPipelineThreadsTest : public ::testing::TestWithParam<int> {};

TEST_P(BuildPipelineThreadsTest, MergesRunInSubmissionOrder) {
  BuildPool pool(GetParam());
  BuildPipeline pipeline(&pool);
  // More chunks than the in-flight cap (4 x threads) at every thread
  // count, so Submit exercises backpressure.
  constexpr int kChunks = 200;
  std::vector<int> merged;
  std::vector<std::unique_ptr<int>> encoded(kChunks);
  for (int i = 0; i < kChunks; ++i) {
    pipeline.Submit(
        [&encoded, i](int worker) {
          ASSERT_GE(worker, 0);
          // Unequal encode costs so completion order differs from
          // submission order when threads > 1.
          volatile int spin = (i % 7) * 1000;
          while (spin > 0) spin = spin - 1;
          encoded[i] = std::make_unique<int>(i);
        },
        [&merged, &encoded, i]() {
          // The chunk's own encode must have happened...
          ASSERT_NE(encoded[i], nullptr);
          merged.push_back(*encoded[i]);
        });
  }
  const BuildPipelineStats stats = pipeline.Finish();
  EXPECT_EQ(stats.chunks, static_cast<size_t>(kChunks));
  // ...and merges landed in exact submission order, no locks needed in
  // the merge callbacks themselves.
  std::vector<int> expected(kChunks);
  std::iota(expected.begin(), expected.end(), 0);
  EXPECT_EQ(merged, expected);
}

INSTANTIATE_TEST_SUITE_P(Threads, BuildPipelineThreadsTest,
                         ::testing::Values(1, 2, 4, 8));

// One pipeline run of `chunks` chunks on `pool`: returns the merge order
// and adds each encoding thread's id to `*thread_ids`.
std::vector<int> RunOrderedChunks(BuildPool* pool, int chunks,
                                  std::mutex* mu,
                                  std::set<std::thread::id>* thread_ids) {
  BuildPipeline pipeline(pool);
  std::vector<int> merged;
  for (int i = 0; i < chunks; ++i) {
    pipeline.Submit(
        [=](int) {
          // Unequal encode costs, so chunks complete out of order.
          volatile int spin = (i % 5) * 2000;
          while (spin > 0) spin = spin - 1;
          std::lock_guard<std::mutex> lock(*mu);
          thread_ids->insert(std::this_thread::get_id());
        },
        [&merged, i] { merged.push_back(i); });
  }
  EXPECT_EQ(pipeline.Finish().chunks, static_cast<size_t>(chunks));
  return merged;
}

TEST(BuildPoolTest, SharedPoolMergesEachRunInOrder) {
  // A store's seals and compactions share one long-lived pool: runs in
  // succession and runs at the same time each keep their own order, and
  // none of them starts a thread of its own.
  BuildPool pool(4);
  std::mutex mu;
  std::set<std::thread::id> thread_ids;
  constexpr int kChunks = 100;  // above the in-flight cap of 16
  std::vector<int> expected(kChunks);
  std::iota(expected.begin(), expected.end(), 0);
  for (int run = 0; run < 3; ++run) {
    EXPECT_EQ(RunOrderedChunks(&pool, kChunks, &mu, &thread_ids), expected)
        << "successive run " << run;
  }
  std::vector<int> concurrent[2];
  std::thread producers[2];
  for (int p = 0; p < 2; ++p) {
    producers[p] = std::thread([&, p] {
      concurrent[p] = RunOrderedChunks(&pool, kChunks, &mu, &thread_ids);
    });
  }
  for (std::thread& producer : producers) producer.join();
  EXPECT_EQ(concurrent[0], expected);
  EXPECT_EQ(concurrent[1], expected);
  EXPECT_LE(thread_ids.size(), 4u);
  EXPECT_FALSE(thread_ids.count(std::this_thread::get_id()));
}

// ---------------------------------------------------------------------------
// Parallel build == serial build, byte for byte
// ---------------------------------------------------------------------------

Collection RandomCollection(uint64_t seed, size_t num_docs,
                            size_t max_doc_bytes) {
  Rng rng(seed);
  Collection collection;
  std::string doc;
  for (size_t i = 0; i < num_docs; ++i) {
    doc.clear();
    const size_t len = rng.Next() % (max_doc_bytes + 1);
    for (size_t j = 0; j < len; ++j) {
      doc.push_back(static_cast<char>(rng.Next() % 256));
    }
    collection.Append(doc);
  }
  return collection;
}

Collection RepetitiveCollection(size_t num_docs) {
  Collection collection;
  const std::string unit = "the quick brown fox jumps over the lazy dog. ";
  for (size_t i = 0; i < num_docs; ++i) {
    std::string doc;
    for (size_t r = 0; r < 1 + i % 40; ++r) doc += unit;
    collection.Append(doc);
  }
  return collection;
}

// Every third document empty, including leading and trailing runs.
Collection EmptyDocCollection(uint64_t seed, size_t num_docs) {
  Rng rng(seed);
  Collection collection;
  for (size_t i = 0; i < num_docs; ++i) {
    if (i % 3 != 1) {
      collection.Append("");
      continue;
    }
    std::string doc;
    const size_t len = rng.Next() % 2000;
    for (size_t j = 0; j < len; ++j) {
      doc.push_back(static_cast<char>('a' + rng.Next() % 26));
    }
    collection.Append(doc);
  }
  return collection;
}

struct NamedCollection {
  const char* name;
  Collection collection;
};

std::vector<NamedCollection> TestCollections() {
  CorpusOptions options;
  options.target_bytes = 1 << 20;
  options.seed = 202;
  std::vector<NamedCollection> collections;
  collections.push_back({"web", GenerateCorpus(options).collection});
  collections.push_back({"random", RandomCollection(31, 120, 4000)});
  collections.push_back({"repetitive", RepetitiveCollection(150)});
  collections.push_back({"empty-docs", EmptyDocCollection(32, 100)});
  collections.push_back({"all-empty", [] {
                           Collection c;
                           for (int i = 0; i < 50; ++i) c.Append("");
                           return c;
                         }()});
  collections.push_back({"no-docs", Collection()});
  return collections;
}

// Serializes an archive and returns the exact file bytes — the strongest
// possible identity check (payload, document map, dictionary, CRC). The
// path carries the process id: ctest runs each parameterized case in its
// own process, in parallel, and they share tags.
std::string ArchiveBytes(const RlzArchive& archive, const std::string& tag) {
  const std::string path = ::testing::TempDir() + "/build_test_" +
                           std::to_string(getpid()) + "_" + tag;
  EXPECT_TRUE(archive.Save(path).ok());
  auto bytes = ReadFile(path);
  EXPECT_TRUE(bytes.ok());
  std::remove(path.c_str());
  return bytes.ok() ? *bytes : std::string();
}

class ParallelIdentityTest : public ::testing::TestWithParam<int> {};

TEST_P(ParallelIdentityTest, RlzBuildByteIdenticalToSerial) {
  const int threads = GetParam();
  for (NamedCollection& item : TestCollections()) {
    const Collection& collection = item.collection;
    auto dict = std::shared_ptr<const Dictionary>(DictionaryBuilder::BuildSampled(
        collection.data(), 32 << 10, 512));

    RlzBuildOptions serial;
    serial.coding = kZV;
    serial.track_coverage = true;
    RlzBuildInfo serial_info;
    auto baseline = RlzArchive::Build(collection, dict, serial, &serial_info);
    const std::string baseline_bytes =
        ArchiveBytes(*baseline, std::string(item.name) + "_serial");

    // Chunk size must never affect the output: cover tiny, odd, and auto.
    for (const size_t chunk_docs : {size_t{1}, size_t{7}, size_t{0}}) {
      RlzBuildOptions parallel = serial;
      parallel.num_threads = threads;
      parallel.chunk_docs = chunk_docs;
      RlzBuildInfo parallel_info;
      auto archive = RlzArchive::Build(collection, dict, parallel,
                                       &parallel_info);
      SCOPED_TRACE(std::string(item.name) + " threads=" +
                   std::to_string(threads) + " chunk_docs=" +
                   std::to_string(chunk_docs));
      EXPECT_EQ(ArchiveBytes(*archive, std::string(item.name) + "_par"),
                baseline_bytes);
      EXPECT_EQ(parallel_info.stats.num_factors,
                serial_info.stats.num_factors);
      EXPECT_EQ(parallel_info.stats.num_literals,
                serial_info.stats.num_literals);
      EXPECT_EQ(parallel_info.stats.text_bytes, serial_info.stats.text_bytes);
      EXPECT_EQ(parallel_info.coverage, serial_info.coverage);
      EXPECT_DOUBLE_EQ(parallel_info.unused_dictionary_fraction,
                       serial_info.unused_dictionary_fraction);
    }
  }
}

TEST_P(ParallelIdentityTest, StreamingBuilderMatchesBatchBuild) {
  const int threads = GetParam();
  const Collection collection = RandomCollection(77, 90, 3000);
  auto dict = std::shared_ptr<const Dictionary>(DictionaryBuilder::BuildSampled(
      collection.data(), 16 << 10, 512));

  auto batch = RlzArchive::Build(collection, dict, {});

  BuildPool pool(threads);
  RlzBuildOptions options;
  // One document per chunk: 90 chunks, more than the in-flight cap
  // (4 x threads) at every thread count, forcing backpressure while
  // streaming.
  options.chunk_docs = 1;
  RlzArchiveBuilder builder(dict, &pool, options);
  for (size_t i = 0; i < collection.num_docs(); ++i) {
    // AddDocument copies: hand it a transient string to prove it.
    const std::string transient(collection.doc(i));
    builder.AddDocument(transient);
  }
  EXPECT_EQ(builder.num_docs(), collection.num_docs());
  RlzBuildInfo info;
  auto streamed = std::move(builder).Finish(&info);

  EXPECT_EQ(ArchiveBytes(*streamed, "streamed"),
            ArchiveBytes(*batch, "batch"));
  EXPECT_EQ(info.stats.text_bytes, collection.size_bytes());
  EXPECT_EQ(info.build_chunks, collection.num_docs());
}

TEST_P(ParallelIdentityTest, BlockedArchiveByteIdenticalToSerial) {
  const int threads = GetParam();
  CorpusOptions corpus_options;
  corpus_options.target_bytes = 1 << 20;
  corpus_options.seed = 203;
  const Corpus corpus = GenerateCorpus(corpus_options);
  const Collection& collection = corpus.collection;
  const GzipxCompressor gzipx;
  for (const uint64_t block_bytes : {uint64_t{0}, uint64_t{64} << 10}) {
    const BlockedArchive baseline(collection, &gzipx, block_bytes);
    const BlockedArchive parallel(collection, &gzipx, block_bytes,
                                  /*cache_bytes=*/0, threads);
    SCOPED_TRACE("block_bytes=" + std::to_string(block_bytes) +
                 " threads=" + std::to_string(threads));
    ASSERT_EQ(parallel.num_docs(), baseline.num_docs());
    EXPECT_EQ(parallel.num_blocks(), baseline.num_blocks());
    EXPECT_EQ(parallel.stored_bytes(), baseline.stored_bytes());
    std::string a;
    std::string b;
    for (size_t i = 0; i < baseline.num_docs(); ++i) {
      ASSERT_TRUE(parallel.Get(i, &a).ok());
      ASSERT_TRUE(baseline.Get(i, &b).ok());
      ASSERT_EQ(a, b) << "doc " << i;
    }
  }
}

TEST_P(ParallelIdentityTest, SemiStaticArchiveByteIdenticalToSerial) {
  const int threads = GetParam();
  CorpusOptions corpus_options;
  corpus_options.target_bytes = 1 << 19;
  corpus_options.seed = 204;
  const Corpus corpus = GenerateCorpus(corpus_options);
  const Collection& collection = corpus.collection;
  for (const SemiStaticScheme scheme :
       {SemiStaticScheme::kEtdc, SemiStaticScheme::kPlainHuffman}) {
    auto baseline = SemiStaticArchive::Build(collection, scheme);
    auto parallel = SemiStaticArchive::Build(collection, scheme, threads);
    ASSERT_EQ(parallel->num_docs(), baseline->num_docs());
    EXPECT_EQ(parallel->stored_bytes(), baseline->stored_bytes());
    std::string a;
    std::string b;
    for (size_t i = 0; i < baseline->num_docs(); i += 3) {
      ASSERT_TRUE(parallel->Get(i, &a).ok());
      ASSERT_TRUE(baseline->Get(i, &b).ok());
      ASSERT_EQ(a, b) << "doc " << i;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Threads, ParallelIdentityTest,
                         ::testing::Values(1, 2, 4, 8));

TEST(DictionaryMatcherTest, PoolWorkersRacingTheFirstCallShareOneBuild) {
  // A dictionary builds its matcher on the first matcher() call. Pool
  // workers that make that call on a fresh dictionary at once all get
  // the one matcher it built, and factorize exactly as a serial pass
  // against a second dictionary of the same text, which has no match
  // keys.
  CorpusOptions corpus_options;
  corpus_options.target_bytes = 128 << 10;
  corpus_options.seed = 211;
  const Collection collection = GenerateCorpus(corpus_options).collection;
  const std::shared_ptr<const Dictionary> dict =
      DictionaryBuilder::BuildSampled(collection.data(), 16 << 10, 512);
  std::const_pointer_cast<Dictionary>(dict)->UseMatchKeys();
  ASSERT_FALSE(dict->has_matcher());

  constexpr int kWorkers = 4;
  BuildPool pool(kWorkers);
  BuildPipeline pipeline(&pool);
  std::atomic<int> arrived{0};
  std::mutex mu;
  std::set<const SuffixMatcher*> matchers;
  std::vector<std::vector<Factor>> factors(collection.num_docs());
  for (int w = 0; w < kWorkers; ++w) {
    pipeline.Submit(
        [&, w](int) {
          // Every worker holds a task before any calls matcher().
          arrived.fetch_add(1);
          while (arrived.load() < kWorkers) std::this_thread::yield();
          const SuffixMatcher* matcher = &dict->matcher();
          {
            std::lock_guard<std::mutex> lock(mu);
            matchers.insert(matcher);
          }
          Factorizer factorizer(dict.get());
          for (size_t i = w; i < collection.num_docs(); i += kWorkers) {
            factorizer.Factorize(collection.doc(i), &factors[i]);
          }
        },
        [] {});
  }
  pipeline.Finish();
  EXPECT_EQ(matchers.size(), 1u);
  EXPECT_TRUE(dict->has_matcher());
  EXPECT_GT(dict->matcher().match_keys_bytes(), 0u);

  const Dictionary twin{std::string(dict->text())};
  Factorizer serial(&twin);
  std::vector<Factor> want;
  for (size_t i = 0; i < collection.num_docs(); ++i) {
    want.clear();
    serial.Factorize(collection.doc(i), &want);
    ASSERT_EQ(factors[i], want) << "doc " << i;
  }
}

}  // namespace
}  // namespace rlz
