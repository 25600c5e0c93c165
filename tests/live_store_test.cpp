// Live-corpus tests (DESIGN.md §11): epoch snapshots, Append/Delete/seal,
// compaction, manifest round trips, and the concurrency regression suite
// for the mutation path. Every *Concurrent* test here is also run under
// ThreadSanitizer by the `tsan` CI job (ctest label: concurrency) — the
// epoch-pinning invariants only mean something if they hold with readers,
// mutators, and a thread looping CompactOnce genuinely racing.

#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/dictionary.h"
#include "core/rlz_archive.h"
#include "corpus/generator.h"
#include "serve/corpus_epoch.h"
#include "serve/doc_service.h"
#include "serve/sharded_store.h"
#include "util/random.h"

namespace rlz {
namespace {

Collection TestCollection(size_t target_bytes, uint64_t seed) {
  CorpusOptions options;
  options.target_bytes = target_bytes;
  options.seed = seed;
  return GenerateCorpus(options).collection;
}

// A small live store: 2 shards over ~256 KB, no auto-seal (tests seal
// explicitly unless they opt in).
std::unique_ptr<ShardedStore> SmallLiveStore(
    const Collection& collection, size_t tail_seal_bytes = 0) {
  ShardedStoreOptions options;
  options.num_shards = 2;
  options.dict_bytes = 1 << 16;
  options.live.tail_seal_bytes = tail_seal_bytes;
  return ShardedStore::Build(collection, options);
}

std::string TempPath(const std::string& name) {
  return testing::TempDir() + name;
}

// Runs CompactOnce on `store`, 1 ms apart, until `stop` is set: the
// compaction side of the concurrency tests.
std::thread CompactInLoop(ShardedStore* store, const std::atomic<bool>* stop) {
  return std::thread([store, stop] {
    while (!stop->load(std::memory_order_acquire)) {
      const auto report = store->CompactOnce();
      EXPECT_TRUE(report.ok()) << report.status().ToString();
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });
}

// ---------------------------------------------------------------------------
// Append / tail serving

TEST(LiveStoreTest, AppendAssignsDenseIdsAndServesRawTail) {
  const Collection collection = TestCollection(1 << 18, 11);
  auto store = SmallLiveStore(collection);
  const size_t built = store->num_docs();
  const uint64_t seq0 = store->epoch_sequence();

  const Collection extra = TestCollection(1 << 16, 12);
  for (size_t i = 0; i < extra.num_docs(); ++i) {
    auto id = store->Append(extra.doc(i));
    ASSERT_TRUE(id.ok()) << id.status().ToString();
    EXPECT_EQ(id.value(), built + i);
  }
  EXPECT_EQ(store->num_docs(), built + extra.num_docs());
  EXPECT_GT(store->epoch_sequence(), seq0);  // every append published

  // Built docs and tail docs both serve byte-identically.
  std::string doc;
  ASSERT_TRUE(store->Get(0, &doc).ok());
  EXPECT_EQ(doc, collection.doc(0));
  for (size_t i = 0; i < extra.num_docs(); ++i) {
    ASSERT_TRUE(store->Get(built + i, &doc).ok());
    EXPECT_EQ(doc, extra.doc(i));
  }
  // Tail ranges clamp like archive ranges do.
  std::string slice;
  ASSERT_TRUE(store->GetRange(built, 3, 10, &slice).ok());
  EXPECT_EQ(slice, std::string(extra.doc(0)).substr(3, 10));
}

TEST(LiveStoreTest, SealTailGrowsRouterAndKeepsBytes) {
  const Collection collection = TestCollection(1 << 18, 21);
  auto store = SmallLiveStore(collection);
  const size_t built = store->num_docs();
  const int shards_before = store->num_shards();

  const Collection extra = TestCollection(1 << 16, 22);
  for (size_t i = 0; i < extra.num_docs(); ++i) {
    ASSERT_TRUE(store->Append(extra.doc(i)).ok());
  }
  ASSERT_TRUE(store->SealTail().ok());
  EXPECT_EQ(store->num_shards(), shards_before + 1);
  EXPECT_EQ(store->epoch()->tail_docs(), 0u);
  // The new shard owns exactly the sealed range.
  auto router = store->router_snapshot();
  EXPECT_EQ(router->start(static_cast<size_t>(shards_before)), built);
  EXPECT_EQ(router->num_docs(), built + extra.num_docs());

  std::string doc;
  for (size_t i = 0; i < extra.num_docs(); ++i) {
    ASSERT_TRUE(store->Get(built + i, &doc).ok());
    EXPECT_EQ(doc, extra.doc(i));
  }
  // Sealing an empty tail is a no-op.
  const uint64_t seq = store->epoch_sequence();
  ASSERT_TRUE(store->SealTail().ok());
  EXPECT_EQ(store->epoch_sequence(), seq);
}

TEST(LiveStoreTest, AutoSealAtThreshold) {
  const Collection collection = TestCollection(1 << 18, 31);
  auto store = SmallLiveStore(collection, /*tail_seal_bytes=*/1 << 14);
  const int shards_before = store->num_shards();
  const Collection extra = TestCollection(1 << 16, 32);
  for (size_t i = 0; i < extra.num_docs(); ++i) {
    ASSERT_TRUE(store->Append(extra.doc(i)).ok());
  }
  EXPECT_GT(store->num_shards(), shards_before);
  std::string doc;
  const size_t built = collection.num_docs();
  for (size_t i = 0; i < extra.num_docs(); ++i) {
    ASSERT_TRUE(store->Get(built + i, &doc).ok());
    EXPECT_EQ(doc, extra.doc(i));
  }
}

TEST(LiveStoreTest, SealedTailEqualsSerialBuild) {
  // The tail is encoded once, at seal, on the build pipeline with one
  // worker per CPU. Whatever that count is, the sealed shard must be the
  // archive a serial RlzArchive::Build makes from the same documents
  // against the append dictionary (1 KB samples of the build corpus,
  // dict_bytes / num_shards in all).
  const Collection collection = TestCollection(1 << 18, 41);
  const Collection extra = TestCollection(1 << 18, 42);
  ASSERT_GE(extra.num_docs(), 8u);
  auto store = SmallLiveStore(collection);
  for (size_t i = 0; i < extra.num_docs(); ++i) {
    ASSERT_TRUE(store->Append(extra.doc(i)).ok());
  }
  ASSERT_TRUE(store->SealTail().ok());
  const int sealed = store->num_shards() - 1;

  std::shared_ptr<const Dictionary> dict =
      DictionaryBuilder::BuildSampled(collection.data(), (1 << 16) / 2, 1024);
  RlzBuildOptions build_options;
  build_options.num_threads = 1;
  RlzBuildInfo info;
  const auto serial =
      RlzArchive::Build(extra, std::move(dict), build_options, &info);
  EXPECT_EQ(store->shard(sealed).Serialize(), serial->Serialize());
  const ShardHealth health = store->shard_health(sealed);
  EXPECT_EQ(health.stats.num_factors, info.stats.num_factors);
  EXPECT_EQ(health.stats.num_literals, info.stats.num_literals);
  EXPECT_EQ(health.stats.text_bytes, info.stats.text_bytes);
}

// ---------------------------------------------------------------------------
// Delete / tombstones

TEST(LiveStoreTest, DeleteTombstonesWithoutReusingIds) {
  const Collection collection = TestCollection(1 << 18, 41);
  auto store = SmallLiveStore(collection);
  const size_t victim = collection.num_docs() / 2;

  EXPECT_TRUE(store->IsLive(victim));
  ASSERT_TRUE(store->Delete(victim).ok());
  EXPECT_FALSE(store->IsLive(victim));
  EXPECT_EQ(store->num_docs(), collection.num_docs());  // id not reused

  std::string doc;
  EXPECT_EQ(store->Get(victim, &doc).code(), StatusCode::kNotFound);
  EXPECT_EQ(store->GetRange(victim, 0, 8, &doc).code(),
            StatusCode::kNotFound);
  // Neighbours are untouched.
  ASSERT_TRUE(store->Get(victim - 1, &doc).ok());
  EXPECT_EQ(doc, collection.doc(victim - 1));

  // Double delete and out-of-range ids fail crisply.
  EXPECT_EQ(store->Delete(victim).code(), StatusCode::kNotFound);
  EXPECT_EQ(store->Delete(store->num_docs()).code(),
            StatusCode::kOutOfRange);
}

TEST(LiveStoreTest, TailDeleteSurvivesSeal) {
  const Collection collection = TestCollection(1 << 17, 51);
  auto store = SmallLiveStore(collection);
  const size_t built = store->num_docs();
  const Collection extra = TestCollection(1 << 17, 52);
  ASSERT_GE(extra.num_docs(), 2u);
  for (size_t i = 0; i < extra.num_docs(); ++i) {
    ASSERT_TRUE(store->Append(extra.doc(i)).ok());
  }
  ASSERT_TRUE(store->Delete(built + 1).ok());
  std::string doc;
  EXPECT_EQ(store->Get(built + 1, &doc).code(), StatusCode::kNotFound);
  ASSERT_TRUE(store->SealTail().ok());
  EXPECT_EQ(store->Get(built + 1, &doc).code(), StatusCode::kNotFound);
  ASSERT_TRUE(store->Get(built, &doc).ok());
  EXPECT_EQ(doc, extra.doc(0));
}

TEST(LiveStoreTest, PinnedEpochIsSnapshotIsolated) {
  const Collection collection = TestCollection(1 << 18, 61);
  auto store = SmallLiveStore(collection);
  const size_t victim = 3;

  // Pin before the mutations.
  std::shared_ptr<const CorpusEpoch> pinned = store->epoch();
  ASSERT_TRUE(store->Delete(victim).ok());
  ASSERT_TRUE(store->Append("new document after the pin").ok());

  // The pinned epoch still serves the deleted doc and cannot see the
  // append; the current epoch shows the opposite.
  std::string doc;
  ASSERT_TRUE(pinned->Get(victim, &doc, nullptr).ok());
  EXPECT_EQ(doc, collection.doc(victim));
  EXPECT_EQ(pinned->num_docs(), collection.num_docs());
  EXPECT_EQ(pinned->Get(collection.num_docs(), &doc, nullptr).code(),
            StatusCode::kOutOfRange);
  EXPECT_EQ(store->Get(victim, &doc).code(), StatusCode::kNotFound);
  ASSERT_TRUE(store->Get(collection.num_docs(), &doc).ok());
  EXPECT_EQ(doc, "new document after the pin");
}

// ---------------------------------------------------------------------------
// Compaction

TEST(LiveStoreTest, CompactionReclaimsTombstonedPayload) {
  const Collection collection = TestCollection(1 << 18, 71);
  ShardedStoreOptions options;
  options.num_shards = 2;
  options.dict_bytes = 1 << 16;
  options.live.compact_tombstone_fraction = 0.10;
  auto store = ShardedStore::Build(collection, options);

  // Nothing to do on a healthy store.
  auto idle = store->CompactOnce();
  ASSERT_TRUE(idle.ok());
  EXPECT_FALSE(idle.value().compacted);

  // Tombstone a third of shard 0.
  const size_t shard0_docs = store->router_snapshot()->start(1);
  std::vector<size_t> deleted;
  for (size_t id = 0; id < shard0_docs; id += 3) {
    ASSERT_TRUE(store->Delete(id).ok());
    deleted.push_back(id);
  }
  ASSERT_GT(store->shard_health(0).tombstoned_payload_bytes, 0u);

  auto report = store->CompactOnce();
  ASSERT_TRUE(report.ok());
  ASSERT_TRUE(report.value().compacted);
  EXPECT_EQ(report.value().shard, 0);
  EXPECT_EQ(report.value().reason, CompactionReport::Reason::kTombstones);
  EXPECT_EQ(report.value().generation, 1u);
  EXPECT_LT(report.value().bytes_after, report.value().bytes_before);
  EXPECT_EQ(report.value().dead_docs, deleted.size());
  EXPECT_EQ(store->shard_health(0).tombstoned_payload_bytes, 0u);
  EXPECT_EQ(store->epoch()->shard_generation(0), 1u);

  // Live docs are byte-identical through the rewrite; dead ids stay dead.
  std::string doc;
  for (size_t id = 0; id < shard0_docs; ++id) {
    if (id % 3 == 0) {
      EXPECT_EQ(store->Get(id, &doc).code(), StatusCode::kNotFound);
    } else {
      ASSERT_TRUE(store->Get(id, &doc).ok());
      EXPECT_EQ(doc, collection.doc(id));
    }
  }
}

TEST(LiveStoreTest, PinnedReadersDrainAcrossCompactionSwap) {
  const Collection collection = TestCollection(1 << 18, 81);
  ShardedStoreOptions options;
  options.num_shards = 2;
  options.dict_bytes = 1 << 16;
  options.live.compact_tombstone_fraction = 0.05;
  auto store = ShardedStore::Build(collection, options);

  const size_t shard0_docs = store->router_snapshot()->start(1);
  std::shared_ptr<const CorpusEpoch> pinned = store->epoch();
  for (size_t id = 0; id < shard0_docs; id += 4) {
    ASSERT_TRUE(store->Delete(id).ok());
  }
  auto report = store->CompactOnce();
  ASSERT_TRUE(report.ok());
  ASSERT_TRUE(report.value().compacted);

  // The pinned epoch still decodes every document — including the ones
  // the compaction just reclaimed — from the pre-compaction shard.
  std::string doc;
  for (size_t id = 0; id < shard0_docs; ++id) {
    ASSERT_TRUE(pinned->Get(id, &doc, nullptr).ok());
    EXPECT_EQ(doc, collection.doc(id));
  }
  EXPECT_EQ(pinned->shard_generation(0), 0u);
  EXPECT_EQ(store->epoch()->shard_generation(0), 1u);
}

TEST(LiveStoreTest, StaleDictionarySealTriggersResample) {
  // Build on corpus A, then append *drifted* content (a different seed —
  // new hosts, new vocabulary): the sealed tail encodes against A's
  // append dictionary and comes out stale (§3.6).
  const Collection collection = TestCollection(1 << 18, 91);
  ShardedStoreOptions options;
  options.num_shards = 2;
  options.dict_bytes = 1 << 16;
  // Only the staleness trigger is armed.
  options.live.compact_tombstone_fraction = 2.0;
  options.live.compact_stale_unused_fraction = 2.0;
  options.live.compact_stale_decay = 0.30;
  auto store = ShardedStore::Build(collection, options);

  const Collection drifted = TestCollection(1 << 17, 4242);
  for (size_t i = 0; i < drifted.num_docs(); ++i) {
    ASSERT_TRUE(store->Append(drifted.doc(i)).ok());
  }
  ASSERT_TRUE(store->SealTail().ok());
  const int stale_shard = store->num_shards() - 1;

  // The drifted shard's factors are measurably shorter than the
  // build-time baseline.
  const ShardHealth health = store->shard_health(stale_shard);
  EXPECT_GE(health.stats.avg_factor_decay(store->baseline_stats()), 0.30)
      << "drifted content should decay factor length vs the baseline";

  const uint64_t stale_bytes_before =
      store->epoch()->shard(stale_shard).stored_bytes();
  auto report = store->CompactOnce();
  ASSERT_TRUE(report.ok());
  ASSERT_TRUE(report.value().compacted);
  EXPECT_EQ(report.value().shard, stale_shard);
  EXPECT_EQ(report.value().reason,
            CompactionReport::Reason::kStaleDictionary);
  // Re-sampling the dictionary from the drifted content itself must
  // compress it better than the stale append dictionary did.
  EXPECT_LT(report.value().bytes_after, stale_bytes_before);

  // And the rewrite is no longer stale: a second pass finds nothing.
  auto second = store->CompactOnce();
  ASSERT_TRUE(second.ok());
  EXPECT_FALSE(second.value().compacted);

  std::string doc;
  const size_t built = collection.num_docs();
  for (size_t i = 0; i < drifted.num_docs(); ++i) {
    ASSERT_TRUE(store->Get(built + i, &doc).ok());
    EXPECT_EQ(doc, drifted.doc(i));
  }
}

// Drifted documents (another seed: new hosts, new vocabulary) of ~4 KB,
// so a tail can be cut finer than a shard dictionary.
std::vector<std::string> DriftedDocs(size_t target_bytes, uint64_t seed) {
  CorpusOptions options;
  options.target_bytes = target_bytes;
  options.seed = seed;
  options.avg_doc_bytes = 4 << 10;
  const Collection drifted = GenerateCorpus(options).collection;
  std::vector<std::string> docs;
  for (size_t i = 0; i < drifted.num_docs(); ++i) {
    docs.emplace_back(drifted.doc(i));
  }
  return docs;
}

// The names of the append dictionary files in `dir`.
std::vector<std::string> DictFiles(const std::string& dir) {
  std::vector<std::string> names;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    const std::string name = entry.path().filename().string();
    if (name.find(".dict") != std::string::npos) names.push_back(name);
  }
  return names;
}

TEST(LiveStoreTest, DecayedSealsRefreshTheAppendDictionary) {
  // A drifted tail seals stale against the base-sampled append
  // dictionary. A later tail smaller than a dictionary seals against it
  // too; the next one that holds a dictionary's worth of text samples a
  // new append dictionary from itself, and later seals bind to that.
  // Compaction then moves each stale shard to the new dictionary, and
  // the retired one leaves the store and its directory.
  const Collection collection = TestCollection(1 << 18, 91);
  ShardedStoreOptions options;
  options.num_shards = 2;
  options.dict_bytes = 1 << 16;
  options.live.tail_seal_bytes = 0;
  options.live.compact_tombstone_fraction = 2.0;
  options.live.compact_stale_unused_fraction = 2.0;
  options.live.compact_stale_decay = 0.30;
  const size_t dict_bytes = options.dict_bytes / options.num_shards;
  const std::string dir = TempPath("refresh_store");
  std::filesystem::remove_all(dir);
  auto store = ShardedStore::Build(collection, options);
  ASSERT_TRUE(store->MakeDurable(dir).ok());

  const std::vector<std::string> drifted = DriftedDocs(1 << 18, 4242);
  size_t next = 0;
  // Appends drifted documents until the tail holds at least `bytes`,
  // then seals.
  const auto seal_after = [&](size_t bytes) {
    size_t tail = 0;
    while (tail < bytes) {
      ASSERT_LT(next, drifted.size());
      ASSERT_TRUE(store->Append(drifted[next]).ok());
      tail += drifted[next++].size();
    }
    ASSERT_TRUE(store->SealTail().ok());
  };
  seal_after(2 * dict_bytes);     // shard 2: stale, no shard to judge by
  seal_after(dict_bytes / 4);     // shard 3: too small to refresh
  auto epoch = store->epoch();
  ASSERT_EQ(epoch->num_shards(), 4);
  EXPECT_GE(epoch->shard_health(2).stats.avg_factor_decay(
                store->baseline_stats()),
            0.30);
  ASSERT_EQ(epoch->append_dictionaries().size(), 1u);
  for (int s = 2; s < 4; ++s) EXPECT_EQ(epoch->shard_dictionary(s), 0u);

  seal_after(dict_bytes);         // shard 4: refreshes
  seal_after(dict_bytes / 4);     // shard 5: binds to the new dictionary
  epoch = store->epoch();
  ASSERT_EQ(epoch->num_shards(), 6);
  ASSERT_EQ(epoch->append_dictionaries().size(), 2u);
  const std::shared_ptr<const Dictionary> retired =
      epoch->append_dictionaries()[0];
  const std::shared_ptr<const Dictionary> current =
      epoch->append_dictionaries()[1];
  EXPECT_TRUE(current->has_matcher());
  EXPECT_EQ(epoch->shard_dictionary(0), Manifest::kOwnDictionary);
  EXPECT_EQ(epoch->shard_dictionary(3), 0u);
  EXPECT_EQ(epoch->shard_dictionary(4), 1u);
  EXPECT_EQ(epoch->shard_dictionary(5), 1u);
  // Sampled from the drifted text, the new dictionary covers it.
  EXPECT_LT(epoch->shard_health(4).stats.avg_factor_decay(
                store->baseline_stats()),
            0.30);
  ASSERT_TRUE(store->Checkpoint().ok());
  EXPECT_EQ(DictFiles(dir).size(), 2u);

  // A serving-only open has no matcher for the current dictionary, so
  // its compaction re-samples the stale shard instead.
  {
    const std::string path = TempPath("refresh_serving.sharded");
    ASSERT_TRUE(store->Save(path).ok());
    OpenOptions serving;
    serving.build_suffix_array = false;
    auto opened = ShardedStore::Open(path, serving);
    ASSERT_TRUE(opened.ok()) << opened.status().ToString();
    auto report = (*opened)->CompactOnce();
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    ASSERT_TRUE(report->compacted);
    EXPECT_EQ(report->reason, CompactionReport::Reason::kStaleDictionary);
    EXPECT_EQ((*opened)->epoch()->shard_dictionary(report->shard),
              Manifest::kOwnDictionary);
  }

  // Both stale shards bound to the retired dictionary move to the current
  // one, each byte-identical to sealing its documents against it.
  for (int pass = 0; pass < 2; ++pass) {
    const auto before = store->epoch();
    const uint64_t stored_before = before->stored_bytes();
    auto report = store->CompactOnce();
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    ASSERT_TRUE(report->compacted);
    EXPECT_EQ(report->reason, CompactionReport::Reason::kStaleDictionary);
    const int victim = report->shard;
    ASSERT_TRUE(victim == 2 || victim == 3) << victim;
    const RlzArchive& old_shard = before->shard(victim);
    Collection docs;
    std::string doc;
    for (size_t i = 0; i < old_shard.num_docs(); ++i) {
      ASSERT_TRUE(old_shard.Get(i, &doc, nullptr).ok());
      docs.Append(doc);
    }
    const auto after = store->epoch();
    const RlzArchive& rewrite = after->shard(victim);
    EXPECT_TRUE(rewrite.SharesDictionary(*current));
    EXPECT_EQ(after->shard_dictionary(victim), pass == 0 ? 1u : 0u);
    const auto sealed = RlzArchive::Build(docs, current);
    EXPECT_EQ(rewrite.SerializeShard(), sealed->SerializeShard());

    // The rewrite's bytes replace the victim's; the retired dictionary
    // is counted while a shard binds to it, and not after.
    uint64_t want = stored_before - old_shard.payload_bytes() -
                    old_shard.doc_map().serialized_bytes() +
                    rewrite.payload_bytes() +
                    rewrite.doc_map().serialized_bytes();
    if (pass == 1) want -= retired->size();
    EXPECT_EQ(after->stored_bytes(), want) << "pass " << pass;
    EXPECT_EQ(after->append_dictionaries().size(), pass == 0 ? 2u : 1u);
    // The compaction's checkpoint dropped the retired dictionary's file
    // with its last binding.
    EXPECT_EQ(DictFiles(dir).size(), pass == 0 ? 2u : 1u);
  }
  auto none = store->CompactOnce();
  ASSERT_TRUE(none.ok());
  EXPECT_FALSE(none->compacted);

  // The documents are unchanged, and so they are after a reopen.
  auto reopened = ShardedStore::OpenDurable(dir);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  const size_t built = collection.num_docs();
  std::string got;
  for (const ShardedStore* check : {store.get(), reopened->get()}) {
    ASSERT_EQ(check->num_docs(), built + next);
    for (size_t i = 0; i < next; ++i) {
      ASSERT_TRUE(check->Get(built + i, &got).ok());
      EXPECT_EQ(got, drifted[i]) << i;
    }
  }
  EXPECT_EQ((*reopened)->epoch()->stored_bytes(),
            store->epoch()->stored_bytes());
  std::filesystem::remove_all(dir);
}

TEST(LiveStoreTest, CompactionOfFullyDeletedShardYieldsEmptyRewrite) {
  const Collection collection = TestCollection(1 << 17, 101);
  ShardedStoreOptions options;
  options.num_shards = 2;
  options.dict_bytes = 1 << 15;
  options.live.compact_tombstone_fraction = 0.5;
  auto store = ShardedStore::Build(collection, options);
  const size_t shard0_docs = store->router_snapshot()->start(1);
  for (size_t id = 0; id < shard0_docs; ++id) {
    ASSERT_TRUE(store->Delete(id).ok());
  }
  auto report = store->CompactOnce();
  ASSERT_TRUE(report.ok());
  ASSERT_TRUE(report.value().compacted);
  EXPECT_EQ(report.value().live_docs, 0u);
  EXPECT_EQ(report.value().dead_docs, shard0_docs);
  // Ids stay allocated and tombstoned; the rest of the corpus is intact.
  std::string doc;
  EXPECT_EQ(store->Get(0, &doc).code(), StatusCode::kNotFound);
  ASSERT_TRUE(store->Get(shard0_docs, &doc).ok());
  EXPECT_EQ(doc, collection.doc(shard0_docs));
}

// ---------------------------------------------------------------------------
// Persistence (the manifest round-trips a live epoch)

TEST(LiveStoreTest, SaveOpenRoundTripsLiveEpoch) {
  const Collection collection = TestCollection(1 << 18, 111);
  auto store = SmallLiveStore(collection);
  const size_t built = store->num_docs();

  // A genuinely live state: a sealed extra shard, deletes in both a
  // sealed shard and the open tail, and unsealed tail documents.
  const Collection extra = TestCollection(1 << 17, 112);
  ASSERT_GE(extra.num_docs(), 4u);
  size_t i = 0;
  for (; i < extra.num_docs() / 2; ++i) {
    ASSERT_TRUE(store->Append(extra.doc(i)).ok());
  }
  ASSERT_TRUE(store->SealTail().ok());
  for (; i < extra.num_docs(); ++i) {
    ASSERT_TRUE(store->Append(extra.doc(i)).ok());
  }
  ASSERT_TRUE(store->Delete(2).ok());                      // sealed shard
  ASSERT_TRUE(store->Delete(store->num_docs() - 1).ok());  // open tail

  const std::string path = TempPath("live_roundtrip.sharded");
  ASSERT_TRUE(store->Save(path).ok());
  auto reopened_or = ShardedStore::Open(path);
  ASSERT_TRUE(reopened_or.ok()) << reopened_or.status().ToString();
  auto reopened = std::move(reopened_or).value();

  EXPECT_EQ(reopened->num_docs(), store->num_docs());
  EXPECT_EQ(reopened->num_shards(), store->num_shards());
  EXPECT_EQ(reopened->epoch_sequence(), store->epoch_sequence());
  EXPECT_EQ(reopened->epoch()->deleted_docs(),
            store->epoch()->deleted_docs());
  std::string expected;
  std::string actual;
  for (size_t id = 0; id < store->num_docs(); ++id) {
    const Status original = store->Get(id, &expected);
    const Status restored = reopened->Get(id, &actual);
    ASSERT_EQ(original.code(), restored.code()) << "id " << id;
    if (original.ok()) {
      EXPECT_EQ(actual, expected) << "id " << id;
    }
  }

  // The reopened store is still live: appends, deletes, and seals work.
  auto id = reopened->Append("appended after reopen");
  ASSERT_TRUE(id.ok()) << id.status().ToString();
  ASSERT_TRUE(reopened->Get(id.value(), &actual).ok());
  EXPECT_EQ(actual, "appended after reopen");
  ASSERT_TRUE(reopened->SealTail().ok());
  ASSERT_TRUE(reopened->Get(id.value(), &actual).ok());
  EXPECT_EQ(actual, "appended after reopen");
  (void)built;
}

TEST(LiveStoreTest, WritableOpenBuildsNoShardSuffixArrays) {
  const Collection collection = TestCollection(1 << 18, 116);
  auto store = SmallLiveStore(collection);
  const Collection extra = TestCollection(1 << 17, 117);
  for (size_t i = 0; i < extra.num_docs(); ++i) {
    ASSERT_TRUE(store->Append(extra.doc(i)).ok());
    if (i == extra.num_docs() / 2) {
      ASSERT_TRUE(store->SealTail().ok());
    }
  }
  const std::string path = TempPath("live_writable_open.sharded");
  ASSERT_TRUE(store->Save(path).ok());
  auto reopened_or = ShardedStore::Open(path);
  ASSERT_TRUE(reopened_or.ok()) << reopened_or.status().ToString();
  auto reopened = std::move(reopened_or).value();
  // The one suffix array is the append dictionary's: the shard sealed
  // from the tail shares that very object, and no other shard has one.
  const auto epoch = reopened->epoch();
  EXPECT_TRUE(epoch->append_dictionary().has_matcher());
  int shared = 0;
  for (int s = 0; s < epoch->num_shards(); ++s) {
    if (epoch->shard(s).SharesDictionary(epoch->append_dictionary())) {
      ++shared;
      continue;
    }
    EXPECT_FALSE(epoch->shard(s).dictionary().has_matcher()) << s;
  }
  EXPECT_EQ(shared, 1);

  // Still fully writable: appends, a seal of the restored raw tail plus
  // the new document, and a compaction of a tombstone-heavy shard.
  std::vector<std::string> expected(store->num_docs());
  for (size_t id = 0; id < expected.size(); ++id) {
    ASSERT_TRUE(store->Get(id, &expected[id]).ok());
  }
  auto id = reopened->Append("appended after a writable open");
  ASSERT_TRUE(id.ok()) << id.status().ToString();
  expected.push_back("appended after a writable open");
  ASSERT_TRUE(reopened->SealTail().ok());
  EXPECT_EQ(reopened->epoch()->tail_docs(), 0u);
  const size_t shard0_docs = reopened->starts(1);
  for (size_t d = 0; d < shard0_docs; ++d) {
    ASSERT_TRUE(reopened->Delete(d).ok());
  }
  auto report = reopened->CompactOnce();
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_TRUE(report->compacted);
  EXPECT_EQ(report->shard, 0);

  std::string doc;
  for (size_t d = 0; d < expected.size(); ++d) {
    if (d < shard0_docs) {
      EXPECT_EQ(reopened->Get(d, &doc).code(), StatusCode::kNotFound) << d;
      continue;
    }
    ASSERT_TRUE(reopened->Get(d, &doc).ok()) << d;
    EXPECT_EQ(doc, expected[d]) << d;
  }
}

TEST(LiveStoreTest, ServingOnlyOpenDisablesAppends) {
  const Collection collection = TestCollection(1 << 17, 121);
  auto store = SmallLiveStore(collection);
  ASSERT_TRUE(store->Append("tail doc").ok());
  const std::string path = TempPath("live_serving_only.sharded");
  ASSERT_TRUE(store->Save(path).ok());

  OpenOptions options;
  options.build_suffix_array = false;
  auto reopened_or = ShardedStore::Open(path, options);
  ASSERT_TRUE(reopened_or.ok()) << reopened_or.status().ToString();
  auto reopened = std::move(reopened_or).value();

  // Serving works — including the raw tail doc — but mutation is gated.
  std::string doc;
  ASSERT_TRUE(reopened->Get(0, &doc).ok());
  EXPECT_EQ(doc, collection.doc(0));
  ASSERT_TRUE(reopened->Get(collection.num_docs(), &doc).ok());
  EXPECT_EQ(doc, "tail doc");
  EXPECT_EQ(reopened->Append("nope").status().code(),
            StatusCode::kInvalidArgument);

  // Save from a serving-only open still preserves the append dictionary,
  // so a later full open is appendable again.
  const std::string path2 = TempPath("live_serving_only2.sharded");
  ASSERT_TRUE(reopened->Save(path2).ok());
  auto full_or = ShardedStore::Open(path2);
  ASSERT_TRUE(full_or.ok());
  EXPECT_TRUE(full_or.value()->Append("yes").ok());
}

TEST(LiveStoreTest, ServingOnlyOpenRejectsSeal) {
  // A serving-only open builds no suffix array for the append dictionary,
  // so its raw tail cannot be encoded: SealTail fails as Append does and
  // publishes nothing.
  const Collection collection = TestCollection(1 << 17, 122);
  auto store = SmallLiveStore(collection);
  ASSERT_TRUE(store->Append("tail doc 0").ok());
  ASSERT_TRUE(store->Append("tail doc 1").ok());
  const std::string path = TempPath("live_serving_only_seal.sharded");
  ASSERT_TRUE(store->Save(path).ok());

  OpenOptions options;
  options.build_suffix_array = false;
  auto reopened_or = ShardedStore::Open(path, options);
  ASSERT_TRUE(reopened_or.ok()) << reopened_or.status().ToString();
  auto reopened = std::move(reopened_or).value();
  const std::shared_ptr<const CorpusEpoch> before = reopened->epoch();

  EXPECT_EQ(reopened->SealTail().code(), StatusCode::kInvalidArgument);
  const std::shared_ptr<const CorpusEpoch> after = reopened->epoch();
  EXPECT_EQ(after, before);
  EXPECT_EQ(after->num_shards(), store->num_shards());
  EXPECT_EQ(after->tail_docs(), 2u);
  std::string doc;
  ASSERT_TRUE(reopened->Get(collection.num_docs() + 1, &doc).ok());
  EXPECT_EQ(doc, "tail doc 1");
}

TEST(LiveStoreTest, SealedTailTombstonesSurviveManifestRoundTrip) {
  // Regression: the tail tombstone bitmap is lazily sized to the tail
  // length at its last delete. Sealing used to carry the narrow bitmap
  // into the sealed shard, and a later delete in that shard copied it at
  // the narrow width — Bitmap::Set past size() made CountSet() and the
  // serialized index list disagree, corrupting every manifest written
  // afterwards.
  const Collection collection = TestCollection(1 << 17, 141);
  auto store = SmallLiveStore(collection);
  const size_t base = store->num_docs();
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(store->Append("tail doc " + std::to_string(i)).ok());
  }
  ASSERT_TRUE(store->Delete(base).ok());  // bitmap now sized to tail pos 0
  ASSERT_TRUE(store->SealTail().ok());
  ASSERT_TRUE(store->Delete(base + 3).ok());  // beyond the narrow bitmap

  const std::string path = TempPath("live_sealed_tombstones.sharded");
  ASSERT_TRUE(store->Save(path).ok());
  auto reopened_or = ShardedStore::Open(path);
  ASSERT_TRUE(reopened_or.ok()) << reopened_or.status().ToString();
  auto reopened = std::move(reopened_or).value();
  std::string doc;
  EXPECT_EQ(reopened->Get(base, &doc).code(), StatusCode::kNotFound);
  EXPECT_EQ(reopened->Get(base + 3, &doc).code(), StatusCode::kNotFound);
  ASSERT_TRUE(reopened->Get(base + 1, &doc).ok());
  EXPECT_EQ(doc, "tail doc 1");
  ASSERT_TRUE(reopened->Get(base + 2, &doc).ok());
  EXPECT_EQ(doc, "tail doc 2");
}

// ---------------------------------------------------------------------------
// Durable (WAL'd) stores

TEST(LiveStoreTest, AckedAppendSurvivesReopenWithoutSave) {
  // The durability contract from the store's side: once Append returns
  // OK on a durable store, the document survives a reopen with no Save,
  // no Checkpoint, and no clean shutdown protocol — recovery replays it
  // from the WAL.
  const Collection collection = TestCollection(1 << 17, 151);
  const std::string dir = TempPath("live_durable_dir");
  std::filesystem::remove_all(dir);
  size_t base = 0;
  {
    auto store = SmallLiveStore(collection);
    base = store->num_docs();
    ASSERT_TRUE(store->MakeDurable(dir).ok());
    EXPECT_TRUE(store->durable());
    ASSERT_TRUE(store->Append("acked and durable").ok());
    ASSERT_TRUE(store->Delete(0).ok());
  }
  ShardedStore::RecoveryReport report;
  auto reopened_or = ShardedStore::OpenDurable(dir, {}, {}, nullptr, &report);
  ASSERT_TRUE(reopened_or.ok()) << reopened_or.status().ToString();
  auto reopened = std::move(reopened_or).value();
  EXPECT_EQ(report.replayed_records, 2u);
  std::string doc;
  ASSERT_TRUE(reopened->Get(base, &doc).ok());
  EXPECT_EQ(doc, "acked and durable");
  EXPECT_EQ(reopened->Get(0, &doc).code(), StatusCode::kNotFound);
}

TEST(LiveStoreTest, PlainSaveOpenStoresStayNonDurable) {
  // Pre-WAL persistence is untouched by the durability layer: a plain
  // Save/Open round trip yields a live, writable, non-durable store that
  // can still opt into a WAL afterwards.
  const Collection collection = TestCollection(1 << 17, 161);
  auto store = SmallLiveStore(collection);
  const std::string path = TempPath("live_non_durable.sharded");
  ASSERT_TRUE(store->Save(path).ok());

  auto reopened_or = ShardedStore::Open(path);
  ASSERT_TRUE(reopened_or.ok()) << reopened_or.status().ToString();
  auto reopened = std::move(reopened_or).value();
  EXPECT_FALSE(reopened->durable());
  EXPECT_FALSE(reopened->read_only());
  EXPECT_EQ(reopened->Checkpoint().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(reopened->SyncWal().code(), StatusCode::kInvalidArgument);
  ASSERT_TRUE(reopened->Append("still live").ok());

  const std::string dir = TempPath("live_upgraded_dir");
  std::filesystem::remove_all(dir);
  ASSERT_TRUE(reopened->MakeDurable(dir).ok());
  EXPECT_TRUE(reopened->durable());
  auto durable_or = ShardedStore::OpenDurable(dir);
  ASSERT_TRUE(durable_or.ok()) << durable_or.status().ToString();
  std::string doc;
  ASSERT_TRUE(
      durable_or.value()->Get(collection.num_docs(), &doc).ok());
  EXPECT_EQ(doc, "still live");
}

// ---------------------------------------------------------------------------
// DocService integration: live routing + cache invalidation

TEST(LiveStoreTest, ServiceInvalidatesCacheOnDelete) {
  const Collection collection = TestCollection(1 << 17, 141);
  auto store = SmallLiveStore(collection);
  DocServiceOptions options;
  options.num_threads = 2;
  DocService service(store.get(), options);

  // Warm the cache, then delete: the eviction hook must erase the entry
  // and subsequent requests must see NotFound, not stale cached bytes.
  const size_t victim = 1;
  GetResult warm = service.Get(victim).get();
  ASSERT_TRUE(warm.ok());
  EXPECT_EQ(*warm.text, collection.doc(victim));
  ASSERT_TRUE(store->Delete(victim).ok());
  EXPECT_GE(service.Stats().cache.erased, 1u);
  GetResult after = service.Get(victim).get();
  EXPECT_EQ(after.status.code(), StatusCode::kNotFound);

  // Appended documents are servable through the same service without any
  // reconstruction — the router snapshot refreshes per submission.
  auto id = store->Append("live append through the service");
  ASSERT_TRUE(id.ok());
  GetResult appended = service.Get(id.value()).get();
  ASSERT_TRUE(appended.ok());
  EXPECT_EQ(*appended.text, "live append through the service");
}

// ---------------------------------------------------------------------------
// Concurrency regression suite (run under TSan in CI)

// Readers pin epochs while appenders, deleters, and a CompactOnce loop
// publish new ones. Invariant: against a pinned epoch, every id
// either decodes to exactly its expected bytes or is NotFound-because-
// tombstoned *in that epoch* — never torn bytes, never a transient error.
TEST(LiveStoreTest, ConcurrentReadersAppsDeletesCompactions) {
  const Collection collection = TestCollection(1 << 18, 151);
  ShardedStoreOptions store_options;
  store_options.num_shards = 2;
  store_options.dict_bytes = 1 << 16;
  store_options.live.tail_seal_bytes = 1 << 15;  // seals happen mid-test
  store_options.live.compact_tombstone_fraction = 0.05;
  auto store = ShardedStore::Build(collection, store_options);
  const size_t built = store->num_docs();

  const Collection extra = TestCollection(1 << 17, 152);
  // Expected bytes for every id that will ever exist.
  std::vector<std::string> expected;
  expected.reserve(built + extra.num_docs());
  for (size_t i = 0; i < built; ++i) expected.emplace_back(collection.doc(i));
  for (size_t i = 0; i < extra.num_docs(); ++i) {
    expected.emplace_back(extra.doc(i));
  }

  std::atomic<bool> stop_compactor{false};
  std::thread compactor = CompactInLoop(store.get(), &stop_compactor);
  std::atomic<bool> stop{false};
  std::atomic<size_t> reads{0};

  std::thread appender([&] {
    for (size_t i = 0; i < extra.num_docs(); ++i) {
      auto id = store->Append(extra.doc(i));
      ASSERT_TRUE(id.ok());
      ASSERT_EQ(id.value(), built + i);
    }
  });
  std::thread deleter([&] {
    // Delete every 5th built doc — enough to trip the compactor's
    // tombstone trigger repeatedly while readers run.
    for (size_t id = 0; id < built; id += 5) {
      const Status status = store->Delete(id);
      ASSERT_TRUE(status.ok()) << status.ToString();
    }
  });

  std::vector<std::thread> readers;
  for (int t = 0; t < 8; ++t) {
    readers.emplace_back([&, t] {
      Rng rng(1000 + t);
      std::string doc;
      DecodeScratch scratch;
      while (!stop.load(std::memory_order_acquire)) {
        std::shared_ptr<const CorpusEpoch> epoch = store->epoch();
        for (int k = 0; k < 32; ++k) {
          const size_t id = rng.Uniform(epoch->num_docs());
          const Status status = epoch->Get(id, &doc, &scratch);
          if (epoch->IsDeleted(id)) {
            ASSERT_EQ(status.code(), StatusCode::kNotFound);
          } else {
            ASSERT_TRUE(status.ok()) << status.ToString();
            ASSERT_EQ(doc, expected[id]) << "id " << id << " epoch "
                                         << epoch->sequence();
          }
          reads.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }

  appender.join();
  deleter.join();
  // Let readers observe the final state (post-append, post-delete,
  // possibly mid-compaction) before stopping.
  while (reads.load(std::memory_order_acquire) < 20000) {
    std::this_thread::yield();
  }
  stop.store(true, std::memory_order_release);
  for (std::thread& reader : readers) reader.join();
  stop_compactor.store(true, std::memory_order_release);
  compactor.join();

  // Final consistency: every id answers correctly in the final epoch.
  std::shared_ptr<const CorpusEpoch> final_epoch = store->epoch();
  ASSERT_EQ(final_epoch->num_docs(), built + extra.num_docs());
  std::string doc;
  for (size_t id = 0; id < final_epoch->num_docs(); ++id) {
    if (id < built && id % 5 == 0) {
      EXPECT_EQ(final_epoch->Get(id, &doc, nullptr).code(),
                StatusCode::kNotFound);
    } else {
      ASSERT_TRUE(final_epoch->Get(id, &doc, nullptr).ok());
      EXPECT_EQ(doc, expected[id]);
    }
  }
}

// Epochs share the tail's chunks with the writer, which fills slots past
// every published count. Readers pin epochs in the middle of a chunk and
// re-read every tail id of each while the writer fills that chunk, seals,
// and starts new chunks: a pinned epoch must keep its num_docs() and
// serve byte-identical documents throughout.
TEST(LiveStoreTest, ConcurrentPinnedTailEpochsAcrossChunksAndSeals) {
  const Collection collection = TestCollection(1 << 17, 171);
  auto store = SmallLiveStore(collection);  // seals only when told
  const size_t built = store->num_docs();
  constexpr size_t kChunk = TailSegment::kChunkDocs;
  std::vector<std::string> expected;
  for (size_t i = 0; i < built; ++i) expected.emplace_back(collection.doc(i));
  for (size_t i = 0; i < 5 * kChunk; ++i) {
    expected.push_back(
        "tail doc " + std::to_string(i) + " " +
        std::string(64 + i % 97, static_cast<char>('a' + i % 26)));
  }
  size_t next = built;
  auto append = [&](size_t count) {
    for (size_t k = 0; k < count; ++k) {
      auto id = store->Append(expected[next]);
      ASSERT_TRUE(id.ok()) << id.status().ToString();
      ASSERT_EQ(*id, next);
      ++next;
    }
  };
  append(kChunk / 2);
  const std::shared_ptr<const CorpusEpoch> mid_chunk = store->epoch();
  ASSERT_EQ(mid_chunk->tail_docs(), kChunk / 2);

  struct Pinned {
    std::shared_ptr<const CorpusEpoch> epoch;
    size_t num_docs;
  };
  // Every tail id of `pinned` still serves its bytes, and the epoch still
  // counts what it counted when pinned.
  auto check = [&](const Pinned& pinned, std::string* doc) {
    ASSERT_EQ(pinned.epoch->num_docs(), pinned.num_docs);
    for (size_t id = pinned.epoch->sealed_docs(); id < pinned.num_docs; ++id) {
      ASSERT_TRUE(pinned.epoch->Get(id, doc, nullptr).ok()) << id;
      ASSERT_EQ(*doc, expected[id]) << "id " << id << " epoch "
                                    << pinned.epoch->sequence();
    }
  };

  std::atomic<bool> stop{false};
  std::vector<std::thread> readers;
  for (int t = 0; t < 4; ++t) {
    readers.emplace_back([&] {
      std::vector<Pinned> pinned = {{mid_chunk, mid_chunk->num_docs()}};
      std::string doc;
      while (!stop.load(std::memory_order_acquire)) {
        auto epoch = store->epoch();
        const size_t num_docs = epoch->num_docs();
        if (pinned.size() < 32) pinned.push_back({std::move(epoch), num_docs});
        for (const Pinned& p : pinned) check(p, &doc);
      }
      for (const Pinned& p : pinned) check(p, &doc);
    });
  }

  // Fill the pinned chunk and the next, seal, start a fresh chunk list,
  // cross a chunk boundary in it, seal again, and leave half a chunk open.
  append(kChunk + kChunk / 2 + 3);
  ASSERT_TRUE(store->SealTail().ok());
  append(kChunk + 5);
  ASSERT_TRUE(store->SealTail().ok());
  append(kChunk / 2);
  stop.store(true, std::memory_order_release);
  for (std::thread& reader : readers) reader.join();

  std::string doc;
  check({mid_chunk, built + kChunk / 2}, &doc);
  const auto last = store->epoch();
  ASSERT_EQ(last->num_docs(), next);
  check({last, next}, &doc);
}

// The service-level version: batched readers through DocService (decode
// cache on) against concurrent appends, deletes, and compaction. After a
// delete is published, no request may serve the stale cached bytes.
TEST(LiveStoreTest, ConcurrentServiceReadsWithMutations) {
  const Collection collection = TestCollection(1 << 18, 161);
  ShardedStoreOptions store_options;
  store_options.num_shards = 2;
  store_options.dict_bytes = 1 << 16;
  store_options.live.tail_seal_bytes = 1 << 15;
  store_options.live.compact_tombstone_fraction = 0.05;
  auto store = ShardedStore::Build(collection, store_options);
  const size_t built = store->num_docs();

  DocServiceOptions service_options;
  service_options.num_threads = 4;
  DocService service(store.get(), service_options);
  std::atomic<bool> stop_compactor{false};
  std::thread compactor = CompactInLoop(store.get(), &stop_compactor);

  const Collection extra = TestCollection(1 << 16, 162);
  std::vector<std::string> expected;
  for (size_t i = 0; i < built; ++i) expected.emplace_back(collection.doc(i));
  for (size_t i = 0; i < extra.num_docs(); ++i) {
    expected.emplace_back(extra.doc(i));
  }
  // Deleted ids flip their flag *before* Delete is issued, so a reader
  // that later observes the doc can only have raced the publish (allowed:
  // it decoded from an earlier epoch) — but once deleted_done is set,
  // every id in deleted_set must be NotFound.
  std::vector<std::atomic<bool>> deleting(built);
  for (auto& flag : deleting) flag.store(false);

  std::thread appender([&] {
    for (size_t i = 0; i < extra.num_docs(); ++i) {
      ASSERT_TRUE(store->Append(extra.doc(i)).ok());
    }
  });
  std::thread deleter([&] {
    for (size_t id = 0; id < built; id += 7) {
      deleting[id].store(true, std::memory_order_release);
      ASSERT_TRUE(store->Delete(id).ok());
    }
  });

  std::vector<std::thread> clients;
  for (int t = 0; t < 4; ++t) {
    clients.emplace_back([&, t] {
      Rng rng(2000 + t);
      ServeBatch batch;
      std::vector<size_t> ids(16);
      for (int round = 0; round < 200; ++round) {
        const size_t limit = store->num_docs();
        for (size_t& id : ids) id = rng.Uniform(limit);
        service.SubmitBatch(ids, &batch);
        const std::vector<GetResult>& results = batch.Wait();
        for (size_t i = 0; i < ids.size(); ++i) {
          const size_t id = ids[i];
          if (results[i].ok()) {
            // Served bytes must be the id's true bytes — a delete racing
            // in is fine, but the text can never be torn or swapped.
            ASSERT_EQ(*results[i].text, expected[id]) << "id " << id;
          } else {
            // NotFound requires the delete to have at least started.
            ASSERT_EQ(results[i].status.code(), StatusCode::kNotFound);
            ASSERT_TRUE(id < built &&
                        deleting[id].load(std::memory_order_acquire))
                << "id " << id;
          }
        }
      }
    });
  }

  appender.join();
  deleter.join();
  for (std::thread& client : clients) client.join();
  stop_compactor.store(true, std::memory_order_release);
  compactor.join();
  service.Drain();

  // Deletes are fully published: the service must answer NotFound for
  // every deleted id (stale cache entries were erased by the hook or the
  // post-insert recheck).
  for (size_t id = 0; id < built; id += 7) {
    GetResult result = service.Get(id).get();
    EXPECT_EQ(result.status.code(), StatusCode::kNotFound) << "id " << id;
  }
  EXPECT_GT(service.Stats().requests, 0u);
}

}  // namespace
}  // namespace rlz
