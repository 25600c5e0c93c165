// Serving-layer tests (DESIGN.md §6): the sharded LRU decode cache, the
// ShardedStore router, the DocService executor, and — critically — the
// concurrency regression suite. Every *Concurrent* test here is also run
// under ThreadSanitizer by the `tsan` CI job (ctest label: concurrency);
// the BlockedArchive stress reproduces the historical data race where two
// threads hitting different blocks corrupted the single-block cache.

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/dictionary.h"
#include "core/rlz_archive.h"
#include "corpus/generator.h"
#include "gated_archive.h"
#include "io/sim_disk.h"
#include "serve/doc_service.h"
#include "serve/sharded_store.h"
#include "store/blocked_archive.h"
#include "store/decode_scratch.h"
#include "util/lru_cache.h"
#include "util/random.h"
#include "zip/compressor.h"

namespace rlz {
namespace {

Collection TestCollection(size_t target_bytes, uint64_t seed) {
  CorpusOptions options;
  options.target_bytes = target_bytes;
  options.seed = seed;
  return GenerateCorpus(options).collection;
}

// ---------------------------------------------------------------------------
// LruCache

TEST(LruCacheTest, MissThenHit) {
  LruCache cache(1 << 20, 4);
  EXPECT_EQ(cache.Get(7), nullptr);
  auto resident = cache.Insert(7, "payload");
  ASSERT_NE(resident, nullptr);
  EXPECT_EQ(*resident, "payload");
  auto hit = cache.Get(7);
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit.get(), resident.get());  // same resident copy
  const LruCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_EQ(stats.bytes, 7u + LruCache::kEntryOverheadBytes);
}

TEST(LruCacheTest, EvictsLeastRecentlyUsed) {
  // One shard so the LRU order is global and deterministic. Each 4-byte
  // value charges 4 + kEntryOverheadBytes; the capacity fits two entries
  // but not three.
  const uint64_t entry = 4 + LruCache::kEntryOverheadBytes;
  LruCache cache(2 * entry + entry / 2, 1);
  cache.Insert(1, "aaaa");
  cache.Insert(2, "bbbb");
  ASSERT_NE(cache.Get(1), nullptr);  // touch 1: 2 is now least recent
  cache.Insert(3, "cccc");           // over capacity: evicts 2
  EXPECT_EQ(cache.Get(2), nullptr);
  EXPECT_NE(cache.Get(1), nullptr);
  EXPECT_NE(cache.Get(3), nullptr);
  EXPECT_EQ(cache.stats().evictions, 1u);
}

TEST(LruCacheTest, EmptyValuesStayBoundedAndEvictable) {
  // Zero-byte values still pay the per-entry charge, so a flood of them
  // cannot grow the index past the byte budget.
  LruCache cache(4 * LruCache::kEntryOverheadBytes, 1);
  for (uint64_t key = 0; key < 100; ++key) cache.Insert(key, "");
  const LruCache::Stats stats = cache.stats();
  EXPECT_LE(stats.entries, 4u);
  EXPECT_GE(stats.evictions, 96u);
}

TEST(LruCacheTest, ZeroCapacityDisablesStorage) {
  LruCache cache(0, 4);
  auto value = cache.Insert(1, "text");
  ASSERT_NE(value, nullptr);  // caller still gets the wrapped value
  EXPECT_EQ(*value, "text");
  EXPECT_EQ(cache.Get(1), nullptr);
  EXPECT_EQ(cache.stats().entries, 0u);
}

TEST(LruCacheTest, OversizedValueIsReturnedButNotCached) {
  LruCache cache(LruCache::kEntryOverheadBytes + 8, 1);
  auto value = cache.Insert(1, std::string(100, 'x'));
  ASSERT_NE(value, nullptr);
  EXPECT_EQ(value->size(), 100u);
  EXPECT_EQ(cache.Get(1), nullptr);
  EXPECT_EQ(cache.stats().bytes, 0u);
}

TEST(LruCacheTest, InsertOnExistingKeyKeepsResidentValue) {
  // Immutable-archive semantics: racing decoders converge on one copy.
  LruCache cache(1 << 10, 1);
  auto first = cache.Insert(5, "first");
  auto second = cache.Insert(5, "second");
  EXPECT_EQ(second.get(), first.get());
  EXPECT_EQ(*cache.Get(5), "first");
  EXPECT_EQ(cache.stats().entries, 1u);
}

TEST(LruCacheTest, EraseInvalidatesAndCountsSeparately) {
  // The live-corpus invalidation hook (DESIGN.md §11): Delete retires a
  // key outright, distinct from capacity eviction.
  LruCache cache(1 << 10, 1);
  auto resident = cache.Insert(9, "doomed");
  EXPECT_TRUE(cache.Erase(9));
  EXPECT_EQ(cache.Get(9), nullptr);
  EXPECT_FALSE(cache.Erase(9));  // already gone
  const LruCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.erased, 1u);
  EXPECT_EQ(stats.evictions, 0u);  // not a capacity eviction
  EXPECT_EQ(stats.entries, 0u);
  EXPECT_EQ(stats.bytes, 0u);  // the charge was released
  // A reader that grabbed the value before the erase keeps its bytes.
  EXPECT_EQ(*resident, "doomed");
  // The key is insertable again (a *new* document would get a new id in
  // the live store, but the cache itself does not care).
  cache.Insert(9, "fresh");
  EXPECT_EQ(*cache.Get(9), "fresh");
}

TEST(LruCacheTest, ClearDropsEntriesKeepsCounters) {
  LruCache cache(1 << 10, 2);
  cache.Insert(1, "a");
  cache.Get(1);
  cache.Clear();
  EXPECT_EQ(cache.Get(1), nullptr);
  const LruCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.entries, 0u);
  EXPECT_EQ(stats.bytes, 0u);
  EXPECT_EQ(stats.hits, 1u);
}

TEST(LruCacheTest, ConcurrentMixedGetInsertKeepsValuesIntact) {
  // 8 threads hammer a small cache with constant churn; whatever a Get or
  // Insert returns must be the canonical value for that key.
  LruCache cache(4 << 10, 4);
  constexpr int kThreads = 8;
  constexpr int kIters = 4000;
  constexpr uint64_t kKeys = 64;
  auto canonical = [](uint64_t key) {
    return std::string(16 + key % 48, static_cast<char>('a' + key % 26));
  };
  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t]() {
      Rng rng(1000 + t);
      for (int i = 0; i < kIters; ++i) {
        const uint64_t key = rng.Next() % kKeys;
        std::shared_ptr<const std::string> value = cache.Get(key);
        if (value == nullptr) value = cache.Insert(key, canonical(key));
        if (*value != canonical(key)) mismatches.fetch_add(1);
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(mismatches.load(), 0);
  const LruCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.hits + stats.misses,
            static_cast<uint64_t>(kThreads) * kIters);
}

// ---------------------------------------------------------------------------
// ShardedStore

TEST(ShardedStoreTest, RoundTripAcrossShardCounts) {
  const Collection collection = TestCollection(1 << 20, 71);
  for (int shards : {1, 3, 8}) {
    ShardedStoreOptions options;
    options.num_shards = shards;
    options.dict_bytes = collection.size_bytes() / 50;
    auto store = ShardedStore::Build(collection, options);
    ASSERT_EQ(store->num_shards(), shards);
    ASSERT_EQ(store->num_docs(), collection.num_docs());
    std::string doc;
    for (size_t i = 0; i < collection.num_docs(); ++i) {
      ASSERT_TRUE(store->Get(i, &doc).ok()) << "doc " << i;
      ASSERT_EQ(doc, collection.doc(i)) << "doc " << i;
    }
  }
}

TEST(ShardedStoreTest, RouterBoundariesAndNonEmptyShards) {
  const Collection collection = TestCollection(1 << 20, 72);
  ShardedStoreOptions options;
  options.num_shards = 5;
  auto store = ShardedStore::Build(collection, options);
  ASSERT_EQ(store->num_shards(), 5);
  EXPECT_EQ(store->starts(0), 0u);
  EXPECT_EQ(store->starts(5), collection.num_docs());
  for (int s = 0; s < 5; ++s) {
    ASSERT_LT(store->starts(s), store->starts(s + 1)) << "empty shard " << s;
    EXPECT_EQ(store->shard_of(store->starts(s)), static_cast<size_t>(s));
    EXPECT_EQ(store->shard_of(store->starts(s + 1) - 1),
              static_cast<size_t>(s));
    EXPECT_EQ(store->shard(s).num_docs(),
              store->starts(s + 1) - store->starts(s));
  }
}

TEST(ShardedStoreTest, ShardCountClampedToDocs) {
  Collection tiny;
  tiny.Append("only one document");
  ShardedStoreOptions options;
  options.num_shards = 16;
  auto store = ShardedStore::Build(tiny, options);
  EXPECT_EQ(store->num_shards(), 1);
  std::string doc;
  ASSERT_TRUE(store->Get(0, &doc).ok());
  EXPECT_EQ(doc, "only one document");
}

TEST(ShardedStoreTest, GetRangeMatchesSubstring) {
  const Collection collection = TestCollection(1 << 19, 73);
  ShardedStoreOptions options;
  options.num_shards = 4;
  auto store = ShardedStore::Build(collection, options);
  Rng rng(99);
  std::string slice;
  for (int i = 0; i < 50; ++i) {
    const size_t id = rng.Next() % collection.num_docs();
    const std::string_view doc = collection.doc(id);
    const size_t offset = rng.Next() % (doc.size() + 1);
    const size_t length = rng.Next() % 300;
    ASSERT_TRUE(store->GetRange(id, offset, length, &slice).ok());
    const std::string_view expect =
        offset < doc.size() ? doc.substr(offset, length) : std::string_view();
    ASSERT_EQ(slice, expect);
  }
}

TEST(ShardedStoreTest, OutOfRangeAndName) {
  const Collection collection = TestCollection(1 << 18, 74);
  ShardedStoreOptions options;
  options.num_shards = 2;
  options.dict_bytes = collection.size_bytes() / 50;
  auto store = ShardedStore::Build(collection, options);
  std::string doc;
  EXPECT_FALSE(store->Get(collection.num_docs(), &doc).ok());
  EXPECT_EQ(store->name(), "sharded-rlz-ZV/2");
  EXPECT_GT(store->stored_bytes(), 0u);
  EXPECT_LT(store->stored_bytes(), collection.size_bytes());
}

TEST(ShardedStoreTest, ParallelBuildIsDeterministic) {
  // Build runs one pipeline worker per shard. Whatever the interleaving,
  // each shard must be the archive a serial RlzArchive::Build makes from
  // that shard's documents against the same dictionary: 1 KB samples of
  // the shard's own text, dict_bytes / num_shards in all.
  const Collection collection = TestCollection(1 << 19, 75);
  ShardedStoreOptions options;
  options.num_shards = 4;
  options.dict_bytes = 64 << 10;
  auto store = ShardedStore::Build(collection, options);
  ASSERT_EQ(store->num_shards(), 4);
  const std::shared_ptr<const ShardRouter> router = store->router_snapshot();
  for (int s = 0; s < store->num_shards(); ++s) {
    SCOPED_TRACE("shard " + std::to_string(s));
    Collection docs;
    const size_t end = router->start(static_cast<size_t>(s) + 1);
    for (size_t i = router->start(static_cast<size_t>(s)); i < end; ++i) {
      docs.Append(collection.doc(i));
    }
    RlzBuildOptions build_options;
    build_options.coding = options.coding;
    const auto serial = RlzArchive::Build(
        docs,
        DictionaryBuilder::BuildSampled(docs.data(), options.dict_bytes / 4,
                                        1024),
        build_options);
    EXPECT_EQ(store->shard(s).Serialize(), serial->Serialize());
  }
}

// ---------------------------------------------------------------------------
// DocService

TEST(DocServiceTest, GetReturnsEveryDocument) {
  const Collection collection = TestCollection(1 << 19, 81);
  ShardedStoreOptions store_options;
  store_options.num_shards = 2;
  auto store = ShardedStore::Build(collection, store_options);
  DocServiceOptions options;
  options.num_threads = 4;
  options.cache_bytes = 8 << 20;
  DocService service(store.get(), options);
  for (size_t i = 0; i < collection.num_docs(); ++i) {
    GetResult result = service.Get(i).get();
    ASSERT_TRUE(result.ok()) << result.status.ToString();
    ASSERT_EQ(*result.text, collection.doc(i));
  }
  const ServiceStats stats = service.Stats();
  EXPECT_EQ(stats.requests, collection.num_docs());
  EXPECT_EQ(stats.failures, 0u);
}

TEST(DocServiceTest, RepeatTrafficHitsTheCache) {
  const Collection collection = TestCollection(1 << 18, 82);
  ShardedStoreOptions store_options;
  store_options.num_shards = 2;
  auto store = ShardedStore::Build(collection, store_options);
  DocServiceOptions options;
  options.num_threads = 2;
  options.cache_bytes = 32 << 20;  // everything fits
  DocService service(store.get(), options);
  std::vector<size_t> ids(collection.num_docs());
  for (size_t i = 0; i < ids.size(); ++i) ids[i] = i;
  service.MultiGet(ids);
  const uint64_t misses_after_first = service.Stats().cache.misses;
  service.MultiGet(ids);
  const ServiceStats stats = service.Stats();
  EXPECT_EQ(stats.cache.misses, misses_after_first);  // second pass all hits
  EXPECT_GE(stats.cache.hits, ids.size());
  EXPECT_GT(stats.cache.hit_rate(), 0.4);
}

TEST(DocServiceTest, MultiGetIsPositional) {
  const Collection collection = TestCollection(1 << 18, 83);
  auto store = ShardedStore::Build(collection, {});
  DocService service(store.get(), {});
  const std::vector<size_t> ids = {3, 0, 3, collection.num_docs() - 1};
  std::vector<GetResult> results = service.MultiGet(ids);
  ASSERT_EQ(results.size(), ids.size());
  for (size_t i = 0; i < ids.size(); ++i) {
    ASSERT_TRUE(results[i].ok());
    EXPECT_EQ(*results[i].text, collection.doc(ids[i]));
  }
}

TEST(DocServiceTest, BadIdFailsWithoutPoisoningTheService) {
  const Collection collection = TestCollection(1 << 18, 84);
  auto store = ShardedStore::Build(collection, {});
  DocService service(store.get(), {});
  GetResult bad = service.Get(collection.num_docs() + 5).get();
  EXPECT_FALSE(bad.ok());
  GetResult good = service.Get(0).get();
  ASSERT_TRUE(good.ok());
  EXPECT_EQ(*good.text, collection.doc(0));
  const ServiceStats stats = service.Stats();
  EXPECT_EQ(stats.requests, 2u);
  EXPECT_EQ(stats.failures, 1u);
}

TEST(DocServiceTest, GetRangeCachedAndUncachedPaths) {
  const Collection collection = TestCollection(1 << 18, 85);
  auto store = ShardedStore::Build(collection, {});
  const std::string_view doc = collection.doc(1);
  const size_t offset = doc.size() / 3;

  DocServiceOptions uncached;
  uncached.cache_bytes = 0;
  DocService cold(store.get(), uncached);
  GetResult r1 = cold.GetRange(1, offset, 64).get();
  ASSERT_TRUE(r1.ok());
  EXPECT_EQ(*r1.text, doc.substr(offset, 64));

  DocService warm(store.get(), {});
  ASSERT_TRUE(warm.Get(1).get().ok());  // populate the cache
  GetResult r2 = warm.GetRange(1, offset, 64).get();
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(*r2.text, doc.substr(offset, 64));
  EXPECT_GE(warm.Stats().cache.hits, 1u);
  // Past-the-end range is an empty slice, not an error.
  GetResult r3 = warm.GetRange(1, doc.size() + 10, 8).get();
  ASSERT_TRUE(r3.ok());
  EXPECT_TRUE(r3.text->empty());
}

TEST(DocServiceTest, DrainWaitsForSubmittedWork) {
  const Collection collection = TestCollection(1 << 18, 86);
  auto store = ShardedStore::Build(collection, {});
  DocServiceOptions options;
  options.num_threads = 3;
  DocService service(store.get(), options);
  std::vector<std::future<GetResult>> futures;
  for (int round = 0; round < 3; ++round) {
    for (size_t i = 0; i < collection.num_docs(); ++i) {
      futures.push_back(service.Get(i));
    }
  }
  service.Drain();
  const ServiceStats stats = service.Stats();
  EXPECT_EQ(stats.requests, 3 * collection.num_docs());
  for (auto& f : futures) ASSERT_TRUE(f.get().ok());
  EXPECT_GT(stats.cpu_seconds, 0.0);
  // The busiest worker's CPU can never exceed all workers' CPU.
  EXPECT_LE(stats.critical_path_seconds, stats.cpu_seconds);
}

// ---------------------------------------------------------------------------
// Overload protection (DESIGN.md §14): the priority-class queue, weighted
// admission, load shedding, and deadline expiry.

TEST(RequestQueueTest, StrictPriorityPopOrder) {
  const size_t caps[kNumPriorities] = {8, 8, 8};
  BoundedRequestQueue queue(caps);
  ServeRequest request;
  // Enqueue in worst-case order: best-effort first, high last.
  request.id = 1;
  request.priority = RequestPriority::kBestEffort;
  ASSERT_TRUE(queue.TryPush(request));
  request.id = 2;
  request.priority = RequestPriority::kNormal;
  ASSERT_TRUE(queue.TryPush(request));
  request.id = 3;
  request.priority = RequestPriority::kHigh;
  ASSERT_TRUE(queue.TryPush(request));
  EXPECT_EQ(queue.size(), 3u);
  // Pops come back high, normal, best-effort regardless of arrival order.
  ServeRequest out;
  ASSERT_TRUE(queue.TryPop(&out));
  EXPECT_EQ(out.id, 3u);
  ASSERT_TRUE(queue.TryPop(&out));
  EXPECT_EQ(out.id, 2u);
  ASSERT_TRUE(queue.TryPop(&out));
  EXPECT_EQ(out.id, 1u);
  EXPECT_FALSE(queue.TryPop(&out));
}

TEST(RequestQueueTest, ClassCapsKeepHighHeadroom) {
  // Per-class rings: filling the best-effort (and normal) share leaves
  // the high-priority share untouched.
  const size_t caps[kNumPriorities] = {4, 2, 1};
  BoundedRequestQueue queue(caps);
  EXPECT_EQ(queue.capacity(RequestPriority::kHigh), 4u);
  EXPECT_EQ(queue.capacity(RequestPriority::kNormal), 2u);
  EXPECT_EQ(queue.capacity(RequestPriority::kBestEffort), 1u);
  ServeRequest request;
  request.priority = RequestPriority::kBestEffort;
  ASSERT_TRUE(queue.TryPush(request));
  EXPECT_FALSE(queue.HasRoom(RequestPriority::kBestEffort));
  EXPECT_FALSE(queue.TryPush(request));  // best-effort ring full: rejected
  request.priority = RequestPriority::kNormal;
  ASSERT_TRUE(queue.TryPush(request));
  ASSERT_TRUE(queue.TryPush(request));
  EXPECT_FALSE(queue.TryPush(request));  // normal ring full too
  // The high ring is unaffected by the bulk flood below it.
  EXPECT_TRUE(queue.HasRoom(RequestPriority::kHigh));
  request.priority = RequestPriority::kHigh;
  for (int i = 0; i < 4; ++i) ASSERT_TRUE(queue.TryPush(request));
  EXPECT_FALSE(queue.TryPush(request));
  EXPECT_EQ(queue.size(), 7u);
}

TEST(DocServiceTest, ExpiredDeadlineCompletesWithoutDecoding) {
  const Collection collection = TestCollection(1 << 18, 87);
  auto store = ShardedStore::Build(collection, {});
  DocService service(store.get(), {});
  // A deadline already in the past: every request must complete
  // kDeadlineExceeded at admission, with zero decode work charged.
  std::vector<BatchItem> items(8);
  for (size_t i = 0; i < items.size(); ++i) {
    items[i].id = i;
    items[i].deadline_ns = 1;  // epoch + 1ns: long expired
  }
  ServeBatch batch;
  service.SubmitBatch(items.data(), items.size(), &batch);
  const std::vector<GetResult>& results = batch.Wait();
  ASSERT_EQ(results.size(), items.size());
  for (const GetResult& result : results) {
    EXPECT_EQ(result.status.code(), StatusCode::kDeadlineExceeded);
  }
  const ServiceStats stats = service.Stats();
  EXPECT_EQ(stats.expired, items.size());
  // The cache is on, so any archive read would have missed it first.
  EXPECT_EQ(stats.cache.misses, 0u);
  // The service is not poisoned: a fresh request without a deadline works.
  GetResult good = service.Get(0).get();
  ASSERT_TRUE(good.ok());
  EXPECT_EQ(*good.text, collection.doc(0));
}

TEST(DocServiceTest, RetryAfterHintStaysBounded) {
  const Collection collection = TestCollection(1 << 18, 88);
  auto store = ShardedStore::Build(collection, {});
  DocService service(store.get(), {});
  // Idle service: no queue, so the estimate is zero and the hint sits at
  // its floor.
  EXPECT_EQ(service.EstimatedQueueDelayUs(), 0u);
  EXPECT_EQ(service.SuggestedRetryAfterMs(), 1u);
  // After traffic the EWMA is warm but the drained queue keeps the
  // estimate at zero; the hint stays within its documented [1ms, 1s].
  for (size_t i = 0; i < collection.num_docs(); ++i) {
    ASSERT_TRUE(service.Get(i).get().ok());
  }
  service.Drain();
  EXPECT_EQ(service.EstimatedQueueDelayUs(), 0u);
  const uint32_t hint = service.SuggestedRetryAfterMs();
  EXPECT_GE(hint, 1u);
  EXPECT_LE(hint, 1000u);
}

TEST(ConcurrencyTest, BestEffortShedsUnderSaturationHigherClassesServed) {
  // One worker, deep normal backlog: best-effort pushed past its class
  // share must shed (Unavailable, immediately) instead of queueing or
  // blocking the submitter, while every normal request is still served.
  const Collection collection = TestCollection(1 << 19, 94);
  auto store = ShardedStore::Build(collection, {});
  DocServiceOptions options;
  options.num_threads = 1;
  options.queue_depth = 256;  // best-effort share: 128
  options.cache_bytes = 0;    // every decode pays full price
  options.shed_queue_delay_us = 0;  // isolate the class-cap shed path
  DocService service(store.get(), options);
  const size_t num_docs = collection.num_docs();

  // Fill the normal ring with real work the lone worker must chew
  // through (strict priority: it drains normal before best-effort, so
  // the best-effort ring below cannot empty underneath us).
  std::vector<BatchItem> normal_items(512);
  for (size_t i = 0; i < normal_items.size(); ++i) {
    normal_items[i].id = i % num_docs;
  }
  ServeBatch normal_batch;
  service.SubmitBatch(normal_items.data(), normal_items.size(),
                      &normal_batch);

  // Now a best-effort flood larger than its 128-slot share. SubmitBatch
  // must return without blocking (sheds complete inline).
  std::vector<BatchItem> bulk_items(256);
  for (size_t i = 0; i < bulk_items.size(); ++i) {
    bulk_items[i].id = i % num_docs;
    bulk_items[i].priority = RequestPriority::kBestEffort;
  }
  ServeBatch bulk_batch;
  service.SubmitBatch(bulk_items.data(), bulk_items.size(), &bulk_batch);

  const std::vector<GetResult>& normal_results = normal_batch.Wait();
  const std::vector<GetResult>& bulk_results = bulk_batch.Wait();
  for (const GetResult& result : normal_results) {
    ASSERT_TRUE(result.ok()) << result.status.ToString();
  }
  size_t shed_seen = 0;
  for (size_t i = 0; i < bulk_results.size(); ++i) {
    const GetResult& result = bulk_results[i];
    if (result.ok()) {
      EXPECT_EQ(*result.text, collection.doc(bulk_items[i].id));
    } else {
      ASSERT_EQ(result.status.code(), StatusCode::kUnavailable)
          << result.status.ToString();
      ++shed_seen;
    }
  }
  EXPECT_GE(shed_seen, 1u);  // the flood exceeded the class share
  const ServiceStats stats = service.Stats();
  EXPECT_EQ(stats.shed, shed_seen);
  EXPECT_EQ(stats.expired, 0u);
}

// ---------------------------------------------------------------------------
// Concurrency regression suite (run under TSan by the `tsan` CI job).

// The historical BlockedArchive bug: Get mutated a single-block decode
// cache, so two threads resolving different blocks corrupted each other's
// documents (or crashed). Eight threads replay random ids and compare
// byte-for-byte against the source collection.
TEST(ConcurrencyTest, BlockedArchiveConcurrentGetsAreByteExact) {
  const Collection collection = TestCollection(1 << 20, 91);
  const BlockedArchive archive(collection, GetCompressor(CompressorId::kGzipx),
                               64 << 10);
  ASSERT_GT(archive.num_blocks(), 4u);  // the race needs distinct blocks
  constexpr int kThreads = 8;
  constexpr int kIters = 1200;
  std::atomic<int> mismatches{0};
  std::atomic<int> errors{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t]() {
      Rng rng(5000 + t);
      SimDisk disk;  // per-thread, per the Archive contract
      std::string doc;
      for (int i = 0; i < kIters; ++i) {
        const size_t id = rng.Next() % collection.num_docs();
        if (!archive.Get(id, &doc, &disk).ok()) {
          errors.fetch_add(1);
          continue;
        }
        if (doc != collection.doc(id)) mismatches.fetch_add(1);
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(errors.load(), 0);
  EXPECT_EQ(mismatches.load(), 0);
}

// Two threads ping-ponging documents in different blocks — the exact
// interleaving that corrupted the one-block cache.
TEST(ConcurrencyTest, BlockedArchiveDistinctBlockPingPong) {
  const Collection collection = TestCollection(1 << 19, 92);
  const BlockedArchive archive(collection, GetCompressor(CompressorId::kGzipx),
                               32 << 10);
  ASSERT_GE(archive.num_blocks(), 2u);
  const size_t first_doc = 0;
  const size_t last_doc = collection.num_docs() - 1;
  std::atomic<int> mismatches{0};
  auto hammer = [&](size_t id) {
    std::string doc;
    for (int i = 0; i < 2000; ++i) {
      if (!archive.Get(id, &doc).ok() || doc != collection.doc(id)) {
        mismatches.fetch_add(1);
        return;
      }
    }
  };
  std::thread a(hammer, first_doc);
  std::thread b(hammer, last_doc);
  a.join();
  b.join();
  EXPECT_EQ(mismatches.load(), 0);
}

TEST(ConcurrencyTest, ShardedStoreConcurrentGetsAreByteExact) {
  const Collection collection = TestCollection(1 << 20, 93);
  ShardedStoreOptions options;
  options.num_shards = 4;
  auto store = ShardedStore::Build(collection, options);
  constexpr int kThreads = 8;
  constexpr int kIters = 800;
  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t]() {
      Rng rng(7000 + t);
      std::string doc;
      std::string slice;
      for (int i = 0; i < kIters; ++i) {
        const size_t id = rng.Next() % collection.num_docs();
        if (!store->Get(id, &doc).ok() ||
            doc != collection.doc(id)) {
          mismatches.fetch_add(1);
          continue;
        }
        // Exercise the snippet path concurrently as well.
        if (!store->GetRange(id, 16, 64, &slice).ok() ||
            slice != collection.doc(id).substr(
                         std::min<size_t>(16, collection.doc(id).size()),
                         64)) {
          mismatches.fetch_add(1);
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(mismatches.load(), 0);
}

// Per-worker scratch reuse (DESIGN.md §9): eight threads hammer one
// shared ShardedStore, each reusing its own DecodeScratch across every
// request — the exact shape of DocService's worker loop. Any cross-request
// state leak in the scratch path shows up as a byte mismatch; any sharing
// bug shows up under TSan (this suite runs under the `concurrency` label).
TEST(ConcurrencyTest, ShardedStorePerWorkerScratchIsByteExact) {
  const Collection collection = TestCollection(1 << 20, 95);
  ShardedStoreOptions options;
  options.num_shards = 4;
  auto store = ShardedStore::Build(collection, options);
  constexpr int kThreads = 8;
  constexpr int kIters = 800;
  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t]() {
      Rng rng(11000 + t);
      DecodeScratch scratch;  // per-thread, reused across all requests
      std::string doc;
      std::string slice;
      for (int i = 0; i < kIters; ++i) {
        const size_t id = rng.Next() % collection.num_docs();
        if (!store->Get(id, &doc, nullptr, &scratch).ok() ||
            doc != collection.doc(id)) {
          mismatches.fetch_add(1);
          continue;
        }
        const std::string_view text = collection.doc(id);
        const size_t offset = rng.Next() % (text.size() + 1);
        if (!store->GetRange(id, offset, 48, &slice, nullptr, &scratch)
                 .ok() ||
            slice != (offset < text.size() ? text.substr(offset, 48)
                                           : std::string_view())) {
          mismatches.fetch_add(1);
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(mismatches.load(), 0);
}

TEST(ConcurrencyTest, DocServiceConcurrentClients) {
  const Collection collection = TestCollection(1 << 20, 94);
  ShardedStoreOptions store_options;
  store_options.num_shards = 4;
  auto store = ShardedStore::Build(collection, store_options);
  DocServiceOptions options;
  options.num_threads = 4;
  options.cache_bytes = 4 << 20;  // small enough to keep evicting
  DocService service(store.get(), options);
  constexpr int kClients = 4;
  constexpr int kBatches = 15;
  constexpr int kBatch = 32;
  std::atomic<int> mismatches{0};
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c]() {
      Rng rng(9000 + c);
      for (int batch = 0; batch < kBatches; ++batch) {
        std::vector<size_t> ids(kBatch);
        for (auto& id : ids) id = rng.Next() % collection.num_docs();
        std::vector<GetResult> results = service.MultiGet(ids);
        for (size_t i = 0; i < ids.size(); ++i) {
          if (!results[i].ok() || *results[i].text != collection.doc(ids[i])) {
            mismatches.fetch_add(1);
          }
        }
      }
    });
  }
  for (auto& client : clients) client.join();
  EXPECT_EQ(mismatches.load(), 0);
  const ServiceStats stats = service.Stats();
  EXPECT_EQ(stats.requests,
            static_cast<uint64_t>(kClients) * kBatches * kBatch);
  EXPECT_EQ(stats.failures, 0u);
}

// ---------------------------------------------------------------------------
// Scale-out request path (DESIGN.md §10): options validation, the shard
// router, batched submission, stealing, and shutdown/drain races.

TEST(DocServiceTest, OptionsValidationClampsToDocumentedFloors) {
  DocServiceOptions options;
  options.num_threads = -3;
  options.queue_depth = -1;
  options.cache_bytes = LruCache::kEntryOverheadBytes;  // can't admit anything
  const DocServiceOptions v = options.Validated();
  EXPECT_EQ(v.num_threads, 1);
  EXPECT_EQ(v.queue_depth, 1);
  EXPECT_EQ(v.cache_bytes, 0u);  // too-small cache is a disabled cache

  // In-range values pass through untouched.
  DocServiceOptions fine;
  fine.num_threads = 2;
  fine.cache_bytes = 1 << 20;
  fine.queue_depth = 8;
  const DocServiceOptions kept = fine.Validated();
  EXPECT_EQ(kept.num_threads, 2);
  EXPECT_EQ(kept.cache_bytes, 1u << 20);
  EXPECT_EQ(kept.queue_depth, 8);

  // The constructor applies Validated(): a service built with hostile
  // options runs (one worker, depth-1 queues) and serves.
  const Collection collection = TestCollection(1 << 16, 87);
  auto store = ShardedStore::Build(collection, {});
  DocService service(store.get(), options);
  EXPECT_EQ(service.options().num_threads, 1);
  EXPECT_EQ(service.options().queue_depth, 1);
  GetResult r = service.Get(0).get();
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r.text, collection.doc(0));
}

TEST(ShardedStoreTest, RouterMatchesShardOf) {
  const Collection collection = TestCollection(1 << 19, 88);
  ShardedStoreOptions options;
  options.num_shards = 4;
  auto store = ShardedStore::Build(collection, options);
  const std::shared_ptr<const ShardRouter> router_snapshot =
      store->router_snapshot();
  const ShardRouter& router = *router_snapshot;
  ASSERT_EQ(router.num_shards(), static_cast<size_t>(store->num_shards()));
  EXPECT_EQ(router.num_docs(), store->num_docs());
  EXPECT_EQ(router.start(0), 0u);
  EXPECT_EQ(router.start(router.num_shards()), store->num_docs());
  for (size_t id = 0; id < store->num_docs(); ++id) {
    const size_t s = router.shard_of(id);
    EXPECT_EQ(s, store->shard_of(id));
    EXPECT_GE(id, router.start(s));
    EXPECT_LT(id, router.start(s + 1));
  }
}

TEST(DocServiceTest, SubmitBatchIsPositionalAndReusable) {
  const Collection collection = TestCollection(1 << 18, 89);
  ShardedStoreOptions store_options;
  store_options.num_shards = 4;
  auto store = ShardedStore::Build(collection, store_options);
  DocServiceOptions options;
  options.num_threads = 3;
  DocService service(store.get(), options);

  // One batch reused across rounds; ids deliberately hit every shard and
  // repeat within a round (results are positional, so duplicates are fine).
  ServeBatch batch;
  Rng rng(4242);
  for (int round = 0; round < 8; ++round) {
    std::vector<size_t> ids(round * 7);  // varying size, including 0
    for (auto& id : ids) id = rng.Next() % collection.num_docs();
    service.SubmitBatch(ids, &batch);
    const std::vector<GetResult>& results = batch.Wait();
    ASSERT_EQ(results.size(), ids.size());
    EXPECT_EQ(batch.size(), ids.size());
    EXPECT_TRUE(batch.done());
    for (size_t i = 0; i < ids.size(); ++i) {
      ASSERT_TRUE(results[i].ok()) << results[i].status.ToString();
      EXPECT_EQ(*results[i].text, collection.doc(ids[i]));
    }
  }
  // An out-of-range id fails positionally without poisoning neighbours.
  std::vector<size_t> mixed = {0, collection.num_docs() + 10, 1};
  service.SubmitBatch(mixed, &batch);
  const std::vector<GetResult>& results = batch.Wait();
  EXPECT_TRUE(results[0].ok());
  EXPECT_FALSE(results[1].ok());
  EXPECT_TRUE(results[2].ok());
}

TEST(DocServiceTest, WorkStealingDrainsSkewedRouting) {
  const Collection collection = TestCollection(1 << 19, 90);
  ShardedStoreOptions store_options;
  store_options.num_shards = 4;
  auto store = ShardedStore::Build(collection, store_options);
  DocServiceOptions options;
  options.num_threads = 4;
  options.cache_bytes = 0;  // every request decodes: stealing has work
  DocService service(store.get(), options);
  // Every id lives in shard 0, so routing sends everything to one worker
  // queue; the three idle peers must steal to share the load.
  const size_t shard0_docs = store->router_snapshot()->start(1);
  ASSERT_GT(shard0_docs, 0u);
  ServeBatch batch;
  std::vector<size_t> ids(64);
  Rng rng(777);
  for (int round = 0; round < 8; ++round) {
    for (auto& id : ids) id = rng.Next() % shard0_docs;
    service.SubmitBatch(ids, &batch);
    for (const GetResult& r : batch.Wait()) {
      ASSERT_TRUE(r.ok());
    }
  }
  const ServiceStats stats = service.Stats();
  EXPECT_EQ(stats.requests, 8u * 64u);
  EXPECT_GT(stats.steals, 0u);
}

TEST(DocServiceTest, SubmitAfterShutdownCompletesUnavailable) {
  const Collection collection = TestCollection(1 << 16, 96);
  auto store = ShardedStore::Build(collection, {});
  DocService service(store.get(), {});
  ASSERT_TRUE(service.Get(0).get().ok());
  service.Shutdown();
  service.Shutdown();  // idempotent

  GetResult rejected = service.Get(0).get();
  EXPECT_EQ(rejected.status.code(), StatusCode::kUnavailable);
  ServeBatch batch;
  std::vector<size_t> ids = {0, 1};
  service.SubmitBatch(ids, &batch);
  for (const GetResult& r : batch.Wait()) {
    EXPECT_EQ(r.status.code(), StatusCode::kUnavailable);
  }
  for (const GetResult& r : service.MultiGet(ids)) {
    EXPECT_EQ(r.status.code(), StatusCode::kUnavailable);
  }
  // Post-shutdown rejections are not counted as served requests.
  const ServiceStats stats = service.Stats();
  EXPECT_EQ(stats.requests, 1u);
}

// Counts a batch's completion-hook calls and checks, at each, that every
// result of the submission had already been delivered.
class HookProbe {
 public:
  explicit HookProbe(ServeBatch* batch) : batch_(batch) {
    batch_->set_on_done([this] {
      for (const GetResult& r : batch_->results()) {
        // A delivered result failed or carries bytes; the slot a
        // submission resets is ok() with no bytes.
        if (r.ok() && r.text == nullptr) all_delivered_.store(false);
      }
      fired_.fetch_add(1);
    });
  }

  int fired() const { return fired_.load(); }
  bool all_delivered() const { return all_delivered_.load(); }

 private:
  ServeBatch* batch_;
  std::atomic<int> fired_{0};
  std::atomic<bool> all_delivered_{true};
};

uint64_t SteadyNowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

TEST(ServeBatchTest, CompletionHookFiresOncePerSubmission) {
  const Collection collection = TestCollection(1 << 18, 102);
  auto store = ShardedStore::Build(collection, {});
  constexpr size_t kGatedId = 0;
  const std::vector<size_t> ids = {1, 2, 3};
  std::vector<BatchItem> items(ids.size());
  for (size_t i = 0; i < ids.size(); ++i) items[i].id = ids[i];

  {
    SCOPED_TRACE("all served");
    DocServiceOptions options;
    options.num_threads = 2;
    DocService service(store.get(), options);
    ServeBatch batch;
    HookProbe probe(&batch);
    service.SubmitBatch(ids, &batch);
    for (size_t i = 0; i < ids.size(); ++i) {
      ASSERT_TRUE(batch.Wait()[i].ok());
      EXPECT_EQ(*batch.results()[i].text, collection.doc(ids[i]));
    }
    EXPECT_EQ(probe.fired(), 1);
    EXPECT_TRUE(probe.all_delivered());
    // A reused batch fires again, once, for its next submission.
    service.SubmitBatch(ids, &batch);
    batch.Wait();
    EXPECT_EQ(probe.fired(), 2);
  }
  // The next two paths hold the only worker in a gated decode, so the
  // queue state at submission is known.
  DocServiceOptions gated_options;
  gated_options.num_threads = 1;
  gated_options.cache_bytes = 0;
  gated_options.queue_depth = 2;  // best-effort share: one slot
  gated_options.shed_queue_delay_us = 0;  // sheds come from the class cap
  {
    SCOPED_TRACE("best-effort shed at admission");
    GatedArchive gated(store.get(), kGatedId);
    DocService service(&gated, gated_options);
    ReleaseOnExit release_on_exit(&gated);
    std::future<GetResult> held = service.Get(kGatedId);
    ASSERT_TRUE(gated.WaitEntered());
    std::vector<BatchItem> bulk = items;
    for (BatchItem& item : bulk) item.priority = RequestPriority::kBestEffort;
    ServeBatch batch;
    HookProbe probe(&batch);
    service.SubmitBatch(bulk.data(), bulk.size(), &batch);
    // Two items were shed inline; the queued one still holds the batch.
    EXPECT_FALSE(batch.done());
    EXPECT_EQ(probe.fired(), 0);
    gated.Release();
    size_t served = 0;
    for (size_t i = 0; i < bulk.size(); ++i) {
      const GetResult& r = batch.Wait()[i];
      if (r.ok()) {
        EXPECT_EQ(*r.text, collection.doc(ids[i]));
        ++served;
      } else {
        EXPECT_EQ(r.status.code(), StatusCode::kUnavailable);
      }
    }
    EXPECT_EQ(served, 1u);
    EXPECT_EQ(probe.fired(), 1);
    EXPECT_TRUE(probe.all_delivered());
    EXPECT_EQ(service.Stats().shed, 2u);
    ASSERT_TRUE(held.get().ok());
  }
  {
    SCOPED_TRACE("expired in queue");
    GatedArchive gated(store.get(), kGatedId);
    DocService service(&gated, gated_options);
    ReleaseOnExit release_on_exit(&gated);
    std::future<GetResult> held = service.Get(kGatedId);
    ASSERT_TRUE(gated.WaitEntered());
    std::vector<BatchItem> timed = items;
    timed.resize(1);  // the normal share is one slot too
    timed[0].deadline_ns = SteadyNowNs() + 50'000'000;
    ServeBatch batch;
    HookProbe probe(&batch);
    service.SubmitBatch(timed.data(), timed.size(), &batch);
    std::this_thread::sleep_for(std::chrono::milliseconds(150));
    EXPECT_EQ(probe.fired(), 0);
    gated.Release();
    EXPECT_EQ(batch.Wait()[0].status.code(), StatusCode::kDeadlineExceeded);
    EXPECT_EQ(probe.fired(), 1);
    EXPECT_TRUE(probe.all_delivered());
    EXPECT_EQ(service.Stats().expired, 1u);
    ASSERT_TRUE(held.get().ok());
  }
  {
    SCOPED_TRACE("submitted after Shutdown");
    DocService service(store.get(), {});
    service.Shutdown();
    ServeBatch batch;
    HookProbe probe(&batch);
    service.SubmitBatch(ids, &batch);
    // Every item completed inside SubmitBatch, on this thread.
    EXPECT_TRUE(batch.done());
    EXPECT_EQ(probe.fired(), 1);
    EXPECT_TRUE(probe.all_delivered());
    for (const GetResult& r : batch.Wait()) {
      EXPECT_EQ(r.status.code(), StatusCode::kUnavailable);
    }
  }
}

TEST(ConcurrencyTest, ResubmitFromTheThreadTheHookWakes) {
  // The event-loop pattern: a worker's hook wakes another thread, which
  // reads the results and re-submits the same batch while the worker may
  // still be inside it.
  const Collection collection = TestCollection(1 << 18, 103);
  auto store = ShardedStore::Build(collection, {});
  DocServiceOptions options;
  options.num_threads = 2;
  DocService service(store.get(), options);
  ServeBatch batch;
  std::mutex mu;
  std::condition_variable cv;
  int signals = 0;
  batch.set_on_done([&] {
    std::lock_guard<std::mutex> lock(mu);
    ++signals;
    cv.notify_one();
  });
  std::vector<size_t> ids(16);
  for (size_t i = 0; i < ids.size(); ++i) {
    ids[i] = (i * 7) % collection.num_docs();
  }
  constexpr int kRounds = 50;
  std::atomic<int> failures{0};
  std::thread resubmitter([&] {
    for (int round = 1; round <= kRounds; ++round) {
      {
        std::unique_lock<std::mutex> lock(mu);
        cv.wait(lock, [&] { return signals >= round; });
      }
      if (!batch.done()) ++failures;
      for (size_t i = 0; i < ids.size(); ++i) {
        const GetResult& r = batch.results()[i];
        if (!r.ok() || *r.text != collection.doc(ids[i])) ++failures;
      }
      if (round < kRounds) service.SubmitBatch(ids, &batch);
    }
  });
  service.SubmitBatch(ids, &batch);
  resubmitter.join();
  batch.Wait();
  EXPECT_EQ(failures.load(), 0);
  std::lock_guard<std::mutex> lock(mu);
  EXPECT_EQ(signals, kRounds);
}

TEST(ConcurrencyTest, ShutdownWhileSubmitting) {
  const Collection collection = TestCollection(1 << 18, 97);
  ShardedStoreOptions store_options;
  store_options.num_shards = 2;
  auto store = ShardedStore::Build(collection, store_options);
  DocServiceOptions options;
  options.num_threads = 2;
  options.queue_depth = 4;  // small queues: Shutdown races backpressure too
  DocService service(store.get(), options);
  constexpr int kProducers = 4;
  std::atomic<uint64_t> served{0};
  std::atomic<uint64_t> unavailable{0};
  std::atomic<uint64_t> other_failures{0};
  std::vector<std::thread> producers;
  producers.reserve(kProducers);
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      Rng rng(1300 + p);
      ServeBatch batch;
      std::vector<size_t> ids(16);
      for (int round = 0; round < 40; ++round) {
        for (auto& id : ids) id = rng.Next() % collection.num_docs();
        service.SubmitBatch(ids, &batch);
        for (const GetResult& r : batch.Wait()) {
          if (r.ok()) {
            served.fetch_add(1);
          } else if (r.status.code() == StatusCode::kUnavailable) {
            unavailable.fetch_add(1);
          } else {
            other_failures.fetch_add(1);
          }
        }
      }
    });
  }
  service.Shutdown();  // races the producers mid-submission
  for (auto& t : producers) t.join();
  // Every request either completed or was cleanly rejected — nothing hung
  // or failed any other way — and the drained stats account for exactly
  // the served ones.
  EXPECT_EQ(other_failures.load(), 0u);
  EXPECT_EQ(served.load() + unavailable.load(), kProducers * 40u * 16u);
  const ServiceStats stats = service.Stats();
  EXPECT_EQ(stats.requests, served.load());
}

TEST(ConcurrencyTest, DrainUnderSustainedMultiProducerLoad) {
  const Collection collection = TestCollection(1 << 18, 98);
  auto store = ShardedStore::Build(collection, {});
  DocServiceOptions options;
  options.num_threads = 2;
  DocService service(store.get(), options);
  constexpr int kProducers = 3;
  constexpr int kRounds = 25;
  constexpr int kBatch = 24;
  std::atomic<int> mismatches{0};
  std::vector<std::thread> producers;
  producers.reserve(kProducers);
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      Rng rng(7100 + p);
      ServeBatch batch;
      std::vector<size_t> ids(kBatch);
      for (int round = 0; round < kRounds; ++round) {
        for (auto& id : ids) id = rng.Next() % collection.num_docs();
        service.SubmitBatch(ids, &batch);
        const std::vector<GetResult>& results = batch.Wait();
        for (size_t i = 0; i < ids.size(); ++i) {
          if (!results[i].ok() ||
              *results[i].text != collection.doc(ids[i])) {
            mismatches.fetch_add(1);
          }
        }
      }
    });
  }
  // Drain races the producers: each call returns at a momentary idle
  // point (producers pause between rounds) or, at the latest, when the
  // bounded load above completes — either way it must come back.
  for (int i = 0; i < 5; ++i) service.Drain();
  for (auto& t : producers) t.join();
  service.Drain();
  EXPECT_EQ(mismatches.load(), 0);
  const ServiceStats stats = service.Stats();
  EXPECT_EQ(stats.requests,
            static_cast<uint64_t>(kProducers) * kRounds * kBatch);
}

TEST(ConcurrencyTest, FullQueueBackpressureDeliversEverything) {
  const Collection collection = TestCollection(1 << 17, 99);
  ShardedStoreOptions store_options;
  store_options.num_shards = 2;
  auto store = ShardedStore::Build(collection, store_options);
  DocServiceOptions options;
  options.num_threads = 2;
  options.queue_depth = 1;  // total queue space 2: every batch overflows
  options.cache_bytes = 0;  // slow consumers: decodes keep queues full
  DocService service(store.get(), options);
  constexpr int kProducers = 4;
  constexpr int kRounds = 10;
  constexpr int kBatch = 32;  // 16x the whole service's queue capacity
  std::atomic<int> mismatches{0};
  std::vector<std::thread> producers;
  producers.reserve(kProducers);
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      Rng rng(8200 + p);
      ServeBatch batch;
      std::vector<size_t> ids(kBatch);
      for (int round = 0; round < kRounds; ++round) {
        for (auto& id : ids) id = rng.Next() % collection.num_docs();
        service.SubmitBatch(ids, &batch);
        const std::vector<GetResult>& results = batch.Wait();
        for (size_t i = 0; i < ids.size(); ++i) {
          if (!results[i].ok() ||
              *results[i].text != collection.doc(ids[i])) {
            mismatches.fetch_add(1);
          }
        }
      }
    });
  }
  for (auto& t : producers) t.join();
  EXPECT_EQ(mismatches.load(), 0);
  const ServiceStats stats = service.Stats();
  EXPECT_EQ(stats.requests,
            static_cast<uint64_t>(kProducers) * kRounds * kBatch);
}

TEST(ConcurrencyTest, StatsNeverBlocksServing) {
  const Collection collection = TestCollection(1 << 18, 100);
  auto store = ShardedStore::Build(collection, {});
  DocServiceOptions options;
  options.num_threads = 2;
  DocService service(store.get(), options);
  std::atomic<bool> done{false};
  std::thread producer([&] {
    Rng rng(6001);
    ServeBatch batch;
    std::vector<size_t> ids(32);
    for (int round = 0; round < 30; ++round) {
      for (auto& id : ids) id = rng.Next() % collection.num_docs();
      service.SubmitBatch(ids, &batch);
      batch.Wait();
    }
    done.store(true);
  });
  // Mid-flight Stats() reads only atomics: hammer it while serving runs
  // and check the monotone, eventually-exact request counter.
  uint64_t last = 0;
  while (!done.load()) {
    const ServiceStats stats = service.Stats();
    EXPECT_GE(stats.requests, last);
    last = stats.requests;
  }
  producer.join();
  service.Drain();
  EXPECT_EQ(service.Stats().requests, 30u * 32u);
}

TEST(ConcurrencyTest, DestructorDrainsOutstandingFutures) {
  const Collection collection = TestCollection(1 << 17, 101);
  auto store = ShardedStore::Build(collection, {});
  std::vector<std::future<GetResult>> futures;
  {
    DocServiceOptions options;
    options.num_threads = 2;
    DocService service(store.get(), options);
    for (int round = 0; round < 4; ++round) {
      for (size_t i = 0; i < collection.num_docs(); ++i) {
        futures.push_back(service.Get(i));
      }
    }
    // Destruction runs Shutdown(): every accepted request must complete.
  }
  for (auto& f : futures) {
    GetResult r = f.get();
    ASSERT_TRUE(r.ok()) << r.status.ToString();
  }
}

}  // namespace
}  // namespace rlz
