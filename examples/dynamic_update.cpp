// Dynamic-update scenario (§3.6), live: a ShardedStore built on an
// initial crawl keeps serving through DocService while fresh — and
// *drifted* — content streams in via Append, stale documents are
// Delete()d, and a compaction pass (CompactOnce) re-samples a drifted
// shard's dictionary. Prints per-epoch compression ratios so the §3.6 staleness
// narrative is visible as it happens: tail seals encoded against the
// build-time append dictionary degrade Enc.% (Table 10's story), and the
// stale-dictionary compaction recovers it.
//
//   ./build/examples/dynamic_update

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "corpus/generator.h"
#include "serve/doc_service.h"
#include "serve/sharded_store.h"

namespace {

rlz::Collection MakeCollection(size_t target_bytes, uint64_t seed) {
  rlz::CorpusOptions options;
  options.target_bytes = target_bytes;
  options.seed = seed;
  return rlz::GenerateCorpus(options).collection;
}

// One epoch snapshot line: sequence, corpus shape, and the live Enc.%
// (stored bytes over the raw bytes of the *live* documents).
void PrintEpoch(const char* label, const rlz::ShardedStore& store,
                uint64_t raw_bytes) {
  const auto epoch = store.epoch();
  std::printf(
      "epoch %3llu  %-26s  shards=%d  docs=%zu (live %zu)  tail=%zu  "
      "Enc=%6.2f%%\n",
      static_cast<unsigned long long>(epoch->sequence()), label,
      epoch->num_shards(), epoch->num_docs(), epoch->live_docs(),
      epoch->tail_docs(),
      100.0 * static_cast<double>(epoch->stored_bytes()) /
          static_cast<double>(raw_bytes));
}

}  // namespace

int main() {
  // The initial crawl: 8 MB, 4 shards, auto-seal at 256 KB of tail.
  const rlz::Collection initial = MakeCollection(8 << 20, 36);
  rlz::ShardedStoreOptions options;
  options.num_shards = 4;
  options.dict_bytes = initial.size_bytes() / 100;
  options.live.tail_seal_bytes = 256 << 10;
  // Arm only the staleness trigger, and make it sensitive enough to catch
  // the drifted shard below.
  options.live.compact_tombstone_fraction = 0.30;
  options.live.compact_stale_decay = 0.35;
  options.live.compact_stale_unused_fraction = 2.0;  // decay decides
  auto store = rlz::ShardedStore::Build(initial, options);

  uint64_t raw_bytes = initial.size_bytes();
  std::printf("build: %zu docs, %.1f MB, append dictionary sampled from "
              "the initial crawl\n",
              initial.num_docs(), initial.size_bytes() / 1048576.0);
  PrintEpoch("initial build", *store, raw_bytes);

  // Serve throughout: the service routes from per-epoch router snapshots
  // and its decode cache is invalidated by deletes automatically.
  rlz::DocServiceOptions service_options;
  service_options.num_threads = 2;
  rlz::DocService service(store.get(), service_options);

  // --- Phase 1: similar content streams in (same distribution) ----------
  const rlz::Collection similar = MakeCollection(1 << 20, 37);
  for (size_t i = 0; i < similar.num_docs(); ++i) {
    if (!store->Append(similar.doc(i)).ok()) return 1;
  }
  raw_bytes += similar.size_bytes();
  if (!store->SealTail().ok()) return 1;
  PrintEpoch("+1 MB similar content", *store, raw_bytes);

  // --- Phase 2: the crawl drifts (new hosts, new vocabulary) ------------
  const rlz::Collection drifted = MakeCollection(1 << 20, 4242);
  for (size_t i = 0; i < drifted.num_docs(); ++i) {
    if (!store->Append(drifted.doc(i)).ok()) return 1;
  }
  raw_bytes += drifted.size_bytes();
  if (!store->SealTail().ok()) return 1;
  PrintEpoch("+1 MB drifted content", *store, raw_bytes);

  const int drifted_shard = store->num_shards() - 1;
  const rlz::ShardHealth health = store->shard_health(drifted_shard);
  std::printf(
      "  drifted shard %d: avg factor %.1f vs baseline %.1f "
      "(decay %.0f%%) — the §3.6 stale-dictionary effect\n",
      drifted_shard, health.stats.avg_factor_length(),
      store->baseline_stats().avg_factor_length(),
      100.0 * health.stats.avg_factor_decay(store->baseline_stats()));

  // --- Phase 3: deletes tombstone old documents -------------------------
  // Warm the decode cache on a doc about to be deleted: the store's
  // eviction hook must erase the stale entry when the tombstone publishes.
  if (!service.Get(0).get().ok()) return 1;
  for (size_t id = 0; id < initial.num_docs(); id += 9) {
    if (!store->Delete(id).ok()) return 1;
  }
  PrintEpoch("deleted 1/9 of the crawl", *store, raw_bytes);

  // --- Phase 4: compaction re-samples the drifted shard -----------------
  auto report = store->CompactOnce();
  if (!report.ok()) return 1;
  if (report.value().compacted) {
    std::printf(
        "  compaction: shard %d gen %llu (%s) %llu -> %llu bytes, "
        "%zu live / %zu dead docs\n",
        report.value().shard,
        static_cast<unsigned long long>(report.value().generation),
        report.value().reason ==
                rlz::CompactionReport::Reason::kStaleDictionary
            ? "stale dictionary"
            : "tombstones",
        static_cast<unsigned long long>(report.value().bytes_before),
        static_cast<unsigned long long>(report.value().bytes_after),
        report.value().live_docs, report.value().dead_docs);
  }
  PrintEpoch("after compaction", *store, raw_bytes);

  // The service kept serving across every epoch above; spot-check it on a
  // surviving old document, an appended one, and a deleted one.
  const size_t survivor = 1;  // not a multiple of 9
  rlz::GetResult old_doc = service.Get(survivor).get();
  rlz::GetResult new_doc =
      service.Get(initial.num_docs() + similar.num_docs() / 2).get();
  rlz::GetResult dead_doc = service.Get(0).get();
  if (!old_doc.ok() || !new_doc.ok() || dead_doc.ok()) return 1;
  if (*old_doc.text != initial.doc(survivor)) return 1;
  std::printf(
      "service: old doc %zu (%zu B) and appended doc both served; "
      "deleted doc 0 -> %s\n",
      survivor, old_doc.text->size(),
      rlz::StatusCodeToString(dead_doc.status.code()));
  const rlz::ServiceStats stats = service.Stats();
  std::printf(
      "service: %llu requests, cache erased %llu entries on delete\n",
      static_cast<unsigned long long>(stats.requests),
      static_cast<unsigned long long>(stats.cache.erased));
  return 0;
}
