#include "serve/sharded_store.h"

#include <algorithm>
#include <cstdio>
#include <utility>

#include "build/archive_builder.h"
#include "build/build_pipeline.h"
#include "core/dictionary.h"
#include "io/file.h"
#include "io/mmap_file.h"
#include "store/format.h"
#include "store/wal/wal_reader.h"
#include "util/logging.h"

namespace rlz {
namespace {

// Sample size of every dictionary the store samples: shard dictionaries,
// append dictionaries and compaction's re-samples (the paper's 1 KB
// default, §3.3).
constexpr size_t kSampleBytes = 1024;

// The kSeal record's payload when the seal first refreshes the append
// dictionary from the tail it seals; an empty payload seals against the
// current one (DESIGN.md §12).
constexpr char kRefreshSeal[] = "R";

// Relative name of shard `s` next to a manifest named `manifest_base`
// (the manifest's own basename): "<base>.shard0007".
std::string ShardFileName(const std::string& manifest_base, size_t s) {
  char suffix[32];
  std::snprintf(suffix, sizeof(suffix), ".shard%04llu",
                static_cast<unsigned long long>(s));
  return manifest_base + suffix;
}

// Relative name of append dictionary `d` next to a manifest named
// `manifest_base`: "<base>.dict" for the first, "<base>.dict0001" on.
std::string DictFileName(const std::string& manifest_base, size_t d) {
  if (d == 0) return manifest_base + ".dict";
  char suffix[32];
  std::snprintf(suffix, sizeof(suffix), ".dict%04llu",
                static_cast<unsigned long long>(d));
  return manifest_base + suffix;
}

// True when `health`'s factors have decayed against `baseline` past the
// staleness trigger (§3.6). The compactor's stale test and the seal's
// refresh rule both read it.
bool FactorsDecayed(const ShardHealth& health, const FactorStats& baseline,
                    const LiveStoreOptions& live) {
  return health.stats.avg_factor_decay(baseline) >= live.compact_stale_decay;
}

// Drops every retired append dictionary of `set` that no shard binds to
// any more, with its entry in `files` (parallel to set->append_dicts).
// The current dictionary stays, bound or not.
void DropUnboundDicts(ShardSet* set, std::vector<std::string>* files) {
  std::vector<bool> bound(set->append_dicts.size(), false);
  bound.back() = true;
  for (size_t s = 0; s < set->shards.size(); ++s) {
    const uint64_t d = set->DictOf(s);
    if (d != Manifest::kOwnDictionary) bound[d] = true;
  }
  for (size_t d = bound.size(); d-- > 0;) {
    if (bound[d]) continue;
    set->append_dicts.erase(set->append_dicts.begin() + d);
    files->erase(files->begin() + d);
  }
}

// Splits `path` into the directory prefix (empty or ending in '/') and
// the basename.
void SplitPath(const std::string& path, std::string* dir,
               std::string* base) {
  const size_t slash = path.find_last_of('/');
  if (slash == std::string::npos) {
    dir->clear();
    *base = path;
  } else {
    *dir = path.substr(0, slash + 1);
    *base = path.substr(slash + 1);
  }
}

// The ascending positions of `bm`'s set bits (none for a null bitmap).
std::vector<uint64_t> SetBits(const Bitmap* bm) {
  std::vector<uint64_t> ids;
  if (bm == nullptr) return ids;
  for (size_t i = 0; i < bm->size(); ++i) {
    if (bm->Test(i)) ids.push_back(i);
  }
  return ids;
}

// A `bits`-wide bitmap with `ids` set (each < bits); null when `ids` is
// empty.
std::shared_ptr<const Bitmap> BitmapOf(const std::vector<uint64_t>& ids,
                                       size_t bits) {
  if (ids.empty()) return nullptr;
  Bitmap bm(bits);
  for (uint64_t id : ids) bm.Set(static_cast<size_t>(id));
  return std::make_shared<const Bitmap>(std::move(bm));
}

// The file bytes of shard `s` of `epoch`: a shard bound to an append
// dictionary references it, and the store writes each such dictionary
// once ("rlzshard"); a base or re-sampled shard carries its own ("rlz").
std::string ShardFileBytes(const CorpusEpoch& epoch, int s) {
  const RlzArchive& shard = epoch.shard(s);
  return epoch.shard_dictionary(s) != Manifest::kOwnDictionary
             ? shard.SerializeShard()
             : shard.Serialize();
}

// Encodes `docs` against `dict` on `pool` in balanced chunks, tracking
// coverage for the shard-health record the compactor scores (DESIGN.md
// §11). The output is byte-identical for any worker count (DESIGN.md §7).
std::unique_ptr<RlzArchive> EncodeShard(
    BuildPool* pool, std::shared_ptr<const Dictionary> dict,
    PairCoding coding, const std::vector<std::string_view>& docs,
    RlzBuildInfo* info) {
  RlzBuildOptions options;
  options.coding = coding;
  options.track_coverage = true;
  options.chunk_docs = BalancedChunkDocs(docs.size(), pool->num_threads());
  RlzArchiveBuilder builder(std::move(dict), pool, options);
  for (std::string_view doc : docs) builder.AddBorrowedDocument(doc);
  return std::move(builder).Finish(info);
}

}  // namespace

std::unique_ptr<ShardedStore> ShardedStore::Build(
    const Collection& collection, const ShardedStoreOptions& options) {
  std::unique_ptr<ShardedStore> store(new ShardedStore());
  store->options_ = options;
  const size_t ndocs = collection.num_docs();
  const size_t nshards = std::max<size_t>(
      1, std::min<size_t>(options.num_shards > 0 ? options.num_shards : 1,
                          std::max<size_t>(ndocs, 1)));

  // Contiguous ranges balanced by uncompressed bytes: shard s ends at the
  // first doc whose cumulative size reaches s+1 equal slices of the total.
  std::vector<size_t> starts(1, 0);
  const uint64_t total = collection.size_bytes();
  uint64_t seen = 0;
  size_t doc = 0;
  for (size_t s = 0; s + 1 < nshards; ++s) {
    const uint64_t target = total * (s + 1) / nshards;
    // Leave enough docs for the remaining shards to be non-empty.
    const size_t max_end = ndocs - (nshards - 1 - s);
    while (doc < max_end && (seen < target || doc == starts.back())) {
      seen += collection.doc_size(doc);
      ++doc;
    }
    starts.push_back(doc);
  }
  starts.push_back(ndocs);
  auto sealed = std::make_shared<ShardSet>();
  sealed->router = std::make_shared<const ShardRouter>(std::move(starts));
  const ShardRouter& router = *sealed->router;

  const size_t shard_dict_bytes =
      std::max<size_t>(1, options.dict_bytes / nshards);
  store->shard_dict_bytes_ = shard_dict_bytes;

  sealed->shards.resize(nshards);
  std::vector<RlzBuildInfo> infos(nshards);
  auto build_shard = [&](size_t s) {
    const size_t begin = router.start(s);
    const size_t end = router.start(s + 1);
    // A shard's documents are contiguous in the source collection, so
    // dictionary sampling and the streaming build both work off views —
    // no per-shard copy of the text (peak memory stays one corpus).
    const std::string_view shard_text =
        collection.data().substr(collection.doc_offset(begin),
                                 collection.doc_offset(end) -
                                     collection.doc_offset(begin));
    std::vector<std::string_view> docs;
    docs.reserve(end - begin);
    for (size_t i = begin; i < end; ++i) docs.push_back(collection.doc(i));
    BuildPool inline_pool;
    sealed->shards[s] = EncodeShard(
        &inline_pool,
        DictionaryBuilder::BuildSampled(shard_text, shard_dict_bytes,
                                        kSampleBytes),
        options.coding, docs, &infos[s]);
  };

  // One pipeline chunk and one worker per shard, each shard factorized
  // inline in its chunk: shards build concurrently and land in their
  // slots (merge order is irrelevant here — slots are disjoint — but the
  // pipeline's ordered-merge guarantee costs nothing). A short-lived pool
  // at default priority: at nice 19, setup_s read 6-17% higher (§7).
  BuildPool pool(static_cast<int>(nshards));
  BuildPipeline pipeline(&pool);
  for (size_t s = 0; s < nshards; ++s) {
    pipeline.Submit([&, s](int) { build_shard(s); }, [] {});
  }
  pipeline.Finish();

  // Health bookkeeping: per-shard stats/coverage plus the store-wide
  // baseline the staleness trigger compares against.
  sealed->tombstones.assign(nshards, nullptr);
  sealed->health.resize(nshards);
  for (size_t s = 0; s < nshards; ++s) {
    sealed->health[s].stats = infos[s].stats;
    sealed->health[s].unused_dict_fraction =
        infos[s].unused_dictionary_fraction;
    store->baseline_stats_.Merge(infos[s].stats);
  }
  // The first append dictionary: sampled across the whole build-time
  // corpus, so tail seals encode against content representative of the
  // initial crawl — until the crawl drifts (§3.6) and a seal replaces it
  // (RefreshDueLocked). Every seal factorizes against the current one,
  // so it alone carries match keys; the first seal builds its matcher.
  std::unique_ptr<Dictionary> append_dict = DictionaryBuilder::BuildSampled(
      collection.data(), shard_dict_bytes, kSampleBytes);
  append_dict->UseMatchKeys();
  sealed->append_dicts.push_back(std::move(append_dict));
  store->sealed_ = std::move(sealed);
  store->shard_files_.assign(nshards, std::string());
  store->dict_files_.assign(1, std::string());

  {
    std::lock_guard<std::mutex> lock(store->writer_mu_);
    store->next_sequence_ = 0;
    store->PublishLocked();
  }
  return store;
}

ShardedStore::~ShardedStore() {
  std::lock_guard<std::mutex> lock(writer_mu_);
  if (wal_ != nullptr) {
    // Everything acked was already durable per the group-commit policy;
    // the final sync only narrows a relaxed policy's loss window.
    (void)wal_->Close();
    wal_.reset();
  }
}

std::shared_ptr<const CorpusEpoch> ShardedStore::epoch() const {
  std::lock_guard<std::mutex> lock(epoch_mu_);
  return epoch_;
}

void ShardedStore::PublishLocked() {
  auto next = std::shared_ptr<CorpusEpoch>(new CorpusEpoch());
  next->sequence_ = next_sequence_++;
  // O(1): the shard set and the tail's chunks are shared, not copied.
  next->sealed_ = sealed_;
  next->tail_ = tail_;
  next->tail_tombstones_ = tail_tombstones_;
  next->deleted_docs_ = deleted_docs_;
  std::lock_guard<std::mutex> lock(epoch_mu_);
  epoch_ = std::move(next);
}

std::string ShardedStore::name() const {
  auto snapshot = epoch();
  const std::string coding = snapshot->num_shards() == 0
                                 ? std::string("rlz")
                                 : snapshot->shard(0).name();
  return "sharded-" + coding + "/" + std::to_string(snapshot->num_shards());
}

Status ShardedStore::Get(size_t id, std::string* doc, SimDisk* /*disk*/,
                         DecodeScratch* scratch) const {
  return epoch()->Get(id, doc, scratch);
}

Status ShardedStore::GetRange(size_t id, size_t offset, size_t length,
                              std::string* text, SimDisk* /*disk*/,
                              DecodeScratch* scratch) const {
  return epoch()->GetRange(id, offset, length, text, scratch);
}

bool ShardedStore::IsLive(size_t id) const {
  auto snapshot = epoch();
  return id < snapshot->num_docs() && !snapshot->IsDeleted(id);
}

ShardHealth ShardedStore::shard_health(int s) const {
  auto snapshot = epoch();
  RLZ_CHECK_LT(s, snapshot->num_shards());
  return snapshot->shard_health(s);
}

FactorStats ShardedStore::baseline_stats() const {
  std::lock_guard<std::mutex> lock(writer_mu_);
  return baseline_stats_;
}

// --- Mutation path --------------------------------------------------------

size_t ShardedStore::ApplyAppendLocked(std::string_view doc) {
  tail_.Append(std::make_shared<const std::string>(doc));
  return sealed_->router->num_docs() + tail_.num_docs() - 1;
}

StatusOr<size_t> ShardedStore::Append(std::string_view doc) {
  size_t id = 0;
  bool checkpoint = false;
  {
    std::lock_guard<std::mutex> lock(writer_mu_);
    RLZ_RETURN_IF_ERROR(CheckWritableLocked());
    RLZ_RETURN_IF_ERROR(CheckAppendDictionaryLocked());
    // Log before apply and publish: a document whose record failed never
    // enters the tail, and once the epoch containing it is visible (and
    // the id returned) the record is framed for the disk — durably there
    // already under fsync_every_n == 1 (DESIGN.md §12).
    if (wal_ != nullptr) {
      RLZ_RETURN_IF_ERROR(LogLocked(wal::RecordType::kAppend, doc));
    }
    id = ApplyAppendLocked(doc);
    PublishLocked();
    // From here the append is logged and visible, so it returns its id
    // whatever the seal does. A seal that fails could not log its
    // record; the WAL latched that error and refuses every later
    // mutation.
    if (options_.live.tail_seal_bytes > 0 &&
        tail_.bytes() >= options_.live.tail_seal_bytes) {
      checkpoint = SealTailLocked().ok() && wal_ != nullptr;
    }
  }
  // After writer_mu_ is released: a checkpoint takes checkpoint_mu_
  // before writer_mu_.
  if (checkpoint) CheckpointAfterSeal();
  return id;
}

Status ShardedStore::SealTail() {
  bool checkpoint = false;
  {
    std::lock_guard<std::mutex> lock(writer_mu_);
    RLZ_RETURN_IF_ERROR(CheckWritableLocked());
    RLZ_RETURN_IF_ERROR(CheckAppendDictionaryLocked());
    if (tail_.num_docs() == 0) return Status::OK();
    RLZ_RETURN_IF_ERROR(SealTailLocked());
    checkpoint = wal_ != nullptr;
  }
  if (checkpoint) CheckpointAfterSeal();
  return Status::OK();
}

Status ShardedStore::SealTailLocked() {
  // The choice is logged, not re-derived at replay: a compaction between
  // the last checkpoint and this seal can rewrite the shard the rule
  // reads, and compactions are not logged.
  const bool refresh = RefreshDueLocked();
  if (wal_ != nullptr) {
    RLZ_RETURN_IF_ERROR(LogLocked(
        wal::RecordType::kSeal,
        refresh ? std::string_view(kRefreshSeal) : std::string_view()));
  }
  RLZ_RETURN_IF_ERROR(ApplySealLocked(refresh));
  PublishLocked();
  return Status::OK();
}

Status ShardedStore::ApplySealLocked(bool refresh) {
  const size_t tail_docs = tail_.num_docs();
  if (tail_docs == 0) return Status::OK();

  // The raw tail is encoded once, here, as one batch on the store's
  // build pool against the current append dictionary (byte-identical to
  // a serial encode; DESIGN.md §7), whose matcher the first seal builds.
  // A refresh first samples a new current dictionary from the tail's own
  // text.
  std::vector<std::string_view> docs;
  docs.reserve(tail_docs);
  for (size_t i = 0; i < tail_docs; ++i) docs.push_back(*tail_.doc(i));
  std::shared_ptr<const Dictionary> dict = sealed_->append_dict();
  if (refresh) {
    std::string text;
    text.reserve(tail_.bytes());
    for (std::string_view doc : docs) text.append(doc);
    std::unique_ptr<Dictionary> fresh = DictionaryBuilder::BuildSampled(
        text, shard_dict_bytes_, kSampleBytes);
    fresh->UseMatchKeys();
    dict = std::move(fresh);
  }
  RlzBuildInfo info;
  std::shared_ptr<const RlzArchive> sealed =
      EncodeShard(&build_pool_, dict, options_.coding, docs, &info);

  // Health record for the new shard; tail documents deleted before the
  // seal carry their tombstones (and their now-stored-but-dead encoded
  // bytes) into the sealed shard.
  ShardHealth meta;
  meta.stats = info.stats;
  meta.unused_dict_fraction = info.unused_dictionary_fraction;
  const std::vector<uint64_t> dead = SetBits(tail_tombstones_.get());
  for (uint64_t i : dead) {
    meta.tombstoned_payload_bytes += sealed->doc_map().size(i);
  }

  // Router growth: the sealed shard owns the next contiguous id range.
  const size_t nshards = sealed_->shards.size();
  std::vector<size_t> starts;
  starts.reserve(nshards + 2);
  for (size_t s = 0; s <= nshards; ++s) {
    starts.push_back(sealed_->router->start(s));
  }
  starts.push_back(sealed_->router->num_docs() + tail_docs);

  auto next = std::make_shared<ShardSet>(*sealed_);
  if (refresh) {
    next->append_dicts.push_back(std::move(dict));
    dict_files_.emplace_back();  // no checkpoint holds it yet
  }
  next->shards.push_back(std::move(sealed));
  next->health.push_back(meta);
  // The tail bitmap is lazily sized to the tail length at its last
  // delete; widen it to the full shard so every later bitmap copy (and
  // Bitmap::Set) stays in range.
  next->tombstones.push_back(BitmapOf(dead, tail_docs));
  next->router = std::make_shared<const ShardRouter>(std::move(starts));
  sealed_ = std::move(next);
  shard_files_.emplace_back();  // no checkpoint holds it yet
  // Published epochs keep the old tail's chunks; the next append starts a
  // fresh chunk list.
  tail_ = TailSegment();
  tail_tombstones_.reset();
  return Status::OK();
}

Status ShardedStore::ApplyDeleteLocked(size_t id) {
  const ShardRouter& router = *sealed_->router;
  const size_t sealed = router.num_docs();
  const size_t total = sealed + tail_.num_docs();
  if (id >= total) {
    return Status::OutOfRange("sharded store: bad doc id");
  }
  if (id < sealed) {
    const size_t s = router.shard_of(id);
    const size_t local = id - router.start(s);
    // A sealed shard's bitmap, where there is one, is as wide as the
    // shard: FromManifest and the seal both size it so.
    const Bitmap* old = sealed_->tombstones[s].get();
    Bitmap bm =
        old != nullptr ? *old : Bitmap(router.start(s + 1) - router.start(s));
    if (bm.Test(local)) {
      return Status::NotFound("sharded store: document already deleted");
    }
    bm.Set(local);
    auto next = std::make_shared<ShardSet>(*sealed_);
    next->tombstones[s] = std::make_shared<const Bitmap>(std::move(bm));
    next->health[s].tombstoned_payload_bytes +=
        next->shards[s]->doc_map().size(local);
    sealed_ = std::move(next);
  } else {
    const size_t local = id - sealed;
    // The tail bitmap is sized lazily to the tail's current length;
    // bits past an older bitmap's end are live by construction.
    const Bitmap* old = tail_tombstones_.get();
    if (old != nullptr && local < old->size() && old->Test(local)) {
      return Status::NotFound("sharded store: document already deleted");
    }
    std::vector<uint64_t> dead = SetBits(old);
    dead.push_back(local);
    tail_tombstones_ = BitmapOf(dead, tail_.num_docs());
  }
  ++deleted_docs_;
  return Status::OK();
}

Status ShardedStore::Delete(size_t id) {
  {
    std::lock_guard<std::mutex> lock(writer_mu_);
    RLZ_RETURN_IF_ERROR(CheckWritableLocked());
    RLZ_RETURN_IF_ERROR(ApplyDeleteLocked(id));
    if (wal_ != nullptr) {
      std::string payload;
      wal::PutFixed64(&payload, id);
      RLZ_RETURN_IF_ERROR(LogLocked(wal::RecordType::kDelete, payload));
    }
    PublishLocked();
  }
  // After the tombstoning epoch is published: a cached decode of this id
  // must not outlive the delete (DESIGN.md §11 invariant I3).
  NotifyEviction(id);
  return Status::OK();
}

void ShardedStore::SetEvictionListener(EvictionListener listener) const {
  std::lock_guard<std::mutex> lock(listener_mu_);
  listener_ = std::move(listener);
}

void ShardedStore::NotifyEviction(size_t id) const {
  std::lock_guard<std::mutex> lock(listener_mu_);
  if (listener_) listener_(id);
}

// --- Compaction -----------------------------------------------------------

int ShardedStore::PickCompactionVictimLocked(
    CompactionReport::Reason* reason) const {
  const LiveStoreOptions& live = options_.live;
  int victim = -1;
  double victim_score = 0.0;
  CompactionReport::Reason victim_reason = CompactionReport::Reason::kNone;
  for (size_t s = 0; s < sealed_->shards.size(); ++s) {
    const uint64_t payload = sealed_->shards[s]->payload_bytes();
    if (payload == 0) continue;
    const ShardHealth& health = sealed_->health[s];
    const double tomb_frac =
        static_cast<double>(health.tombstoned_payload_bytes) /
        static_cast<double>(payload);
    const double decay = health.stats.avg_factor_decay(baseline_stats_);
    const bool stale =
        health.unused_dict_fraction >= live.compact_stale_unused_fraction ||
        FactorsDecayed(health, baseline_stats_, live);
    // Tombstone reclamation scores by wasted-byte fraction; staleness by
    // how far the dictionary has decayed. Either trigger qualifies; the
    // worst offender wins.
    double score = 0.0;
    CompactionReport::Reason shard_reason = CompactionReport::Reason::kNone;
    if (health.tombstoned_payload_bytes > 0 &&
        tomb_frac >= live.compact_tombstone_fraction) {
      score = tomb_frac;
      shard_reason = CompactionReport::Reason::kTombstones;
    }
    if (stale) {
      const double stale_score =
          std::max(health.unused_dict_fraction, decay);
      if (stale_score > score) {
        score = stale_score;
        shard_reason = CompactionReport::Reason::kStaleDictionary;
      }
    }
    if (shard_reason != CompactionReport::Reason::kNone &&
        (victim < 0 || score > victim_score)) {
      victim = static_cast<int>(s);
      victim_score = score;
      victim_reason = shard_reason;
    }
  }
  *reason = victim_reason;
  return victim;
}

bool ShardedStore::RefreshDueLocked() const {
  // A tail smaller than a dictionary seals against the current one; the
  // next seal asks again.
  if (tail_.bytes() < shard_dict_bytes_) return false;
  const Dictionary& current = *sealed_->append_dict();
  for (size_t s = sealed_->shards.size(); s-- > 0;) {
    if (sealed_->shards[s]->SharesDictionary(current)) {
      return FactorsDecayed(sealed_->health[s], baseline_stats_,
                            options_.live);
    }
  }
  return false;
}

StatusOr<CompactionReport> ShardedStore::CompactOnce() {
  // One rebuild at a time; mutators never wait on this lock.
  std::lock_guard<std::mutex> compact_lock(compact_mu_);
  CompactionReport report;
  bool durable = false;

  std::shared_ptr<const CorpusEpoch> snapshot;
  int victim = -1;
  {
    std::lock_guard<std::mutex> lock(writer_mu_);
    RLZ_RETURN_IF_ERROR(CheckWritableLocked());
    victim = PickCompactionVictimLocked(&report.reason);
    if (victim < 0) return report;
    snapshot = [&] {
      std::lock_guard<std::mutex> epoch_lock(epoch_mu_);
      return epoch_;
    }();
  }
  // A shard that went stale against a retired append dictionary moves to
  // the current one, which the seals since its refresh encode against
  // (DESIGN.md §11). Every other victim, and any victim of a serving-only
  // open (which encodes nothing against the append dictionary), gets a
  // dictionary re-sampled from its own live text.
  std::shared_ptr<const Dictionary> dict;
  const auto& dicts = snapshot->append_dictionaries();
  // kOwnDictionary lies past every index, so a shard with its own
  // dictionary is not "retired".
  const bool retired = snapshot->shard_dictionary(victim) < dicts.size() - 1;
  if (report.reason == CompactionReport::Reason::kStaleDictionary &&
      retired && !serving_only_) {
    dict = dicts.back();
  }

  // Offline rebuild against the pinned snapshot: decode every live
  // document and re-encode — tombstoned ids shrink to empty entries
  // (their id stays allocated; the tombstone bitmap still answers
  // NotFound). Mutators and readers run concurrently throughout.
  const RlzArchive& old_shard = snapshot->shard(victim);
  const Bitmap* dead = snapshot->tombstones(victim);
  const size_t shard_docs = old_shard.num_docs();
  const size_t shard_start = snapshot->router().start(victim);
  std::string text;
  std::vector<size_t> sizes(shard_docs, 0);
  {
    DecodeScratch scratch;
    std::string buf;
    for (size_t i = 0; i < shard_docs; ++i) {
      if (dead != nullptr && dead->Test(i)) continue;
      const Status status =
          old_shard.Get(i, &buf, /*disk=*/nullptr, &scratch);
      if (!status.ok()) return status;
      text.append(buf);
      sizes[i] = buf.size();
    }
  }
  std::vector<std::string_view> docs(shard_docs);
  size_t offset = 0;
  size_t live_docs = 0;
  for (size_t i = 0; i < shard_docs; ++i) {
    if (dead != nullptr && dead->Test(i)) continue;
    docs[i] = std::string_view(text).substr(offset, sizes[i]);
    offset += sizes[i];
    ++live_docs;
  }
  if (dict == nullptr) {
    dict = DictionaryBuilder::BuildSampled(
        text.empty() ? std::string_view(" ") : std::string_view(text),
        shard_dict_bytes_, kSampleBytes);
  }
  RlzBuildInfo rebuild_info;
  std::shared_ptr<const RlzArchive> rebuilt = EncodeShard(
      &build_pool_, std::move(dict), options_.coding, docs, &rebuild_info);

  // Swap the rewrite into the next epoch. Deletes that landed on this
  // shard during the rebuild were encoded live above; they stay pending
  // (tombstoned-but-stored) and a later pass reclaims them.
  {
    std::lock_guard<std::mutex> lock(writer_mu_);
    // A WAL that failed during the rebuild stops the swap: a failed store
    // publishes nothing more.
    RLZ_RETURN_IF_ERROR(CheckWritableLocked());
    auto next = std::make_shared<ShardSet>(*sealed_);
    report.bytes_before = next->shards[victim]->stored_bytes();
    report.bytes_after = rebuilt->stored_bytes();
    next->shards[victim] = std::move(rebuilt);
    ShardHealth& meta = next->health[victim];
    meta.generation += 1;
    meta.stats = rebuild_info.stats;
    meta.unused_dict_fraction = rebuild_info.unused_dictionary_fraction;
    meta.tombstoned_payload_bytes = 0;
    const Bitmap* now_dead = next->tombstones[victim].get();
    if (now_dead != nullptr) {
      const DocMap& map = next->shards[victim]->doc_map();
      for (size_t i = 0; i < now_dead->size(); ++i) {
        if (!now_dead->Test(i)) continue;
        const bool reclaimed = dead != nullptr && dead->Test(i);
        if (!reclaimed) meta.tombstoned_payload_bytes += map.size(i);
      }
    }
    report.generation = meta.generation;
    // The victim's old dictionary is retired once no shard binds to it.
    DropUnboundDicts(next.get(), &dict_files_);
    sealed_ = std::move(next);
    shard_files_[victim].clear();  // the next checkpoint writes the rewrite
    PublishLocked();
    durable = wal_ != nullptr;
  }

  // A compaction is not a WAL record — replaying the log over the old
  // checkpoint reproduces the same logical corpus, just uncompacted. A
  // fresh checkpoint makes the reclaimed bytes durable so a crash does
  // not resurrect the pre-compaction shard files forever.
  if (durable) {
    RLZ_RETURN_IF_ERROR(WriteCheckpoint());
  }

  report.compacted = true;
  report.shard = victim;
  report.live_docs = live_docs;
  report.dead_docs = shard_docs - live_docs;
  // Reclaimed ids were tombstoned long before this pass (their cache
  // entries were erased at Delete time); re-notify anyway so a listener
  // attached later than the delete cannot serve bytes the store no
  // longer holds.
  if (dead != nullptr) {
    for (size_t i = 0; i < dead->size(); ++i) {
      if (dead->Test(i)) NotifyEviction(shard_start + i);
    }
  }
  return report;
}

// --- Persistence ----------------------------------------------------------

Manifest ShardedStore::ManifestLocked(
    std::shared_ptr<const CorpusEpoch>* snapshot) const {
  // The epoch pins the shards, health records, tombstones and tail; the
  // baseline is fixed once the store is built.
  {
    std::lock_guard<std::mutex> epoch_lock(epoch_mu_);
    *snapshot = epoch_;
  }
  const CorpusEpoch& epoch = **snapshot;
  Manifest manifest;
  manifest.sequence = epoch.sequence();
  manifest.router = epoch.router_ptr();
  manifest.health = epoch.sealed_->health;
  manifest.baseline = baseline_stats_;
  for (int s = 0; s < epoch.num_shards(); ++s) {
    manifest.tombstones.push_back(SetBits(epoch.tombstones(s)));
    manifest.shard_dicts.push_back(epoch.shard_dictionary(s));
  }
  manifest.tail_tombstones = SetBits(epoch.tail_tombstones());
  const TailSegment& tail = epoch.tail();
  manifest.tail_docs.reserve(tail.num_docs());
  for (size_t i = 0; i < tail.num_docs(); ++i) {
    manifest.tail_docs.push_back(tail.doc(i));
  }
  manifest.live = options_.live;
  manifest.shard_dict_bytes = shard_dict_bytes_;
  return manifest;
}

Status ShardedStore::Save(const std::string& path) const {
  std::shared_ptr<const CorpusEpoch> snapshot;
  Manifest manifest;
  {
    std::lock_guard<std::mutex> lock(writer_mu_);
    manifest = ManifestLocked(&snapshot);
  }

  std::string dir;
  std::string base;
  SplitPath(path, &dir, &base);
  // Shards and dictionaries first, manifest last: a torn save leaves
  // orphan files, never a manifest that names missing ones.
  for (int s = 0; s < snapshot->num_shards(); ++s) {
    manifest.shard_names.push_back(
        ShardFileName(base, static_cast<size_t>(s)));
    RLZ_RETURN_IF_ERROR(WriteFile(dir + manifest.shard_names.back(),
                                  ShardFileBytes(*snapshot, s)));
  }
  const auto& dicts = snapshot->append_dictionaries();
  for (size_t d = 0; d < dicts.size(); ++d) {
    manifest.dict_names.push_back(DictFileName(base, d));
    RLZ_RETURN_IF_ERROR(
        WriteFile(dir + manifest.dict_names.back(), dicts[d]->Serialize()));
  }
  return WriteFile(path, manifest.Encode());
}

StatusOr<std::unique_ptr<ShardedStore>> ShardedStore::FromEnvelope(
    const ParsedEnvelope& envelope, const std::string& path,
    const OpenOptions& options) {
  RLZ_ASSIGN_OR_RETURN(Manifest manifest, Manifest::Parse(envelope));
  return FromManifest(std::move(manifest), path, options);
}

StatusOr<std::unique_ptr<ShardedStore>> ShardedStore::FromManifest(
    Manifest manifest, const std::string& path, const OpenOptions& options) {
  std::string dir;
  std::string base;
  SplitPath(path, &dir, &base);
  const ShardRouter& router = *manifest.router;
  const size_t nshards = router.num_shards();
  std::unique_ptr<ShardedStore> store(new ShardedStore());

  // The append dictionaries first: every "rlzshard" shard decodes
  // against one of these objects. None gets a suffix array here: the
  // first seal builds the current one's, with match keys, and nothing
  // encodes against a retired one again.
  auto sealed = std::make_shared<ShardSet>();
  const size_t ndicts = manifest.dict_names.size();
  for (size_t d = 0; d < ndicts; ++d) {
    const std::string dict_path = dir + manifest.dict_names[d];
    RLZ_ASSIGN_OR_RETURN(RawContainerFile raw,
                         ReadContainerFile(dict_path, options));
    RLZ_ASSIGN_OR_RETURN(
        ParsedEnvelope envelope,
        ParsedEnvelope::FromView(raw.view, raw.owner, dict_path));
    // Validation scanned sequentially; decodes read the text at random.
    if (raw.map != nullptr) raw.map->Advise(MmapFile::Access::kRandom);
    RLZ_ASSIGN_OR_RETURN(std::unique_ptr<Dictionary> dict,
                         Dictionary::FromEnvelope(envelope));
    if (d + 1 == ndicts) dict->UseMatchKeys();
    sealed->append_dicts.push_back(std::move(dict));
  }

  // Shard files open in parallel: an "rlz" container carries its own
  // dictionary, an "rlzshard" one is bound to the append dictionary the
  // manifest names for it. The store never factorizes against a sealed
  // shard's own dictionary (seals use the current append dictionary;
  // compaction moves a shard to it or samples a fresh one), so none
  // builds a matcher.
  sealed->shards.resize(nshards);
  std::vector<Status> statuses(nshards);
  // `nshards` comes from the (untrusted, CRC-valid) manifest: the worker
  // count is capped at the process's CPUs so a crafted count cannot fan
  // out thousands of threads — the per-shard opens then fail cleanly on
  // the missing files. A short-lived pool at default priority, like
  // Build's.
  BuildPool pool(static_cast<int>(
      std::min<size_t>(nshards, static_cast<size_t>(AvailableCpus()))));
  BuildPipeline pipeline(&pool);
  // A shard the manifest says carries its own dictionary is opened
  // against the current one as well: the binding check below then
  // rejects an "rlzshard" file there as it rejects an "rlz" file where
  // the manifest names a dictionary.
  const auto dict_of = [&](size_t s) {
    const uint64_t d = manifest.shard_dicts[s];
    return d == Manifest::kOwnDictionary ? sealed->append_dicts.back()
                                         : sealed->append_dicts[d];
  };
  for (size_t s = 0; s < nshards; ++s) {
    pipeline.Submit(
        [&, s](int) {
          auto shard = RlzArchive::Load(dir + manifest.shard_names[s],
                                        options, dict_of(s));
          if (shard.ok()) {
            sealed->shards[s] = std::move(shard).value();
          } else {
            statuses[s] = shard.status();
          }
        },
        [] {});
  }
  pipeline.Finish();
  for (const Status& status : statuses) {
    RLZ_RETURN_IF_ERROR(status);
  }
  sealed->tombstones.resize(nshards);
  for (size_t s = 0; s < nshards; ++s) {
    const size_t shard_docs = router.start(s + 1) - router.start(s);
    if (sealed->shards[s]->num_docs() != shard_docs) {
      return Status::Corruption(dir + manifest.shard_names[s] +
                                ": shard document count disagrees with "
                                "the manifest");
    }
    const bool bound = manifest.shard_dicts[s] != Manifest::kOwnDictionary;
    if (sealed->shards[s]->SharesDictionary(*dict_of(s)) != bound) {
      return Status::Corruption(dir + manifest.shard_names[s] +
                                ": shard dictionary binding disagrees "
                                "with the manifest");
    }
    sealed->tombstones[s] = BitmapOf(manifest.tombstones[s], shard_docs);
    store->deleted_docs_ += manifest.tombstones[s].size();
  }

  sealed->router = std::move(manifest.router);
  sealed->health = std::move(manifest.health);
  store->sealed_ = std::move(sealed);
  store->shard_files_.assign(nshards, std::string());
  store->dict_files_.assign(ndicts, std::string());
  store->baseline_stats_ = manifest.baseline;
  store->next_sequence_ = manifest.sequence;
  store->tail_tombstones_ =
      BitmapOf(manifest.tail_tombstones, manifest.tail_docs.size());
  store->deleted_docs_ += manifest.tail_tombstones.size();
  for (auto& doc : manifest.tail_docs) store->tail_.Append(std::move(doc));

  // Restore the mutation path: the coding comes from shard 0 (every shard
  // encodes with the same pair), the seal and compaction knobs from the
  // manifest. The open tail stays raw until it seals.
  store->options_.coding = store->sealed_->shards[0]->coder().coding();
  store->options_.live = manifest.live;
  store->shard_dict_bytes_ = std::max<uint64_t>(1, manifest.shard_dict_bytes);
  store->serving_only_ = !options.build_suffix_array;
  {
    std::lock_guard<std::mutex> lock(store->writer_mu_);
    store->PublishLocked();
  }
  return store;
}

StatusOr<std::unique_ptr<ShardedStore>> ShardedStore::Open(
    const std::string& path, const OpenOptions& options) {
  RLZ_ASSIGN_OR_RETURN(ParsedEnvelope envelope, ReadEnvelopeFile(path));
  return FromEnvelope(envelope, path, options);
}

// --- Durability (DESIGN.md §12) -------------------------------------------

Status ShardedStore::CheckWritableLocked() const {
  if (read_only_) {
    return Status::InvalidArgument(
        "sharded store: serving-only durable open is read-only");
  }
  // A failed WAL is fail-stop: its latched error refuses every mutation.
  return wal_ != nullptr ? wal_->status() : Status::OK();
}

Status ShardedStore::CheckAppendDictionaryLocked() const {
  if (serving_only_) {
    return Status::InvalidArgument(
        "sharded store: no append dictionary (serving-only open); appends "
        "and seals are disabled");
  }
  return Status::OK();
}

Status ShardedStore::LogLocked(wal::RecordType type, std::string_view payload) {
  // A WAL failure is fail-stop: the writer latches its first I/O error,
  // so this call and every later one (and CheckWritableLocked) return it,
  // and the store publishes no mutation after the fault. Acking without
  // the log record would break the durability contract; writing after a
  // partial frame would hide later records behind a torn tail.
  return wal_->Append(type, payload).status();
}

Status ShardedStore::MakeDurable(const std::string& dir,
                                 const wal::WalWriterOptions& wal_options,
                                 std::shared_ptr<FileSystem> fs) {
  {
    std::lock_guard<std::mutex> lock(writer_mu_);
    RLZ_RETURN_IF_ERROR(CheckWritableLocked());
    if (wal_ != nullptr) {
      return Status::InvalidArgument("sharded store: already durable");
    }
    fs_ = fs != nullptr ? std::move(fs) : DefaultFileSystem();
    durable_dir_ = dir;
    // Names a manifest gave the files point into another directory (or
    // none): the first checkpoint writes every shard and append
    // dictionary into this one.
    shard_files_.assign(sealed_->shards.size(), std::string());
    dict_files_.assign(sealed_->append_dicts.size(), std::string());
    RLZ_RETURN_IF_ERROR(fs_->CreateDir(dir));
    RLZ_ASSIGN_OR_RETURN(
        wal_, wal::WalWriter::Create(fs_, dir, /*generation=*/1, /*seq=*/0,
                                     /*start_lsn=*/0, wal_options));
  }
  // Checkpoint generation 1 captures the pre-durability state; until its
  // CURRENT lands the directory is not yet openable, so a crash inside
  // this call loses nothing that was ever acked as durable.
  return WriteCheckpoint();
}

Status ShardedStore::Checkpoint() {
  const Status status = WriteCheckpoint();
  std::lock_guard<std::mutex> checkpoint_lock(checkpoint_mu_);
  const Status first = std::exchange(post_seal_error_, Status::OK());
  return first.ok() ? status : first;
}

void ShardedStore::CheckpointAfterSeal() {
  // The seal's record is already logged, so a failure here loses
  // nothing: the previous checkpoint stays live and replay re-seals.
  const Status status = WriteCheckpoint();
  if (status.ok()) return;
  std::lock_guard<std::mutex> checkpoint_lock(checkpoint_mu_);
  if (post_seal_error_.ok()) post_seal_error_ = status;
}

Status ShardedStore::WriteCheckpoint() {
  // One checkpoint at a time; mutators are blocked only for the
  // sync-and-roll plus the snapshot copy below, not for the shard writes.
  std::lock_guard<std::mutex> checkpoint_lock(checkpoint_mu_);
  std::shared_ptr<const CorpusEpoch> snapshot;
  Manifest manifest;
  uint64_t generation = 0;
  uint64_t covered = 0;
  std::vector<wal::SegmentStart> segments;
  uint64_t live_segment = 0;
  {
    std::lock_guard<std::mutex> lock(writer_mu_);
    if (wal_ == nullptr) {
      return Status::InvalidArgument("sharded store: not durable");
    }
    // Rolling at the coverage boundary keeps every segment wholly inside
    // or wholly outside the checkpoint — recovery's segment GC rule
    // depends on coverage landing exactly between segments.
    generation = checkpoint_generation_ + 1;
    covered = wal_->next_lsn();
    RLZ_RETURN_IF_ERROR(wal_->Roll(generation));
    segments = wal_->segment_starts();
    live_segment = wal_->segment_seq();
    manifest = ManifestLocked(&snapshot);
    manifest.shard_names = shard_files_;
    manifest.dict_names = dict_files_;
  }

  // Write-new: every new file lands under the next generation, fsync'd,
  // without touching the live checkpoint. A crash anywhere in here
  // leaves CURRENT pointing at the old complete checkpoint. A shard that
  // a committed checkpoint already holds is immutable, so the manifest
  // names that file again instead of rewriting it (DESIGN.md §12).
  const std::string manifest_name =
      wal::CheckpointManifestFileName(generation);
  std::vector<std::string>& shard_names = manifest.shard_names;
  const size_t nshards = static_cast<size_t>(snapshot->num_shards());
  RLZ_CHECK_EQ(shard_names.size(), nshards);
  for (size_t s = 0; s < nshards; ++s) {
    if (!shard_names[s].empty()) continue;
    shard_names[s] = ShardFileName(manifest_name, s);
    RLZ_RETURN_IF_ERROR(fs_->WriteFileSynced(
        durable_dir_ + "/" + shard_names[s],
        ShardFileBytes(*snapshot, static_cast<int>(s))));
  }
  // An append dictionary never changes: the first checkpoint that holds
  // it writes it, and every later one names that file again.
  const auto& dicts = snapshot->append_dictionaries();
  std::vector<std::string>& dict_names = manifest.dict_names;
  RLZ_CHECK_EQ(dict_names.size(), dicts.size());
  for (size_t d = 0; d < dicts.size(); ++d) {
    if (!dict_names[d].empty()) continue;
    dict_names[d] = DictFileName(manifest_name, d);
    RLZ_RETURN_IF_ERROR(fs_->WriteFileSynced(
        durable_dir_ + "/" + dict_names[d], dicts[d]->Serialize()));
  }
  RLZ_RETURN_IF_ERROR(fs_->WriteFileSynced(durable_dir_ + "/" + manifest_name,
                                           manifest.Encode()));
  wal::CheckpointInfo info;
  info.generation = generation;
  info.covered_lsn = covered;
  info.manifest = manifest_name;
  RLZ_RETURN_IF_ERROR(wal::WriteCheckpointMeta(*fs_, durable_dir_, info));
  RLZ_RETURN_IF_ERROR(fs_->SyncDir(durable_dir_));
  // The commit point: CURRENT flips to the new generation atomically.
  RLZ_RETURN_IF_ERROR(wal::WriteCurrent(*fs_, durable_dir_, generation));
  {
    std::lock_guard<std::mutex> lock(writer_mu_);
    checkpoint_generation_ = generation;
    // Shards still identical to the snapshot's are now held by the live
    // checkpoint; a shard sealed or compacted since stays unnamed. So
    // does a dictionary: one refreshed since is not in the snapshot.
    for (size_t s = 0; s < nshards; ++s) {
      if (sealed_->shards[s].get() == &snapshot->shard(static_cast<int>(s))) {
        shard_files_[s] = shard_names[s];
      }
    }
    for (size_t d = 0; d < sealed_->append_dicts.size(); ++d) {
      const auto held = std::find(dicts.begin(), dicts.end(),
                                  sealed_->append_dicts[d]);
      if (held != dicts.end()) {
        dict_files_[d] = dict_names[static_cast<size_t>(held - dicts.begin())];
      }
    }
  }
  // Best-effort cleanup of superseded files and covered WAL; files the
  // new manifest names survive whatever generation wrote them, so a
  // dictionary file lives while a shard binds to it. The segments this
  // process wrote are known without reading them; every one before the
  // roll is covered, so a clean GC deletes them all.
  std::vector<std::string> keep = shard_names;
  keep.insert(keep.end(), dict_names.begin(), dict_names.end());
  RLZ_RETURN_IF_ERROR(
      wal::GarbageCollect(*fs_, durable_dir_, info, keep, segments));
  std::lock_guard<std::mutex> lock(writer_mu_);
  if (wal_ != nullptr) wal_->ForgetSegmentsBefore(live_segment);
  return Status::OK();
}

Status ShardedStore::SyncWal() {
  std::lock_guard<std::mutex> lock(writer_mu_);
  if (wal_ == nullptr) {
    return Status::InvalidArgument("sharded store: not durable");
  }
  return wal_->Sync();
}

bool ShardedStore::durable() const {
  std::lock_guard<std::mutex> lock(writer_mu_);
  return wal_ != nullptr || read_only_;
}

bool ShardedStore::read_only() const {
  std::lock_guard<std::mutex> lock(writer_mu_);
  return read_only_;
}

uint64_t ShardedStore::checkpoint_generation() const {
  std::lock_guard<std::mutex> lock(writer_mu_);
  return checkpoint_generation_;
}

StatusOr<std::unique_ptr<ShardedStore>> ShardedStore::OpenFromCheckpoint(
    const std::string& dir, const wal::CheckpointInfo& info,
    const OpenOptions& options, const wal::WalWriterOptions& wal_options,
    const std::shared_ptr<FileSystem>& fs, RecoveryReport* report) {
  const std::shared_ptr<FileSystem> io =
      fs != nullptr ? fs
                    : (options.fs != nullptr ? options.fs
                                             : DefaultFileSystem());
  // An injected file system routes the shard and dictionary opens too;
  // on the real one they are mapped, not copied: a committed
  // checkpoint's files are never rewritten in place (DESIGN.md §12).
  OpenOptions open_options = options;
  if (fs != nullptr) open_options.fs = fs;
  if (open_options.fs == nullptr) open_options.use_mmap = true;

  const std::string manifest_path = dir + "/" + info.manifest;
  RLZ_ASSIGN_OR_RETURN(std::string raw, io->Read(manifest_path));
  RLZ_ASSIGN_OR_RETURN(
      ParsedEnvelope envelope,
      ParsedEnvelope::FromBytes(std::move(raw), manifest_path));
  RLZ_ASSIGN_OR_RETURN(Manifest manifest, Manifest::Parse(envelope));
  std::vector<std::string> shard_names = manifest.shard_names;
  std::vector<std::string> dict_names = manifest.dict_names;
  RLZ_ASSIGN_OR_RETURN(
      std::unique_ptr<ShardedStore> store,
      FromManifest(std::move(manifest), manifest_path, open_options));
  // Every loaded file is already in `dir`, under the manifest's names.
  store->shard_files_ = std::move(shard_names);
  store->dict_files_ = std::move(dict_names);

  store->fs_ = io;
  store->durable_dir_ = dir;
  store->checkpoint_generation_ = info.generation;
  // A serving-only open never writes: no WAL writer, mutations disabled.
  store->read_only_ = store->serving_only_;

  wal::ReplayResult replay;
  {
    std::lock_guard<std::mutex> lock(store->writer_mu_);
    ShardedStore* raw_store = store.get();
    auto apply = [raw_store, &dir](uint64_t lsn, wal::RecordType type,
                                   std::string_view payload) -> Status {
      (void)lsn;
      switch (type) {
        case wal::RecordType::kAppend:
          raw_store->ApplyAppendLocked(payload);
          return Status::OK();
        case wal::RecordType::kDelete: {
          if (payload.size() != 8) {
            return Status::Corruption(dir + ": bad wal delete payload");
          }
          const uint64_t id = wal::GetFixed64(payload.data());
          const Status status =
              raw_store->ApplyDeleteLocked(static_cast<size_t>(id));
          if (!status.ok()) {
            // A logged delete must re-apply over the checkpoint it
            // followed; an unknown or doubly-deleted id means the log
            // and checkpoint disagree.
            return Status::Corruption(dir + ": wal replay delete failed: " +
                                      status.message());
          }
          return Status::OK();
        }
        case wal::RecordType::kSeal: {
          // The payload says whether the logged seal refreshed the
          // append dictionary; replay obeys it and never re-derives it.
          const bool refresh = payload == kRefreshSeal;
          if (!refresh && !payload.empty()) {
            return Status::Corruption(dir + ": bad wal seal payload");
          }
          // Serving-only recovery leaves the tail raw: sealing would
          // encode, and build the suffix array a serving-only store never
          // needs. Document ids and bytes are identical either way.
          if (raw_store->read_only_) return Status::OK();
          return raw_store->ApplySealLocked(refresh);
        }
      }
      return Status::Corruption(dir + ": unknown wal record type");
    };
    RLZ_ASSIGN_OR_RETURN(replay,
                         wal::ReplayWal(io, dir, info.covered_lsn, apply));
    if (!store->read_only_) {
      // Always a fresh segment: recovery never appends to a segment that
      // existed before the crash, so a re-crash cannot mix old and new
      // suffixes in one file.
      RLZ_ASSIGN_OR_RETURN(
          store->wal_,
          wal::WalWriter::Create(io, dir, info.generation, replay.next_seq,
                                 replay.next_lsn, wal_options));
    }
    store->PublishLocked();
  }
  if (report != nullptr) {
    report->generation = info.generation;
    report->replayed_records = replay.replayed;
    report->next_lsn = replay.next_lsn;
    report->torn_tail = replay.torn;
  }
  return store;
}

StatusOr<std::unique_ptr<ShardedStore>> ShardedStore::OpenDurable(
    const std::string& dir, const OpenOptions& options,
    const wal::WalWriterOptions& wal_options, std::shared_ptr<FileSystem> fs,
    RecoveryReport* report) {
  const std::shared_ptr<FileSystem> io =
      fs != nullptr ? fs
                    : (options.fs != nullptr ? options.fs
                                             : DefaultFileSystem());
  // CURRENT names the live checkpoint; when it is missing or damaged,
  // every readable meta is a candidate, newest first. Trying candidates
  // in order turns "CURRENT got corrupted" into a recoverable state
  // instead of a dead directory.
  std::vector<wal::CheckpointInfo> candidates;
  StatusOr<uint64_t> current = wal::ReadCurrent(*io, dir);
  if (current.ok()) {
    StatusOr<wal::CheckpointInfo> info =
        wal::ReadCheckpointMeta(*io, dir, *current);
    if (info.ok()) candidates.push_back(*std::move(info));
  }
  if (candidates.empty()) {
    RLZ_ASSIGN_OR_RETURN(candidates, wal::ListCheckpoints(*io, dir));
  }
  if (candidates.empty()) {
    return Status::Corruption(dir + ": no usable checkpoint");
  }
  Status last = Status::OK();
  for (const wal::CheckpointInfo& info : candidates) {
    StatusOr<std::unique_ptr<ShardedStore>> store =
        OpenFromCheckpoint(dir, info, options, wal_options, fs, report);
    if (store.ok()) return store;
    last = store.status();
  }
  return last;
}

}  // namespace rlz
