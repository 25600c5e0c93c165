#ifndef RLZ_SERVE_CORPUS_EPOCH_H_
#define RLZ_SERVE_CORPUS_EPOCH_H_

/// \file
/// Immutable epoch snapshots of a live sharded corpus (DESIGN.md §11).
///
/// A CorpusEpoch is the unit of isolation between the mutation path and
/// the serving path: every reader pins one epoch (a shared_ptr copy) for
/// the duration of a request and decodes exclusively against that
/// snapshot, so an Append, Delete, tail seal, or compaction swap can
/// never race a decode in flight. Epochs share unchanged state
/// structurally — the sealed shard set and the tail's chunks are carried
/// by shared_ptr from one epoch to the next — so publishing an append
/// copies a few pointers, never payload bytes and never a per-shard or
/// per-document vector.

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/rlz_archive.h"
#include "serve/manifest.h"
#include "serve/shard_router.h"
#include "store/decode_scratch.h"
#include "util/bitmap.h"
#include "util/status.h"

namespace rlz {

/// The sealed half of an epoch: the compressed shards, the doc-id router
/// over them, and each shard's health record and tombstones. A set is
/// immutable once published; epochs share one set until a seal, a
/// compaction swap or a delete in a sealed shard publishes a new one.
struct ShardSet {
  std::vector<std::shared_ptr<const RlzArchive>> shards;
  /// Parallel to `shards`.
  std::vector<ShardHealth> health;
  /// Parallel to `shards`; a null entry means "no tombstones in this
  /// shard". Bit i covers the shard-local document i.
  std::vector<std::shared_ptr<const Bitmap>> tombstones;
  /// Shard s owns doc ids [router->start(s), router->start(s + 1)).
  std::shared_ptr<const ShardRouter> router;
  /// The append dictionaries: every retired one that some shard still
  /// binds to, then the current one, which every tail seal encodes
  /// against and which stays here whether or not a shard binds to it.
  /// Never empty. A seal replaces the current one when the shards sealed
  /// against it have decayed (DESIGN.md §11). The shards sealed from the
  /// tail share these objects (RlzArchive::SharesDictionary), and the
  /// store persists each once.
  std::vector<std::shared_ptr<const Dictionary>> append_dicts;

  /// The current append dictionary.
  const std::shared_ptr<const Dictionary>& append_dict() const {
    return append_dicts.back();
  }
  /// The index in `append_dicts` of the dictionary shard `s` is bound
  /// to, or Manifest::kOwnDictionary when the shard carries its own.
  uint64_t DictOf(size_t s) const;
};

/// A snapshot of the open tail segment: the raw bytes of the first
/// num_docs() documents appended since the last seal, in append order.
/// The tail is the live store's memtable — documents are served from
/// these memory-resident bytes (no decode) until the segment seals into a
/// compressed shard.
///
/// The documents sit in fixed-size chunks that every snapshot of one
/// tail shares. The store's writer fills the slot past its own count —
/// past the count of every snapshot published so far — and only then
/// publishes a snapshot that counts it; a slot is never written twice.
/// So an append copies the chunk list's pointer (the list itself only
/// when a chunk fills), never the text and never a pointer per document.
class TailSegment {
 public:
  /// Documents per chunk.
  static constexpr size_t kChunkDocs = 64;

  /// Documents in this snapshot.
  size_t num_docs() const { return num_docs_; }
  /// Total raw bytes across the documents.
  uint64_t bytes() const { return bytes_; }
  /// Document `i` (i must be < num_docs()); tail doc i has id
  /// `sealed_docs + i`.
  const std::shared_ptr<const std::string>& doc(size_t i) const {
    return (*chunks_)[i / kChunkDocs]->at(i % kChunkDocs);
  }

 private:
  friend class ShardedStore;
  using Chunk = std::array<std::shared_ptr<const std::string>, kChunkDocs>;
  using ChunkList = std::vector<std::shared_ptr<Chunk>>;

  // Writer side (the store's own tail, never a published copy): fills the
  // next slot and counts it.
  void Append(std::shared_ptr<const std::string> doc);

  // The chunks; the list is replaced, not grown, when a chunk fills.
  std::shared_ptr<const ChunkList> chunks_;
  size_t num_docs_ = 0;
  uint64_t bytes_ = 0;
};

/// One immutable snapshot of a live ShardedStore: a sealed shard set
/// (compressed shards, the doc-id router over them, health records and
/// tombstone bitmaps) and a snapshot of the open tail segment. All state
/// is immutable — readers holding an epoch observe byte-identical
/// documents no matter what the mutation path publishes after them
/// (DESIGN.md §11).
///
/// Doc-id model: ids are dense and permanent. Sealed shards own
/// [0, sealed_docs()); tail documents continue at sealed_docs(). Deleting
/// a document tombstones its id (Get returns NotFound) but never
/// reassigns it, so an id means the same bytes in every epoch that can
/// resolve it.
class CorpusEpoch {
 public:
  /// Monotone publication counter: epoch N+1 supersedes epoch N. The
  /// initial build publishes sequence 0.
  uint64_t sequence() const { return sequence_; }

  /// Total documents this epoch can resolve (sealed + tail), including
  /// tombstoned ids.
  size_t num_docs() const { return sealed_docs() + tail_docs(); }
  /// Documents owned by sealed shards.
  size_t sealed_docs() const { return sealed_->router->num_docs(); }
  /// Documents in the tail snapshot.
  size_t tail_docs() const { return tail_.num_docs(); }
  /// Tombstoned ids in this epoch (sealed + tail).
  uint64_t deleted_docs() const { return deleted_docs_; }
  /// Documents that Get would serve (num_docs() - deleted_docs()).
  size_t live_docs() const {
    return num_docs() - static_cast<size_t>(deleted_docs_);
  }

  /// True if `id` is tombstoned in this epoch (`id` must be < num_docs()).
  bool IsDeleted(size_t id) const;

  /// Decodes document `id` from this snapshot. Sealed ids decode against
  /// their shard; tail ids copy the memory-resident raw bytes. Returns
  /// OutOfRange for an id this epoch cannot resolve and NotFound for a
  /// tombstoned id.
  Status Get(size_t id, std::string* doc, DecodeScratch* scratch) const;

  /// As Get, but retrieves only bytes [offset, offset+length), clamped to
  /// the document end — the snippet path.
  Status GetRange(size_t id, size_t offset, size_t length, std::string* text,
                  DecodeScratch* scratch) const;

  /// Number of sealed shards.
  int num_shards() const { return static_cast<int>(sealed_->shards.size()); }
  /// Sealed shard `s` (s must be < num_shards()).
  const RlzArchive& shard(int s) const {
    return *sealed_->shards[static_cast<size_t>(s)];
  }
  /// Health record of sealed shard `s` as of this epoch.
  const ShardHealth& shard_health(int s) const {
    return sealed_->health[static_cast<size_t>(s)];
  }
  /// Rewrite generation of shard `s`: 0 when first sealed, +1 per
  /// compaction that swapped a rewrite in.
  uint64_t shard_generation(int s) const {
    return shard_health(s).generation;
  }
  /// The doc-id → shard map over the sealed shards.
  const ShardRouter& router() const { return *sealed_->router; }
  /// Shared handle to the router (the serving layer's routing snapshot).
  std::shared_ptr<const ShardRouter> router_ptr() const {
    return sealed_->router;
  }
  /// The tail snapshot (num_docs() 0 when no documents are unsealed).
  const TailSegment& tail() const { return tail_; }
  /// Tombstone bitmap of sealed shard `s`; null when the shard has no
  /// tombstones. Bit i covers the shard-local document i.
  const Bitmap* tombstones(int s) const {
    return sealed_->tombstones[static_cast<size_t>(s)].get();
  }
  /// Tombstone bitmap over tail documents (bit i covers tail doc i); null
  /// when no tail document is tombstoned. May address fewer bits than
  /// tail_docs() — ids past its end are live.
  const Bitmap* tail_tombstones() const { return tail_tombstones_.get(); }
  /// The store's current append dictionary (ShardSet::append_dict).
  const Dictionary& append_dictionary() const {
    return *sealed_->append_dict();
  }
  /// Every append dictionary a shard of this epoch binds to, the current
  /// one last (ShardSet::append_dicts).
  const std::vector<std::shared_ptr<const Dictionary>>& append_dictionaries()
      const {
    return sealed_->append_dicts;
  }
  /// The index in append_dictionaries() of the dictionary sealed shard
  /// `s` is bound to, or Manifest::kOwnDictionary (ShardSet::DictOf).
  uint64_t shard_dictionary(int s) const {
    return sealed_->DictOf(static_cast<size_t>(s));
  }

  /// Sealed shard payloads and document maps, each distinct dictionary
  /// once (every append dictionary, which the shards sealed from the tail
  /// share, and every other shard's own), plus the raw tail bytes — the
  /// epoch's "Enc." numerator, and what the store's files hold.
  uint64_t stored_bytes() const;

 private:
  friend class ShardedStore;

  CorpusEpoch() = default;

  uint64_t sequence_ = 0;
  std::shared_ptr<const ShardSet> sealed_;
  TailSegment tail_;
  std::shared_ptr<const Bitmap> tail_tombstones_;  // null = none
  uint64_t deleted_docs_ = 0;
};

}  // namespace rlz

#endif  // RLZ_SERVE_CORPUS_EPOCH_H_
