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
/// structurally — sealed shards, tombstone bitmaps, and tail documents
/// are carried by shared_ptr from one epoch to the next — so publishing
/// a new epoch copies pointers, never payload bytes.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/rlz_archive.h"
#include "serve/shard_router.h"
#include "store/decode_scratch.h"
#include "util/bitmap.h"
#include "util/status.h"

namespace rlz {

/// An immutable snapshot of the open tail segment: the raw bytes of every
/// document appended since the last seal, in append order. The tail is
/// the live store's memtable — documents are served from these
/// memory-resident bytes (no decode) until the segment seals into a
/// compressed shard. Snapshots share document strings structurally:
/// appending copies the pointer vector, never the text.
struct TailSegment {
  /// The appended documents, in id order (doc `sealed_docs + i` is
  /// `docs[i]`).
  std::vector<std::shared_ptr<const std::string>> docs;
  /// Total raw bytes across `docs`.
  uint64_t bytes = 0;
};

/// One immutable snapshot of a live ShardedStore: the sealed compressed
/// shards, the doc-id router over them, per-shard tombstone bitmaps, and
/// a snapshot of the open tail segment. All state is immutable — readers
/// holding an epoch observe byte-identical documents no matter what the
/// mutation path publishes after them (DESIGN.md §11).
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
  size_t sealed_docs() const { return router_->num_docs(); }
  /// Documents in the tail snapshot.
  size_t tail_docs() const {
    return tail_ == nullptr ? 0 : tail_->docs.size();
  }
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
  int num_shards() const { return static_cast<int>(shards_.size()); }
  /// Sealed shard `s` (s must be < num_shards()).
  const RlzArchive& shard(int s) const { return *shards_[s]; }
  /// Shared handle to sealed shard `s` — lets a compactor decode from a
  /// pinned shard while later epochs have already replaced it.
  std::shared_ptr<const RlzArchive> shard_ptr(int s) const {
    return shards_[static_cast<size_t>(s)];
  }
  /// Rewrite generation of shard `s`: 0 when first sealed, +1 per
  /// compaction that swapped a rewrite in.
  uint64_t shard_generation(int s) const {
    return generations_[static_cast<size_t>(s)];
  }
  /// The doc-id → shard map over the sealed shards.
  const ShardRouter& router() const { return *router_; }
  /// Shared handle to the router (the serving layer's routing snapshot).
  std::shared_ptr<const ShardRouter> router_ptr() const { return router_; }
  /// The tail snapshot; may be null when no documents are unsealed.
  const TailSegment* tail() const { return tail_.get(); }
  /// Tombstone bitmap of sealed shard `s`; null when the shard has no
  /// tombstones. Bit i covers the shard-local document i.
  const Bitmap* tombstones(int s) const {
    return tombstones_[static_cast<size_t>(s)].get();
  }
  /// Tombstone bitmap over tail documents (bit i covers tail doc i); null
  /// when no tail document is tombstoned. May address fewer bits than
  /// tail_docs() — ids past its end are live.
  const Bitmap* tail_tombstones() const { return tail_tombstones_.get(); }

  /// Sum of sealed shard bytes plus raw tail bytes — the epoch's "Enc."
  /// numerator.
  uint64_t stored_bytes() const;

 private:
  friend class ShardedStore;

  CorpusEpoch() = default;

  uint64_t sequence_ = 0;
  std::vector<std::shared_ptr<const RlzArchive>> shards_;
  std::vector<uint64_t> generations_;  // parallel to shards_
  std::shared_ptr<const ShardRouter> router_;
  // Parallel to shards_; a null entry means "no tombstones in this shard".
  std::vector<std::shared_ptr<const Bitmap>> tombstones_;
  std::shared_ptr<const Bitmap> tail_tombstones_;  // null = none
  std::shared_ptr<const TailSegment> tail_;        // null = empty tail
  uint64_t deleted_docs_ = 0;
};

}  // namespace rlz

#endif  // RLZ_SERVE_CORPUS_EPOCH_H_
