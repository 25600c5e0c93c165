#include "serve/corpus_epoch.h"

#include <algorithm>

namespace rlz {
namespace {

// True if bit `i` is set in `bm` — where a null or short bitmap means
// "not tombstoned" (tombstone bitmaps are sized when the first delete
// lands, and a tail bitmap may predate later appends).
bool TestTombstone(const Bitmap* bm, size_t i) {
  return bm != nullptr && i < bm->size() && bm->Test(i);
}

}  // namespace

void TailSegment::Append(std::shared_ptr<const std::string> doc) {
  if (num_docs_ % kChunkDocs == 0) {
    // The current chunk is full (or there is none): publish a longer list.
    // Snapshots taken so far keep the old list, which still names every
    // chunk they can read.
    auto chunks = chunks_ == nullptr ? std::make_shared<ChunkList>()
                                     : std::make_shared<ChunkList>(*chunks_);
    chunks->push_back(std::make_shared<Chunk>());
    chunks_ = std::move(chunks);
  }
  bytes_ += doc->size();
  (*chunks_)[num_docs_ / kChunkDocs]->at(num_docs_ % kChunkDocs) =
      std::move(doc);
  ++num_docs_;
}

bool CorpusEpoch::IsDeleted(size_t id) const {
  const size_t sealed = sealed_docs();
  if (id < sealed) {
    const size_t s = router().shard_of(id);
    return TestTombstone(tombstones(static_cast<int>(s)),
                         id - router().start(s));
  }
  return TestTombstone(tail_tombstones_.get(), id - sealed);
}

Status CorpusEpoch::Get(size_t id, std::string* doc,
                        DecodeScratch* scratch) const {
  if (id >= num_docs()) {
    return Status::OutOfRange("sharded store: bad doc id");
  }
  if (IsDeleted(id)) {
    return Status::NotFound("sharded store: document deleted");
  }
  const size_t sealed = sealed_docs();
  if (id >= sealed) {
    // Tail documents are raw, memory-resident bytes — the store's
    // memtable. No decode (DESIGN.md §11).
    doc->assign(*tail_.doc(id - sealed));
    return Status::OK();
  }
  const size_t s = router().shard_of(id);
  return sealed_->shards[s]->Get(id - router().start(s), doc,
                                 /*disk=*/nullptr, scratch);
}

Status CorpusEpoch::GetRange(size_t id, size_t offset, size_t length,
                             std::string* text, DecodeScratch* scratch) const {
  if (id >= num_docs()) {
    return Status::OutOfRange("sharded store: bad doc id");
  }
  if (IsDeleted(id)) {
    return Status::NotFound("sharded store: document deleted");
  }
  const size_t sealed = sealed_docs();
  if (id >= sealed) {
    const std::string& raw = *tail_.doc(id - sealed);
    text->clear();
    if (offset < raw.size()) {
      text->assign(raw, offset, std::min(length, raw.size() - offset));
    }
    return Status::OK();
  }
  const size_t s = router().shard_of(id);
  return sealed_->shards[s]->GetRange(id - router().start(s), offset, length,
                                      text, /*disk=*/nullptr, scratch);
}

uint64_t ShardSet::DictOf(size_t s) const {
  for (size_t d = 0; d < append_dicts.size(); ++d) {
    if (shards[s]->SharesDictionary(*append_dicts[d])) return d;
  }
  return Manifest::kOwnDictionary;
}

uint64_t CorpusEpoch::stored_bytes() const {
  uint64_t bytes = tail_.bytes();
  for (const auto& dict : sealed_->append_dicts) bytes += dict->size();
  for (size_t s = 0; s < sealed_->shards.size(); ++s) {
    const RlzArchive& shard = *sealed_->shards[s];
    bytes += shard.payload_bytes() + shard.doc_map().serialized_bytes();
    // A base or re-sampled shard holds its own dictionary; any other
    // references an append dictionary, counted once above.
    if (sealed_->DictOf(s) == Manifest::kOwnDictionary) {
      bytes += shard.dictionary().size();
    }
  }
  return bytes;
}

}  // namespace rlz
