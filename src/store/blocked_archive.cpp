#include "store/blocked_archive.h"

#include <algorithm>

#include "build/build_pipeline.h"
#include "store/format.h"
#include "util/logging.h"
#include "zip/gzipx.h"

namespace rlz {
namespace {

// Shared by the build and load paths: the auto-sized decode cache holds
// two maximal uncompressed blocks across two stripes (see the class
// comment on paper fidelity).
std::unique_ptr<LruCache> MakeBlockCache(uint64_t cache_bytes,
                                         uint64_t max_block_text) {
  if (cache_bytes == 0) {
    cache_bytes = 2 * (std::max<uint64_t>(max_block_text, 1) +
                       LruCache::kEntryOverheadBytes);
  }
  return std::make_unique<LruCache>(cache_bytes, /*num_shards=*/2);
}

}  // namespace

BlockedArchive::BlockedArchive(const Compressor* compressor,
                               uint64_t block_bytes)
    : compressor_(compressor),
      gzipx_(dynamic_cast<const GzipxCompressor*>(compressor)),
      block_bytes_(block_bytes) {}

BlockedArchive::BlockedArchive(const Collection& collection,
                               const Compressor* compressor,
                               uint64_t block_bytes, uint64_t cache_bytes,
                               int num_threads)
    : BlockedArchive(compressor, block_bytes) {
  RLZ_CHECK(compressor != nullptr);
  docs_.reserve(collection.num_docs());

  // Pass 1 (serial, integer bookkeeping only): assign documents to blocks.
  // Blocks hold consecutive documents, and documents are contiguous in the
  // collection, so each block's uncompressed text is a view into the
  // collection — never materialized.
  struct BlockText {
    uint64_t offset;  // into collection.data()
    uint64_t size;    // uncompressed bytes
  };
  std::vector<BlockText> block_texts;  // closed blocks, in order
  uint64_t max_block_text = 0;
  uint64_t open_offset = 0;  // where the open block's text starts
  uint64_t open_size = 0;    // uncompressed bytes in the open block
  auto flush = [&]() {
    if (open_size == 0) return;
    block_texts.push_back({open_offset, open_size});
    max_block_text = std::max(max_block_text, open_size);
    open_size = 0;
  };
  for (size_t i = 0; i < collection.num_docs(); ++i) {
    const uint64_t doc_size = collection.doc_size(i);
    if (open_size == 0) open_offset = collection.doc_offset(i);
    docs_.push_back({static_cast<uint32_t>(block_texts.size()),
                     static_cast<uint32_t>(open_size),
                     static_cast<uint32_t>(doc_size)});
    open_size += doc_size;
    // One doc per block when block_bytes_ == 0; otherwise close the block
    // once it reaches the target uncompressed size.
    if (block_bytes_ == 0 || open_size >= block_bytes_) flush();
  }
  flush();

  // Pass 2: blocks are independently decodable units, so they compress
  // concurrently on the build pipeline and merge in block order — the
  // payload is byte-identical to the serial loop (DESIGN.md §7).
  const size_t num_blocks = block_texts.size();
  blocks_.resize(num_blocks);
  BuildPool pool(num_threads);
  BuildPipeline pipeline(&pool);
  pipeline.SubmitChunkedEncode(
      num_blocks, BalancedChunkDocs(num_blocks, pool.num_threads()),
      [this, &collection, &block_texts](
          DocRange range, BuildPipeline::EncodedChunk* chunk, int) {
        chunk->item_sizes.reserve(range.size());
        for (size_t b = range.begin; b < range.end; ++b) {
          const size_t before = chunk->payload.size();
          compressor_->Compress(
              collection.data().substr(block_texts[b].offset,
                                       block_texts[b].size),
              &chunk->payload);
          chunk->item_sizes.push_back(chunk->payload.size() - before);
        }
      },
      [this](DocRange range, const BuildPipeline::EncodedChunk& chunk) {
        uint64_t offset = owned_payload_.size();
        for (size_t b = range.begin; b < range.end; ++b) {
          const uint64_t size = chunk.item_sizes[b - range.begin];
          blocks_[b] = {offset, size};
          offset += size;
        }
        owned_payload_.append(chunk.payload);
      });
  pipeline.Finish();

  block_cache_ = MakeBlockCache(cache_bytes, max_block_text);
}

std::string BlockedArchive::name() const {
  std::string n = compressor_->name();
  n += "-";
  if (block_bytes_ == 0) {
    n += "1doc";
  } else if (block_bytes_ % (1024 * 1024) == 0) {
    n += std::to_string(block_bytes_ / (1024 * 1024)) + "M";
  } else {
    n += std::to_string(block_bytes_ / 1024) + "K";
  }
  return n;
}

Status BlockedArchive::Get(size_t id, std::string* doc, SimDisk* disk,
                           DecodeScratch* scratch) const {
  if (id >= docs_.size()) {
    return Status::OutOfRange("blocked archive: bad doc id");
  }
  const DocInfo& d = docs_[id];
  // Empty documents never reach the block store: a trailing empty doc is
  // recorded against a block that flush() (rightly) never emitted, so its
  // block index must not be dereferenced.
  if (d.size == 0) {
    doc->clear();
    return Status::OK();
  }
  const BlockInfo& b = blocks_[d.block];
  std::shared_ptr<const std::string> text = block_cache_->Get(d.block);
  if (text == nullptr) {
    // The whole compressed block must be read and decompressed to reach
    // the document (adaptive dictionaries decode from the block start,
    // §2.2).
    if (disk != nullptr) disk->Read(b.payload_offset, b.payload_size);
    std::string decoded;
    // A gzipx-backed archive lends the caller's scratch to the block
    // decompression so its decoder tables are reused across misses (the
    // decoded block itself must stay fresh — it becomes a shared cache
    // entry). Other compressors take the plain path.
    const std::string_view block =
        payload().substr(b.payload_offset, b.payload_size);
    RLZ_RETURN_IF_ERROR(gzipx_ != nullptr && scratch != nullptr
                            ? gzipx_->Decompress(block, &decoded,
                                                 &scratch->gzipx)
                            : compressor_->Decompress(block, &decoded));
    text = block_cache_->Insert(d.block, std::move(decoded));
  }
  if (static_cast<uint64_t>(d.offset) + d.size > text->size()) {
    return Status::Corruption("blocked archive: doc extent outside block");
  }
  doc->assign(*text, d.offset, d.size);
  return Status::OK();
}

Status BlockedArchive::Save(const std::string& path) const {
  RLZ_ASSIGN_OR_RETURN(CompressorId id, compressor_->persistent_id());
  EnvelopeWriter writer(kFormatId, kFormatVersion);
  writer.PutByte(static_cast<uint8_t>(id));
  writer.PutVarint64(block_bytes_);
  writer.PutVarint64(blocks_.size());
  // Block offsets are cumulative, so only sizes are stored.
  for (const BlockInfo& b : blocks_) writer.PutVarint64(b.payload_size);
  writer.PutVarint64(docs_.size());
  for (const DocInfo& d : docs_) {
    writer.PutVarint32(d.block);
    writer.PutVarint32(d.offset);
    writer.PutVarint32(d.size);
  }
  writer.PutBytes(payload());
  return std::move(writer).WriteTo(path);
}

StatusOr<std::unique_ptr<BlockedArchive>> BlockedArchive::FromEnvelope(
    const ParsedEnvelope& envelope, const OpenOptions& options) {
  RLZ_RETURN_IF_ERROR(
      CheckEnvelopeFormat(envelope, kFormatId, kFormatVersion));
  EnvelopeReader reader = envelope.reader();

  uint8_t compressor_byte = 0;
  RLZ_RETURN_IF_ERROR(reader.ReadByte(&compressor_byte));
  if (compressor_byte > static_cast<uint8_t>(CompressorId::kLzmax)) {
    return Status::Corruption(envelope.context() +
                              ": unknown compressor id");
  }
  const Compressor* compressor =
      GetCompressor(static_cast<CompressorId>(compressor_byte));

  uint64_t block_bytes = 0;
  RLZ_RETURN_IF_ERROR(reader.ReadVarint64(&block_bytes));
  std::unique_ptr<BlockedArchive> archive(
      new BlockedArchive(compressor, block_bytes));

  uint64_t num_blocks = 0;
  RLZ_RETURN_IF_ERROR(reader.ReadVarint64(&num_blocks));
  if (num_blocks > reader.remaining()) {
    return Status::Corruption(envelope.context() +
                              ": block count exceeds file");
  }
  archive->blocks_.resize(num_blocks);
  uint64_t payload_size = 0;
  for (uint64_t b = 0; b < num_blocks; ++b) {
    uint64_t size = 0;
    RLZ_RETURN_IF_ERROR(reader.ReadVarint64(&size));
    if (size > reader.remaining() ||
        payload_size > reader.remaining() - size) {
      return Status::Corruption(envelope.context() +
                                ": payload size mismatch");
    }
    archive->blocks_[b] = {payload_size, size};
    payload_size += size;
  }

  uint64_t num_docs = 0;
  RLZ_RETURN_IF_ERROR(reader.ReadVarint64(&num_docs));
  if (num_docs > reader.remaining()) {
    return Status::Corruption(envelope.context() +
                              ": document count exceeds file");
  }
  archive->docs_.resize(num_docs);
  // Per-block uncompressed extents, rebuilt from the document table to
  // auto-size the decode cache exactly as the build path does.
  uint64_t max_block_text = 0;
  for (uint64_t i = 0; i < num_docs; ++i) {
    DocInfo& d = archive->docs_[i];
    RLZ_RETURN_IF_ERROR(reader.ReadVarint32(&d.block));
    RLZ_RETURN_IF_ERROR(reader.ReadVarint32(&d.offset));
    RLZ_RETURN_IF_ERROR(reader.ReadVarint32(&d.size));
    // Empty trailing documents may reference one block past the end (see
    // Get); any other out-of-range block index is structural damage.
    if (d.size > 0 ? d.block >= num_blocks : d.block > num_blocks) {
      return Status::Corruption(envelope.context() +
                                ": document references missing block");
    }
    max_block_text = std::max<uint64_t>(
        max_block_text, static_cast<uint64_t>(d.offset) + d.size);
  }

  if (reader.remaining() != payload_size) {
    return Status::Corruption(envelope.context() + ": payload size mismatch");
  }
  // Zero-copy open: the payload aliases the loaded file bytes, which the
  // envelope's shared backing keeps alive (DESIGN.md §9).
  archive->backing_ = envelope.backing();
  archive->payload_view_ = reader.ReadRest();
  archive->block_cache_ = MakeBlockCache(options.cache_bytes, max_block_text);
  return archive;
}

StatusOr<std::unique_ptr<BlockedArchive>> BlockedArchive::Load(
    const std::string& path, const OpenOptions& options) {
  RLZ_ASSIGN_OR_RETURN(ParsedEnvelope envelope, ReadEnvelopeFile(path));
  return FromEnvelope(envelope, options);
}

uint64_t BlockedArchive::stored_bytes() const {
  // Payload plus a vbyte-style directory: per block (offset delta) and per
  // doc (block id delta, offset, size).
  uint64_t meta = 0;
  auto vbyte_len = [](uint64_t v) {
    uint64_t n = 0;
    do {
      ++n;
      v >>= 7;
    } while (v != 0);
    return n;
  };
  for (const BlockInfo& b : blocks_) meta += vbyte_len(b.payload_size);
  for (const DocInfo& d : docs_) meta += 1 + vbyte_len(d.offset) + vbyte_len(d.size);
  return payload().size() + meta;
}

}  // namespace rlz
