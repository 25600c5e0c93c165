#include "semistatic/semistatic_archive.h"

#include <memory>
#include <vector>

#include "build/build_pipeline.h"
#include "store/format.h"
#include "util/logging.h"

namespace rlz {

SemiStaticArchive::SemiStaticArchive(WordVocabulary vocab,
                                     SemiStaticScheme scheme)
    : vocab_(std::move(vocab)), scheme_(scheme) {
  if (scheme_ == SemiStaticScheme::kEtdc) {
    coder_ = std::make_unique<EtdcCoder>();
  } else {
    std::vector<uint64_t> freqs(vocab_.size());
    for (uint32_t r = 0; r < vocab_.size(); ++r) {
      freqs[r] = vocab_.Frequency(r);
    }
    coder_ = std::make_unique<PlainHuffmanCoder>(freqs);
  }
}

std::unique_ptr<SemiStaticArchive> SemiStaticArchive::Build(
    const Collection& collection, SemiStaticScheme scheme, int num_threads) {
  // Pass 1: vocabulary over the whole collection.
  std::vector<std::string_view> docs;
  docs.reserve(collection.num_docs());
  for (size_t i = 0; i < collection.num_docs(); ++i) {
    docs.push_back(collection.doc(i));
  }
  WordVocabulary vocab = WordVocabulary::Build(docs);

  std::unique_ptr<SemiStaticArchive> archive(
      new SemiStaticArchive(std::move(vocab), scheme));

  // Pass 2: code every token of every document. The vocabulary and coder
  // are immutable after pass 1 and each document codes independently, so
  // chunks of documents encode concurrently on the build pipeline and
  // merge in document order — byte-identical to the serial loop
  // (DESIGN.md §7).
  BuildPool pool(num_threads);
  BuildPipeline pipeline(&pool);
  pipeline.SubmitChunkedEncode(
      docs.size(), BalancedChunkDocs(docs.size(), pool.num_threads()),
      [&docs, archive = archive.get()](
          DocRange range, BuildPipeline::EncodedChunk* chunk, int) {
        chunk->item_sizes.reserve(range.size());
        for (size_t i = range.begin; i < range.end; ++i) {
          const size_t before = chunk->payload.size();
          for (std::string_view token : SplitWordsAndSeparators(docs[i])) {
            auto rank = archive->vocab_.Rank(token);
            RLZ_CHECK(rank.ok()) << "token missing from its own vocabulary";
            archive->coder_->Encode(*rank, &chunk->payload);
          }
          chunk->item_sizes.push_back(chunk->payload.size() - before);
        }
      },
      [archive = archive.get()](DocRange,
                                const BuildPipeline::EncodedChunk& chunk) {
        archive->payload_.append(chunk.payload);
        for (uint64_t size : chunk.item_sizes) archive->map_.Add(size);
      });
  pipeline.Finish();
  return archive;
}

std::string SemiStaticArchive::name() const {
  return scheme_ == SemiStaticScheme::kEtdc ? "etdc" : "plainhuff";
}

Status SemiStaticArchive::Get(size_t id, std::string* doc, SimDisk* disk,
                              DecodeScratch* /*scratch*/) const {
  if (id >= num_docs()) {
    return Status::OutOfRange("semistatic archive: bad doc id");
  }
  doc->clear();
  const uint64_t off = map_.offset(id);
  const uint64_t size = map_.size(id);
  if (disk != nullptr) disk->Read(off, size);
  const std::string_view codes = std::string_view(payload_).substr(off, size);
  size_t pos = 0;
  while (pos < codes.size()) {
    uint32_t rank = 0;
    RLZ_RETURN_IF_ERROR(coder_->Decode(codes, &pos, &rank));
    if (rank >= vocab_.size()) {
      return Status::Corruption("semistatic archive: rank out of range");
    }
    doc->append(vocab_.Token(rank));
  }
  return Status::OK();
}

Status SemiStaticArchive::Save(const std::string& path) const {
  EnvelopeWriter writer(kFormatId, kFormatVersion);
  writer.PutByte(static_cast<uint8_t>(scheme_));
  // The word model: ranked tokens, then their frequencies (needed to
  // rebuild the PlainHuffman code table deterministically on load).
  writer.PutVarint64(vocab_.size());
  for (uint32_t r = 0; r < vocab_.size(); ++r) {
    writer.PutLengthPrefixed(vocab_.Token(r));
  }
  for (uint32_t r = 0; r < vocab_.size(); ++r) {
    writer.PutVarint64(vocab_.Frequency(r));
  }
  writer.PutVarint64(num_docs());
  for (size_t i = 0; i < num_docs(); ++i) {
    writer.PutVarint64(map_.size(i));
  }
  writer.PutBytes(payload_);
  return std::move(writer).WriteTo(path);
}

StatusOr<std::unique_ptr<SemiStaticArchive>> SemiStaticArchive::FromEnvelope(
    const ParsedEnvelope& envelope, const OpenOptions& /*options*/) {
  RLZ_RETURN_IF_ERROR(
      CheckEnvelopeFormat(envelope, kFormatId, kFormatVersion));
  EnvelopeReader reader = envelope.reader();

  uint8_t scheme_byte = 0;
  RLZ_RETURN_IF_ERROR(reader.ReadByte(&scheme_byte));
  if (scheme_byte > static_cast<uint8_t>(SemiStaticScheme::kEtdc)) {
    return Status::Corruption(envelope.context() + ": unknown scheme byte");
  }
  const SemiStaticScheme scheme = static_cast<SemiStaticScheme>(scheme_byte);

  uint64_t ntokens = 0;
  RLZ_RETURN_IF_ERROR(reader.ReadVarint64(&ntokens));
  // Every token costs at least one length byte plus one frequency byte,
  // so a count beyond the remaining bytes is structural damage — checked
  // before the vector allocations below.
  if (ntokens > reader.remaining()) {
    return Status::Corruption(envelope.context() +
                              ": token count exceeds file");
  }
  std::vector<std::string> tokens(ntokens);
  for (uint64_t r = 0; r < ntokens; ++r) {
    std::string_view token;
    RLZ_RETURN_IF_ERROR(reader.ReadLengthPrefixed(&token));
    tokens[r] = std::string(token);
  }
  std::vector<uint64_t> freqs(ntokens);
  for (uint64_t r = 0; r < ntokens; ++r) {
    RLZ_RETURN_IF_ERROR(reader.ReadVarint64(&freqs[r]));
  }

  std::unique_ptr<SemiStaticArchive> archive(new SemiStaticArchive(
      WordVocabulary::FromRanked(std::move(tokens), std::move(freqs)),
      scheme));

  std::vector<uint64_t> sizes;
  RLZ_RETURN_IF_ERROR(reader.ReadSizeTable(&sizes));
  for (uint64_t size : sizes) archive->map_.Add(size);
  archive->payload_ = std::string(reader.ReadRest());
  return archive;
}

StatusOr<std::unique_ptr<SemiStaticArchive>> SemiStaticArchive::Load(
    const std::string& path, const OpenOptions& options) {
  RLZ_ASSIGN_OR_RETURN(ParsedEnvelope envelope, ReadEnvelopeFile(path));
  return FromEnvelope(envelope, options);
}

uint64_t SemiStaticArchive::stored_bytes() const {
  // Serialized vocabulary: vbyte(len) + bytes per token, in rank order
  // (frequencies are not needed to decode ETDC; PH additionally stores
  // code lengths, ~1 byte per token).
  uint64_t vocab_bytes = 0;
  for (uint32_t r = 0; r < vocab_.size(); ++r) {
    uint64_t len = vocab_.Token(r).size();
    do {
      ++vocab_bytes;
      len >>= 7;
    } while (len != 0);
    vocab_bytes += vocab_.Token(r).size();
  }
  if (scheme_ == SemiStaticScheme::kPlainHuffman) vocab_bytes += vocab_.size();
  return payload_.size() + map_.serialized_bytes() + vocab_bytes;
}

}  // namespace rlz
