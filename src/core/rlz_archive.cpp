#include "core/rlz_archive.h"

#include "io/file.h"
#include "io/mmap_file.h"
#include "store/format.h"
#include "util/crc32.h"
#include "util/logging.h"

// RlzArchive::Build lives in src/build/archive_builder.cpp: it drives the
// parallel build pipeline (DESIGN.md §7) through RlzArchiveBuilder.

namespace rlz {
namespace {

// Validates a (pos, len) coding byte pair through the name round-trip,
// rejecting invalid enum bytes from crafted files.
Status ValidateCoding(uint8_t pos_byte, uint8_t len_byte, PairCoding* coding) {
  coding->pos = static_cast<PosCoding>(pos_byte);
  coding->len = static_cast<LenCoding>(len_byte);
  const std::string name = coding->name();
  auto parsed = PairCoding::FromName(name);
  if (!parsed.ok() || parsed->pos != coding->pos ||
      parsed->len != coding->len) {
    return Status::Corruption("rlz archive: invalid coding bytes");
  }
  return Status::OK();
}
}  // namespace

std::unique_ptr<RlzArchive> RlzArchive::BuildFromFactors(
    std::shared_ptr<const Dictionary> dict,
    const std::vector<std::vector<Factor>>& docs, PairCoding coding) {
  RLZ_CHECK(dict != nullptr);
  std::unique_ptr<RlzArchive> archive(
      new RlzArchive(std::move(dict), coding));
  for (const std::vector<Factor>& factors : docs) {
    archive->AppendEncodedDoc(factors);
  }
  return archive;
}

std::string RlzArchive::Encode(bool embed_dictionary) const {
  EnvelopeWriter writer(embed_dictionary ? kFormatId : kShardFormatId,
                        embed_dictionary ? kFormatVersion
                                         : kShardFormatVersion);
  writer.PutByte(static_cast<uint8_t>(coder_.coding().pos));
  writer.PutByte(static_cast<uint8_t>(coder_.coding().len));
  if (embed_dictionary) {
    writer.PutLengthPrefixed(dict_->text());
  } else {
    writer.PutVarint64(dict_->size());
    writer.PutVarint32(Crc32(dict_->text()));
  }
  writer.PutVarint64(num_docs());
  for (size_t i = 0; i < num_docs(); ++i) {
    writer.PutVarint64(map_.size(i));
  }
  writer.PutBytes(payload());
  return std::move(writer).Seal();
}

std::string RlzArchive::Serialize() const { return Encode(true); }

std::string RlzArchive::SerializeShard() const { return Encode(false); }

Status RlzArchive::Save(const std::string& path) const {
  return WriteFile(path, Serialize());
}

StatusOr<std::unique_ptr<RlzArchive>> RlzArchive::FromEnvelope(
    const ParsedEnvelope& envelope, const OpenOptions& options,
    std::shared_ptr<const Dictionary> dict) {
  const bool embedded = envelope.format_id() != kShardFormatId;
  if (embedded) {
    RLZ_RETURN_IF_ERROR(
        CheckEnvelopeFormat(envelope, kFormatId, kFormatVersion));
  } else {
    RLZ_RETURN_IF_ERROR(
        CheckEnvelopeFormat(envelope, kShardFormatId, kShardFormatVersion));
    if (dict == nullptr) {
      return Status::InvalidArgument(
          envelope.context() +
          ": an 'rlzshard' container needs its store's dictionary; open "
          "the store's manifest instead");
    }
  }
  EnvelopeReader reader = envelope.reader();
  uint8_t pos_byte = 0;
  uint8_t len_byte = 0;
  RLZ_RETURN_IF_ERROR(reader.ReadByte(&pos_byte));
  RLZ_RETURN_IF_ERROR(reader.ReadByte(&len_byte));
  PairCoding coding;
  RLZ_RETURN_IF_ERROR(ValidateCoding(pos_byte, len_byte, &coding));

  if (embedded) {
    // Zero-copy open (DESIGN.md §9): the dictionary text and the payload
    // alias the loaded file bytes, which the envelope's shared backing
    // keeps alive — nothing is re-copied on open.
    std::string_view dict_text;
    RLZ_RETURN_IF_ERROR(reader.ReadLengthPrefixed(&dict_text));
    dict = std::make_shared<const Dictionary>(
        dict_text, envelope.backing(), options.build_suffix_array);
  } else {
    // The factor positions index `dict`: a shard opened against any
    // other text would decode garbage, so the binding must match.
    uint64_t dict_size = 0;
    uint32_t dict_crc = 0;
    RLZ_RETURN_IF_ERROR(reader.ReadVarint64(&dict_size));
    RLZ_RETURN_IF_ERROR(reader.ReadVarint32(&dict_crc));
    if (dict_size != dict->size() || dict_crc != Crc32(dict->text())) {
      return Status::Corruption(envelope.context() +
                                ": shard is bound to another dictionary");
    }
  }

  std::unique_ptr<RlzArchive> archive(
      new RlzArchive(std::move(dict), coding));
  std::vector<uint64_t> sizes;
  RLZ_RETURN_IF_ERROR(reader.ReadSizeTable(&sizes));
  for (uint64_t size : sizes) archive->map_.Add(size);
  archive->backing_ = envelope.backing();
  archive->payload_view_ = reader.ReadRest();
  return archive;
}

StatusOr<std::unique_ptr<RlzArchive>> RlzArchive::Load(
    const std::string& path, const OpenOptions& options,
    std::shared_ptr<const Dictionary> dict) {
  RLZ_ASSIGN_OR_RETURN(RawContainerFile raw, ReadContainerFile(path, options));
  RLZ_ASSIGN_OR_RETURN(
      ParsedEnvelope envelope,
      ParsedEnvelope::FromView(raw.view, raw.owner, path));
  if (raw.map != nullptr) raw.map->Advise(MmapFile::Access::kRandom);
  return FromEnvelope(envelope, options, std::move(dict));
}

Status RlzArchive::Get(size_t id, std::string* doc, SimDisk* disk,
                       DecodeScratch* scratch) const {
  if (id >= num_docs()) return Status::OutOfRange("rlz archive: bad doc id");
  doc->clear();
  const uint64_t off = map_.offset(id);
  const uint64_t size = map_.size(id);
  // Only this document's factor stream is read from disk; the dictionary
  // is memory-resident and free (§3.1).
  if (disk != nullptr) disk->Read(off, size);
  return coder_.DecodeDoc(payload().substr(off, size), *dict_, doc, scratch);
}

Status RlzArchive::GetRange(size_t id, size_t offset, size_t length,
                            std::string* text, SimDisk* disk,
                            DecodeScratch* scratch) const {
  if (id >= num_docs()) return Status::OutOfRange("rlz archive: bad doc id");
  text->clear();
  const uint64_t off = map_.offset(id);
  const uint64_t size = map_.size(id);
  if (disk != nullptr) disk->Read(off, size);
  return coder_.DecodeRange(payload().substr(off, size), *dict_, offset,
                            length, text, scratch);
}

}  // namespace rlz
