#include "corpus/collection.h"

#include "store/format.h"

namespace rlz {
namespace {
constexpr char kFormatId[] = "collection";
constexpr uint32_t kFormatVersion = 2;
}  // namespace

Status Collection::Save(const std::string& path) const {
  EnvelopeWriter writer(kFormatId, kFormatVersion);
  writer.PutVarint64(num_docs());
  for (size_t i = 0; i < num_docs(); ++i) {
    writer.PutVarint64(doc_size(i));
  }
  writer.PutBytes(data_);
  return std::move(writer).WriteTo(path);
}

StatusOr<Collection> Collection::Load(const std::string& path) {
  RLZ_ASSIGN_OR_RETURN(ParsedEnvelope envelope, ReadEnvelopeFile(path));
  RLZ_RETURN_IF_ERROR(
      CheckEnvelopeFormat(envelope, kFormatId, kFormatVersion));
  EnvelopeReader reader = envelope.reader();
  std::vector<uint64_t> sizes;
  RLZ_RETURN_IF_ERROR(reader.ReadSizeTable(&sizes));
  uint64_t total = 0;
  for (uint64_t size : sizes) total += size;
  const std::string_view data = reader.ReadRest();
  Collection c;
  c.Reserve(total, sizes.size());
  size_t off = 0;
  for (uint64_t size : sizes) {
    c.Append(data.substr(off, size));
    off += size;
  }
  return c;
}

}  // namespace rlz
