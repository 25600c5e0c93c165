#include "serve/manifest.h"

#include <cstring>
#include <string_view>
#include <utility>

#include "util/logging.h"

namespace rlz {
namespace {

// Serializes a FactorStats triple as three varints.
void PutStats(const FactorStats& stats, EnvelopeWriter* writer) {
  writer->PutVarint64(stats.num_factors);
  writer->PutVarint64(stats.num_literals);
  writer->PutVarint64(stats.text_bytes);
}

Status ReadStats(EnvelopeReader* reader, FactorStats* stats) {
  RLZ_RETURN_IF_ERROR(reader->ReadVarint64(&stats->num_factors));
  RLZ_RETURN_IF_ERROR(reader->ReadVarint64(&stats->num_literals));
  return reader->ReadVarint64(&stats->text_bytes);
}

// A double round-trips through its IEEE-754 bit pattern (varint-encoded;
// small fractions have high-entropy mantissas, but the manifest is tiny).
uint64_t DoubleBits(double value) {
  uint64_t bits = 0;
  std::memcpy(&bits, &value, sizeof(bits));
  return bits;
}

double DoubleFromBits(uint64_t bits) {
  double value = 0.0;
  std::memcpy(&value, &bits, sizeof(value));
  return value;
}

// A tombstone section is a count plus the ascending tombstoned ids
// (sparse: deletes are rare relative to documents).
void PutTombstones(const std::vector<uint64_t>& ids, EnvelopeWriter* writer) {
  writer->PutVarint64(ids.size());
  for (uint64_t id : ids) writer->PutVarint64(id);
}

// Reads a tombstone section whose ids must lie below `bound`. Rejects a
// count above the bound or the bytes left, and out-of-range or
// non-ascending ids, as Corruption.
Status ReadTombstones(EnvelopeReader* reader, uint64_t bound,
                      const std::string& context,
                      std::vector<uint64_t>* ids) {
  uint64_t count = 0;
  RLZ_RETURN_IF_ERROR(reader->ReadVarint64(&count));
  // Each id takes at least one byte, which bounds the allocation.
  if (count > bound || count > reader->remaining()) {
    return Status::Corruption(context + ": bad tombstone count");
  }
  ids->resize(count);
  for (uint64_t i = 0; i < count; ++i) {
    RLZ_RETURN_IF_ERROR(reader->ReadVarint64(&(*ids)[i]));
    if ((*ids)[i] >= bound || (i > 0 && (*ids)[i] <= (*ids)[i - 1])) {
      return Status::Corruption(context + ": bad tombstone index");
    }
  }
  return Status::OK();
}

// Reads the name of a file the manifest names: non-empty, no '/', so it
// resolves next to the manifest, and no NUL, which would cut the path the
// open call sees short.
Status ReadSiblingName(EnvelopeReader* reader, const std::string& context,
                       std::string* name) {
  std::string_view view;
  RLZ_RETURN_IF_ERROR(reader->ReadLengthPrefixed(&view));
  if (view.empty() || view.find_first_of(std::string_view("/\0", 2)) !=
                          std::string_view::npos) {
    return Status::Corruption(context +
                              ": manifest file name must be a sibling "
                              "file name");
  }
  name->assign(view);
  return Status::OK();
}

}  // namespace

std::string Manifest::Encode() const {
  RLZ_CHECK(router != nullptr);
  const size_t nshards = router->num_shards();
  RLZ_CHECK_EQ(shard_names.size(), nshards);
  RLZ_CHECK_EQ(health.size(), nshards);
  RLZ_CHECK_EQ(tombstones.size(), nshards);
  RLZ_CHECK_EQ(shard_dicts.size(), nshards);
  RLZ_CHECK(!dict_names.empty());
  EnvelopeWriter writer(kFormatId, kFormatVersion);
  writer.PutVarint64(nshards);
  for (size_t s = 0; s <= nshards; ++s) writer.PutVarint64(router->start(s));
  for (const std::string& name : shard_names) writer.PutLengthPrefixed(name);
  writer.PutVarint64(sequence);
  for (const ShardHealth& shard : health) {
    writer.PutVarint64(shard.generation);
    writer.PutVarint64(shard.tombstoned_payload_bytes);
    writer.PutVarint64(DoubleBits(shard.unused_dict_fraction));
    PutStats(shard.stats, &writer);
  }
  PutStats(baseline, &writer);
  for (const std::vector<uint64_t>& ids : tombstones) {
    PutTombstones(ids, &writer);
  }
  PutTombstones(tail_tombstones, &writer);
  writer.PutVarint64(tail_docs.size());
  for (const auto& doc : tail_docs) writer.PutLengthPrefixed(*doc);
  writer.PutVarint64(dict_names.size());
  for (const std::string& name : dict_names) writer.PutLengthPrefixed(name);
  // 0 for a shard's own dictionary, d + 1 for dict_names[d].
  for (uint64_t dict : shard_dicts) {
    RLZ_CHECK(dict == kOwnDictionary || dict < dict_names.size());
    writer.PutVarint64(dict == kOwnDictionary ? 0 : dict + 1);
  }
  writer.PutVarint64(live.tail_seal_bytes);
  writer.PutVarint64(DoubleBits(live.compact_tombstone_fraction));
  writer.PutVarint64(DoubleBits(live.compact_stale_unused_fraction));
  writer.PutVarint64(DoubleBits(live.compact_stale_decay));
  writer.PutVarint64(shard_dict_bytes);
  return std::move(writer).Seal();
}

StatusOr<Manifest> Manifest::Parse(const ParsedEnvelope& envelope) {
  RLZ_RETURN_IF_ERROR(
      CheckEnvelopeFormat(envelope, kFormatId, kFormatVersion));
  const std::string& context = envelope.context();
  EnvelopeReader reader = envelope.reader();
  Manifest manifest;

  uint64_t nshards = 0;
  RLZ_RETURN_IF_ERROR(reader.ReadVarint64(&nshards));
  if (nshards == 0 || nshards > reader.remaining()) {
    return Status::Corruption(context + ": bad manifest shard count");
  }
  std::vector<size_t> starts(nshards + 1);
  for (size_t s = 0; s <= nshards; ++s) {
    uint64_t start = 0;
    RLZ_RETURN_IF_ERROR(reader.ReadVarint64(&start));
    starts[s] = start;
    if ((s == 0 && start != 0) || (s > 0 && start < starts[s - 1])) {
      return Status::Corruption(context +
                                ": manifest boundaries not monotone");
    }
  }
  manifest.router = std::make_shared<const ShardRouter>(std::move(starts));
  manifest.shard_names.resize(nshards);
  for (std::string& name : manifest.shard_names) {
    RLZ_RETURN_IF_ERROR(ReadSiblingName(&reader, context, &name));
  }

  RLZ_RETURN_IF_ERROR(reader.ReadVarint64(&manifest.sequence));
  manifest.health.resize(nshards);
  for (ShardHealth& shard : manifest.health) {
    RLZ_RETURN_IF_ERROR(reader.ReadVarint64(&shard.generation));
    RLZ_RETURN_IF_ERROR(reader.ReadVarint64(&shard.tombstoned_payload_bytes));
    uint64_t fraction_bits = 0;
    RLZ_RETURN_IF_ERROR(reader.ReadVarint64(&fraction_bits));
    shard.unused_dict_fraction = DoubleFromBits(fraction_bits);
    RLZ_RETURN_IF_ERROR(ReadStats(&reader, &shard.stats));
  }
  RLZ_RETURN_IF_ERROR(ReadStats(&reader, &manifest.baseline));
  manifest.tombstones.resize(nshards);
  for (size_t s = 0; s < nshards; ++s) {
    const ShardRouter& router = *manifest.router;
    RLZ_RETURN_IF_ERROR(ReadTombstones(&reader,
                                       router.start(s + 1) - router.start(s),
                                       context, &manifest.tombstones[s]));
  }

  // The tail tombstone section precedes the tail documents, so its ids are
  // bounded first by the bytes left (each tail document takes at least
  // one) and then by the tail count read after it.
  RLZ_RETURN_IF_ERROR(ReadTombstones(&reader, reader.remaining(), context,
                                     &manifest.tail_tombstones));
  uint64_t tail_count = 0;
  RLZ_RETURN_IF_ERROR(reader.ReadVarint64(&tail_count));
  if (tail_count > reader.remaining()) {
    return Status::Corruption(context + ": bad manifest tail count");
  }
  if (!manifest.tail_tombstones.empty() &&
      manifest.tail_tombstones.back() >= tail_count) {
    return Status::Corruption(context + ": tail tombstone out of range");
  }
  manifest.tail_docs.resize(tail_count);
  for (auto& doc : manifest.tail_docs) {
    std::string_view view;
    RLZ_RETURN_IF_ERROR(reader.ReadLengthPrefixed(&view));
    doc = std::make_shared<const std::string>(view);
  }
  uint64_t ndicts = 0;
  RLZ_RETURN_IF_ERROR(reader.ReadVarint64(&ndicts));
  // Each name takes at least one byte, which bounds the allocation.
  if (ndicts == 0 || ndicts > reader.remaining()) {
    return Status::Corruption(context + ": bad manifest dictionary count");
  }
  manifest.dict_names.resize(ndicts);
  for (std::string& name : manifest.dict_names) {
    RLZ_RETURN_IF_ERROR(ReadSiblingName(&reader, context, &name));
  }
  manifest.shard_dicts.resize(nshards);
  for (uint64_t& dict : manifest.shard_dicts) {
    uint64_t id = 0;
    RLZ_RETURN_IF_ERROR(reader.ReadVarint64(&id));
    if (id > ndicts) {
      return Status::Corruption(context + ": bad manifest dictionary id");
    }
    dict = id == 0 ? kOwnDictionary : id - 1;
  }
  uint64_t tail_seal_bytes = 0;
  RLZ_RETURN_IF_ERROR(reader.ReadVarint64(&tail_seal_bytes));
  manifest.live.tail_seal_bytes = static_cast<size_t>(tail_seal_bytes);
  for (double* trigger : {&manifest.live.compact_tombstone_fraction,
                          &manifest.live.compact_stale_unused_fraction,
                          &manifest.live.compact_stale_decay}) {
    uint64_t bits = 0;
    RLZ_RETURN_IF_ERROR(reader.ReadVarint64(&bits));
    *trigger = DoubleFromBits(bits);
  }
  RLZ_RETURN_IF_ERROR(reader.ReadVarint64(&manifest.shard_dict_bytes));
  RLZ_RETURN_IF_ERROR(reader.ExpectConsumed());
  return manifest;
}

}  // namespace rlz
