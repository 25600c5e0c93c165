// The store-wide append dictionary (DESIGN.md §8, §11, §12): shards
// sealed from the tail are written as "rlzshard" containers bound to the
// one dictionary file the store keeps, instead of each carrying a copy.
// Covers the container (fuzzed and crafted inputs, its body against the
// "rlz" one), the store's byte accounting against the files a checkpoint
// names, and the single dictionary object a reopened store shares. The
// binary carries both the `format` and the `durability` ctest labels.

#include <cstdio>
#include <filesystem>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include <gtest/gtest.h>

#include "core/dictionary.h"
#include "core/rlz_archive.h"
#include "corpus/generator.h"
#include "io/file.h"
#include "serve/corpus_epoch.h"
#include "serve/manifest.h"
#include "serve/sharded_store.h"
#include "store/format.h"
#include "store/open_archive.h"
#include "store/wal/checkpoint.h"

namespace rlz {
namespace {

// A small store with one base shard and a tail sealed from `docs`, saved
// at `path`; returns the sealed shard's file and the dictionary it is
// bound to, loaded from the store's dictionary file.
struct SavedSeal {
  std::string file;
  std::shared_ptr<const Dictionary> dict;
};

SavedSeal SaveSealedStore(const std::string& path,
                          const std::vector<std::string>& docs) {
  Collection collection;
  for (int i = 0; i < 8; ++i) {
    collection.Append("base document " + std::to_string(i) +
                      " shares some text with the appended documents");
  }
  ShardedStoreOptions options;
  options.num_shards = 1;
  options.dict_bytes = 256;
  options.live.tail_seal_bytes = 0;
  auto store = ShardedStore::Build(collection, options);
  for (const std::string& doc : docs) {
    EXPECT_TRUE(store->Append(doc).ok());
  }
  EXPECT_TRUE(store->SealTail().ok());
  EXPECT_EQ(store->num_shards(), 2);
  EXPECT_TRUE(store->Save(path).ok());
  SavedSeal saved;
  auto file = ReadFile(path + ".shard0001");
  EXPECT_TRUE(file.ok());
  if (file.ok()) saved.file = std::move(file).value();
  auto dict = Dictionary::Load(path + ".dict", /*build_suffix_array=*/false);
  EXPECT_TRUE(dict.ok());
  if (dict.ok()) saved.dict = std::move(dict).value();
  for (const char* suffix : {"", ".shard0000", ".shard0001", ".dict"}) {
    std::remove((path + suffix).c_str());
  }
  return saved;
}

std::vector<std::string> TailDocs() {
  return {"appended document one shares some text",
          "appended document two, with the base documents",
          "a third one"};
}

// The body of an "rlzshard" container with `body` inside, CRC-valid.
std::string ShardContainer(std::string_view body) {
  EnvelopeWriter writer(RlzArchive::kShardFormatId,
                        RlzArchive::kShardFormatVersion);
  writer.PutBytes(body);
  return std::move(writer).Seal();
}

StatusOr<std::unique_ptr<RlzArchive>> OpenShard(
    std::string bytes, std::shared_ptr<const Dictionary> dict) {
  RLZ_ASSIGN_OR_RETURN(ParsedEnvelope envelope,
                       ParsedEnvelope::FromBytes(std::move(bytes), "shard"));
  OpenOptions options;
  options.build_suffix_array = false;
  return RlzArchive::FromEnvelope(envelope, options, std::move(dict));
}

// Every truncation and every byte value at every offset of a real sealed
// shard's body, re-sealed with a valid CRC so the body parser sees each
// one: each gives a Status, or a shard whose every document and range
// decodes (to a Status) within bounds. A change inside the dictionary
// binding never opens.
TEST(FuzzTest, SealedShardTruncationsAndByteFlips) {
  const SavedSeal saved =
      SaveSealedStore(::testing::TempDir() + "/fuzz_rlzshard", TailDocs());
  ASSERT_NE(saved.dict, nullptr);
  auto envelope = ParsedEnvelope::FromBytes(saved.file, "sealed shard");
  ASSERT_TRUE(envelope.ok()) << envelope.status().ToString();
  ASSERT_EQ(envelope->format_id(), RlzArchive::kShardFormatId);
  const std::string body(envelope->body());
  // The binding follows the two coding bytes: vbyte(size), vbyte(CRC).
  EnvelopeReader reader = envelope->reader();
  uint8_t coding = 0;
  uint64_t dict_size = 0;
  uint32_t dict_crc = 0;
  ASSERT_TRUE(reader.ReadByte(&coding).ok());
  ASSERT_TRUE(reader.ReadByte(&coding).ok());
  ASSERT_TRUE(reader.ReadVarint64(&dict_size).ok());
  ASSERT_TRUE(reader.ReadVarint32(&dict_crc).ok());
  const size_t binding_end = body.size() - reader.remaining();

  size_t opened = 0;
  const auto check = [&](std::string_view mutated, const std::string& what,
                         bool must_fail) {
    auto shard = OpenShard(ShardContainer(mutated), saved.dict);
    if (!shard.ok()) return;
    ASSERT_FALSE(must_fail) << what;
    ++opened;
    std::string doc;
    for (size_t i = 0; i < (*shard)->num_docs(); ++i) {
      (void)(*shard)->Get(i, &doc);
      (void)(*shard)->GetRange(i, 3, 17, &doc);
    }
  };
  check(body, "intact", false);
  ASSERT_EQ(opened, 1u);
  for (size_t keep = 0; keep < body.size(); ++keep) {
    check(std::string_view(body).substr(0, keep),
          "prefix of " + std::to_string(keep), true);
  }
  std::string mutated = body;
  for (size_t pos = 0; pos < body.size(); ++pos) {
    for (int value = 0; value < 256; ++value) {
      if (value == static_cast<uint8_t>(body[pos])) continue;
      mutated[pos] = static_cast<char>(value);
      check(mutated, "byte " + std::to_string(pos) + " = " +
                         std::to_string(value),
            pos >= 2 && pos < binding_end);
    }
    mutated[pos] = body[pos];
  }
  // Payload flips that keep the size table consistent still open.
  EXPECT_GT(opened, body.size());
}

TEST(SealedShardFormatTest, WrongDictionaryBindingIsCorruption) {
  const SavedSeal saved =
      SaveSealedStore(::testing::TempDir() + "/binding_rlzshard", TailDocs());
  ASSERT_NE(saved.dict, nullptr);
  auto envelope = ParsedEnvelope::FromBytes(saved.file, "sealed shard");
  ASSERT_TRUE(envelope.ok());
  EnvelopeReader reader = envelope->reader();
  uint8_t pos = 0;
  uint8_t len = 0;
  uint64_t dict_size = 0;
  uint32_t dict_crc = 0;
  ASSERT_TRUE(reader.ReadByte(&pos).ok());
  ASSERT_TRUE(reader.ReadByte(&len).ok());
  ASSERT_TRUE(reader.ReadVarint64(&dict_size).ok());
  ASSERT_TRUE(reader.ReadVarint32(&dict_crc).ok());
  EXPECT_EQ(dict_size, saved.dict->size());
  const std::string rest(reader.ReadRest());

  const auto craft = [&](uint64_t size, uint32_t crc) {
    EnvelopeWriter writer(RlzArchive::kShardFormatId,
                          RlzArchive::kShardFormatVersion);
    writer.PutByte(pos);
    writer.PutByte(len);
    writer.PutVarint64(size);
    writer.PutVarint32(crc);
    writer.PutBytes(rest);
    return std::move(writer).Seal();
  };
  ASSERT_TRUE(OpenShard(craft(dict_size, dict_crc), saved.dict).ok());
  for (const auto& [size, crc] :
       {std::pair<uint64_t, uint32_t>{dict_size + 1, dict_crc},
        {dict_size - 1, dict_crc},
        {dict_size, dict_crc ^ 1u},
        {0, 0}}) {
    const Status status = OpenShard(craft(size, crc), saved.dict).status();
    EXPECT_EQ(status.code(), StatusCode::kCorruption) << status.ToString();
  }

  // The binding is to the text: another dictionary object with the same
  // text opens the shard; one with other text does not.
  auto same_text = std::make_shared<const Dictionary>(
      std::string(saved.dict->text()), /*build_suffix_array=*/false);
  auto shard = OpenShard(saved.file, same_text);
  ASSERT_TRUE(shard.ok()) << shard.status().ToString();
  std::string doc;
  ASSERT_TRUE((*shard)->Get(1, &doc).ok());
  EXPECT_EQ(doc, TailDocs()[1]);
  std::string other_text(saved.dict->text());
  other_text[0] ^= 0x20;
  auto other = std::make_shared<const Dictionary>(
      std::move(other_text), /*build_suffix_array=*/false);
  EXPECT_EQ(OpenShard(saved.file, other).status().code(),
            StatusCode::kCorruption);
}

TEST(SealedShardFormatTest, AloneItNeedsItsStoresDictionary) {
  const SavedSeal saved =
      SaveSealedStore(::testing::TempDir() + "/alone_rlzshard", TailDocs());
  const std::string path = ::testing::TempDir() + "/alone.rlzshard";
  ASSERT_TRUE(WriteFile(path, saved.file).ok());
  const Status opened = OpenArchive(path).status();
  const Status sniffed = SniffArchiveFile(path).status();
  const Status loaded = RlzArchive::Load(path).status();
  for (const Status& status : {opened, sniffed, loaded}) {
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument)
        << status.ToString();
    EXPECT_NE(status.message().find("needs its store's dictionary"),
              std::string::npos)
        << status.ToString();
  }
  // With the dictionary it is an ordinary shard.
  auto shard = RlzArchive::Load(path, {}, saved.dict);
  ASSERT_TRUE(shard.ok()) << shard.status().ToString();
  EXPECT_EQ((*shard)->num_docs(), TailDocs().size());
  std::remove(path.c_str());
}

// SerializeShard differs from Serialize only in the dictionary section:
// the coding bytes lead both, and the size table and factor payload
// after the section are byte-identical.
TEST(SealedShardFormatTest, BodyMatchesRlzAfterTheDictionarySection) {
  CorpusOptions corpus;
  corpus.target_bytes = 64 << 10;
  corpus.seed = 4242;
  const Collection collection = GenerateCorpus(corpus).collection;
  std::shared_ptr<const Dictionary> dict =
      DictionaryBuilder::BuildSampled(collection.data(), 4 << 10, 1024);
  const auto archive = RlzArchive::Build(collection, dict);
  auto rlz = ParsedEnvelope::FromBytes(archive->Serialize(), "rlz");
  auto shard = ParsedEnvelope::FromBytes(archive->SerializeShard(), "shard");
  ASSERT_TRUE(rlz.ok() && shard.ok());
  EXPECT_EQ(rlz->format_id(), RlzArchive::kFormatId);
  EXPECT_EQ(shard->format_id(), RlzArchive::kShardFormatId);
  EnvelopeReader rlz_reader = rlz->reader();
  EnvelopeReader shard_reader = shard->reader();
  std::string_view rlz_coding;
  std::string_view shard_coding;
  ASSERT_TRUE(rlz_reader.ReadBytes(2, &rlz_coding).ok());
  ASSERT_TRUE(shard_reader.ReadBytes(2, &shard_coding).ok());
  EXPECT_EQ(rlz_coding, shard_coding);
  std::string_view dict_text;
  ASSERT_TRUE(rlz_reader.ReadLengthPrefixed(&dict_text).ok());
  EXPECT_EQ(dict_text, dict->text());
  uint64_t size = 0;
  uint32_t crc = 0;
  ASSERT_TRUE(shard_reader.ReadVarint64(&size).ok());
  ASSERT_TRUE(shard_reader.ReadVarint32(&crc).ok());
  EXPECT_EQ(size, dict->size());
  EXPECT_EQ(rlz_reader.ReadRest(), shard_reader.ReadRest());
}

// What a durable store's live checkpoint holds against what it counts:
// after seals, a compaction and deletes, the files the live manifest
// names (shards plus the append dictionary's) hold stored_bytes() less
// the raw tail (which the manifest carries) plus a small envelope per
// file. No sealed shard's file carries a dictionary, and a reopened
// store decodes every sealed shard against its one append dictionary.
// A v5 manifest that names two append dictionaries: a base shard with
// its own dictionary, a sealed shard bound to the retired dictionary and
// one bound to the current one. Every truncation and every byte value at
// every offset of its body, re-sealed with a valid CRC, is a Status or a
// manifest that encodes back to the bytes parsed. A parsed manifest that
// binds a shard to another dictionary, or to none, opens as Corruption;
// one that names other dictionary files does not open.
TEST(FuzzTest, TwoDictionaryManifestTruncationsAndByteFlips) {
  Collection collection;
  for (int i = 0; i < 8; ++i) {
    collection.Append("base document " + std::to_string(i) +
                      " shares some text with the appended documents");
  }
  ShardedStoreOptions options;
  options.num_shards = 1;
  options.dict_bytes = 256;
  options.live.tail_seal_bytes = 0;
  // A decay trigger of 0 counts every shard as decayed, so the second
  // seal, whose tail holds a dictionary's worth of text, refreshes.
  options.live.compact_stale_decay = 0.0;
  auto store = ShardedStore::Build(collection, options);
  for (int copies : {1, 3}) {
    for (int c = 0; c < copies; ++c) {
      for (const std::string& doc : TailDocs()) {
        ASSERT_TRUE(store->Append(doc).ok());
      }
    }
    ASSERT_TRUE(store->SealTail().ok());
  }
  const auto epoch = store->epoch();
  ASSERT_EQ(epoch->append_dictionaries().size(), 2u);
  ASSERT_EQ(epoch->shard_dictionary(0), Manifest::kOwnDictionary);
  ASSERT_EQ(epoch->shard_dictionary(1), 0u);
  ASSERT_EQ(epoch->shard_dictionary(2), 1u);

  const std::string path = ::testing::TempDir() + "/fuzz_two_dicts.sharded";
  ASSERT_TRUE(store->Save(path).ok());
  auto envelope = ReadEnvelopeFile(path);
  ASSERT_TRUE(envelope.ok()) << envelope.status().ToString();
  const std::string body(envelope->body());
  auto intact = Manifest::Parse(*envelope);
  ASSERT_TRUE(intact.ok()) << intact.status().ToString();
  ASSERT_EQ(intact->dict_names.size(), 2u);
  OpenOptions open_options;
  open_options.build_suffix_array = false;

  size_t parsed_ok = 0;
  size_t rebound = 0;
  // Returns the status of opening the parsed manifest against the saved
  // files, OK when it does not parse or changes no binding or file name.
  const auto check = [&](std::string_view mutated, const std::string& what) {
    EnvelopeWriter writer(Manifest::kFormatId, Manifest::kFormatVersion);
    writer.PutBytes(mutated);
    std::string bytes = std::move(writer).Seal();
    auto parsed_envelope = ParsedEnvelope::FromBytes(bytes, what);
    EXPECT_TRUE(parsed_envelope.ok()) << what;
    if (!parsed_envelope.ok()) return Status::OK();
    const auto manifest = Manifest::Parse(*parsed_envelope);
    if (!manifest.ok()) return Status::OK();
    ++parsed_ok;
    EXPECT_EQ(manifest->Encode(), bytes) << what;
    const bool same_names = manifest->dict_names == intact->dict_names;
    if (same_names && manifest->shard_dicts == intact->shard_dicts) {
      return Status::OK();
    }
    const Status opened =
        ShardedStore::FromEnvelope(*parsed_envelope, path, open_options)
            .status();
    EXPECT_FALSE(opened.ok()) << what;
    if (same_names) {
      ++rebound;
      EXPECT_EQ(opened.code(), StatusCode::kCorruption)
          << what << ": " << opened.ToString();
    }
    return opened;
  };
  EXPECT_TRUE(check(body, "intact").ok());
  ASSERT_EQ(parsed_ok, 1u);
  for (size_t keep = 0; keep < body.size(); ++keep) {
    check(std::string_view(body).substr(0, keep),
          "prefix of " + std::to_string(keep));
  }
  std::string mutated = body;
  for (size_t pos = 0; pos < body.size(); ++pos) {
    for (int value = 0; value < 256; ++value) {
      if (value == static_cast<uint8_t>(body[pos])) continue;
      mutated[pos] = static_cast<char>(value);
      check(mutated,
            "byte " + std::to_string(pos) + " = " + std::to_string(value));
    }
    mutated[pos] = body[pos];
  }
  EXPECT_GT(rebound, 0u);

  // The binding section by hand: the dictionary count and names, then
  // one id per shard (0 for its own dictionary, d + 1 for dictionary d).
  std::string section("\x02", 1);
  for (const std::string& name : intact->dict_names) {
    section += static_cast<char>(name.size());
    section += name;
  }
  section += std::string("\x00\x01\x02", 3);
  const size_t at = body.find(section);
  ASSERT_NE(at, std::string::npos);
  const size_t ids = at + section.size() - 3;
  const auto with_id = [&](size_t shard, char id) {
    std::string edited = body;
    edited[ids + shard] = id;
    EnvelopeWriter writer(Manifest::kFormatId, Manifest::kFormatVersion);
    writer.PutBytes(edited);
    return std::move(writer).Seal();
  };
  // A dictionary id past the list is Corruption at parse...
  auto out_of_range = ParsedEnvelope::FromBytes(with_id(2, 3), "id 3");
  ASSERT_TRUE(out_of_range.ok());
  EXPECT_EQ(Manifest::Parse(*out_of_range).status().code(),
            StatusCode::kCorruption);
  // ...and a shard bound to another dictionary than its file's binding,
  // or to none, at open.
  for (const auto& [shard, id] :
       {std::pair<size_t, char>{1, 2}, {2, 1}, {1, 0}, {0, 1}}) {
    const std::string what =
        "shard " + std::to_string(shard) + " id " + std::to_string(id);
    EXPECT_EQ(check(ParsedEnvelope::FromBytes(with_id(shard, id), what)
                        .value()
                        .body(),
                    what)
                  .code(),
              StatusCode::kCorruption)
        << what;
  }
  for (const char* suffix : {"", ".shard0000", ".shard0001", ".shard0002",
                             ".dict", ".dict0001"}) {
    std::remove((path + suffix).c_str());
  }
}

TEST(SharedDictionaryTest, StoredBytesEqualTheFilesTheManifestNames) {
  CorpusOptions corpus;
  corpus.target_bytes = 256 << 10;
  corpus.seed = 515;
  corpus.avg_doc_bytes = 4 << 10;
  const Collection collection = GenerateCorpus(corpus).collection;
  corpus.seed = 516;
  corpus.target_bytes = 128 << 10;
  const Collection extra = GenerateCorpus(corpus).collection;

  ShardedStoreOptions options;
  options.num_shards = 2;
  options.dict_bytes = 16 << 10;
  options.live.tail_seal_bytes = 24 << 10;
  options.live.compact_tombstone_fraction = 0.2;
  const std::string dir = ::testing::TempDir() + "/shared_dict_store";
  std::filesystem::remove_all(dir);
  auto store = ShardedStore::Build(collection, options);
  ASSERT_TRUE(store->MakeDurable(dir).ok());
  for (size_t i = 0; i < extra.num_docs(); ++i) {
    ASSERT_TRUE(store->Append(extra.doc(i)).ok());
  }
  ASSERT_GE(store->num_shards(), options.num_shards + 3);
  for (size_t id = 0; id < store->starts(1); id += 2) {
    ASSERT_TRUE(store->Delete(id).ok());
  }
  auto compaction = store->CompactOnce();
  ASSERT_TRUE(compaction.ok()) << compaction.status().ToString();
  ASSERT_TRUE(compaction->compacted);
  // Deletes after the compaction: tombstoned bytes stay stored.
  ASSERT_TRUE(store->Delete(store->starts(1)).ok());
  ASSERT_TRUE(store->Delete(store->num_docs() - 1).ok());
  ASSERT_TRUE(store->Checkpoint().ok());

  const auto epoch = store->epoch();
  const std::string manifest_path =
      dir + "/" + wal::CheckpointManifestFileName(
                      store->checkpoint_generation());
  auto envelope = ReadEnvelopeFile(manifest_path);
  ASSERT_TRUE(envelope.ok()) << envelope.status().ToString();
  auto manifest = Manifest::Parse(*envelope);
  ASSERT_TRUE(manifest.ok()) << manifest.status().ToString();
  ASSERT_EQ(manifest->shard_names.size(),
            static_cast<size_t>(epoch->num_shards()));

  // Envelope bytes per file: magic, layout, format id, version, body
  // size and CRC, plus the coding bytes and the vbyte counts (or the
  // binding) a shard adds outside its counted document map.
  constexpr uint64_t kMaxEnvelopeBytes = 48;
  uint64_t file_bytes = 0;
  size_t sealed_shards = 0;
  std::vector<std::string> files = manifest->shard_names;
  files.insert(files.end(), manifest->dict_names.begin(),
               manifest->dict_names.end());
  for (size_t s = 0; s < manifest->shard_names.size(); ++s) {
    const std::string path = dir + "/" + manifest->shard_names[s];
    auto shard_file = ReadEnvelopeFile(path);
    ASSERT_TRUE(shard_file.ok()) << shard_file.status().ToString();
    const RlzArchive& shard = epoch->shard(static_cast<int>(s));
    const bool sealed = epoch->shard_dictionary(static_cast<int>(s)) !=
                        Manifest::kOwnDictionary;
    sealed_shards += sealed ? 1 : 0;
    EXPECT_EQ(shard_file->format_id(), sealed ? RlzArchive::kShardFormatId
                                              : RlzArchive::kFormatId)
        << path;
    if (sealed) {
      // No dictionary section: the body is the map and payload plus the
      // coding bytes, the binding and the document count.
      EXPECT_LE(shard_file->body().size(),
                shard.payload_bytes() + shard.doc_map().serialized_bytes() +
                    kMaxEnvelopeBytes)
          << path;
    }
  }
  // Three seals or more survive the one compaction.
  EXPECT_GE(sealed_shards, 3u);
  for (const std::string& name : files) {
    file_bytes += std::filesystem::file_size(dir + "/" + name);
  }
  const uint64_t counted = epoch->stored_bytes() - epoch->tail().bytes();
  ASSERT_GE(file_bytes, counted);
  EXPECT_LE(file_bytes - counted, files.size() * kMaxEnvelopeBytes)
      << file_bytes << " file bytes, " << counted << " counted";

  // Reopened, every sealed shard decodes against the append dictionary
  // object the manifest binds it to, and the accounting is unchanged.
  auto reopened_or = ShardedStore::OpenDurable(dir);
  ASSERT_TRUE(reopened_or.ok()) << reopened_or.status().ToString();
  const auto reopened = (*reopened_or)->epoch();
  EXPECT_EQ(reopened->stored_bytes(), epoch->stored_bytes());
  ASSERT_EQ(reopened->num_shards(), epoch->num_shards());
  size_t shared = 0;
  for (int s = 0; s < reopened->num_shards(); ++s) {
    const uint64_t dict = epoch->shard_dictionary(s);
    const bool sealed = dict != Manifest::kOwnDictionary;
    EXPECT_EQ(reopened->shard_dictionary(s), dict) << s;
    shared += sealed ? 1 : 0;
  }
  EXPECT_EQ(shared, sealed_shards);
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace rlz
