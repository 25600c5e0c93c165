// On-disk archive format: save/load round trips, corruption injection,
// and the unified container-envelope suite (every Archive format plus the
// ShardedStore manifest) — ctest label `format`.

#include <cstdio>
#include <functional>
#include <iterator>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "codecs/int_codecs.h"
#include "core/rlz.h"
#include "corpus/generator.h"
#include "io/file.h"
#include "semistatic/semistatic_archive.h"
#include "serve/sharded_store.h"
#include "store/ascii_archive.h"
#include "store/blocked_archive.h"
#include "store/format.h"
#include "store/open_archive.h"
#include "util/crc32.h"
#include "util/random.h"

namespace rlz {
namespace {

class ArchiveIoTest : public ::testing::TestWithParam<const char*> {
 protected:
  static void SetUpTestSuite() {
    CorpusOptions options;
    options.target_bytes = 1 << 20;
    options.seed = 91;
    collection_ = new Collection(GenerateCorpus(options).collection);
  }
  static void TearDownTestSuite() {
    delete collection_;
    collection_ = nullptr;
  }

  std::string TempPath(const std::string& tag) const {
    return ::testing::TempDir() + "/rlza_" + tag + "_" + GetParam() + ".bin";
  }

  std::unique_ptr<RlzArchive> BuildArchive() const {
    RlzOptions options;
    options.dict_bytes = 32 << 10;
    options.coding = *PairCoding::FromName(GetParam());
    return CompressCollection(*collection_, options);
  }

  static const Collection* collection_;
};

const Collection* ArchiveIoTest::collection_ = nullptr;

TEST_P(ArchiveIoTest, SaveLoadRoundTrip) {
  const std::string path = TempPath("roundtrip");
  auto archive = BuildArchive();
  ASSERT_TRUE(archive->Save(path).ok());

  auto loaded = RlzArchive::Load(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ((*loaded)->num_docs(), archive->num_docs());
  EXPECT_EQ((*loaded)->coder().coding().name(), GetParam());
  EXPECT_EQ((*loaded)->dictionary().text(), archive->dictionary().text());
  EXPECT_EQ((*loaded)->stored_bytes(), archive->stored_bytes());

  std::string a;
  std::string b;
  for (size_t i = 0; i < archive->num_docs(); i += 3) {
    ASSERT_TRUE(archive->Get(i, &a).ok());
    ASSERT_TRUE((*loaded)->Get(i, &b).ok());
    ASSERT_EQ(a, b) << "doc " << i;
    ASSERT_EQ(a, collection_->doc(i)) << "doc " << i;
  }
  std::remove(path.c_str());
}

TEST_P(ArchiveIoTest, AnySingleByteFlipIsDetected) {
  const std::string path = TempPath("flip");
  auto archive = BuildArchive();
  ASSERT_TRUE(archive->Save(path).ok());
  auto raw = ReadFile(path);
  ASSERT_TRUE(raw.ok());

  Rng rng(17);
  for (int trial = 0; trial < 32; ++trial) {
    std::string corrupt = *raw;
    corrupt[rng.Uniform(corrupt.size())] ^=
        static_cast<char>(1 + rng.Uniform(255));
    if (corrupt == *raw) continue;  // xor produced the same byte
    ASSERT_TRUE(WriteFile(path, corrupt).ok());
    auto loaded = RlzArchive::Load(path);
    EXPECT_FALSE(loaded.ok()) << "flip trial " << trial << " undetected";
  }
  std::remove(path.c_str());
}

TEST_P(ArchiveIoTest, TruncationIsDetected) {
  const std::string path = TempPath("trunc");
  auto archive = BuildArchive();
  ASSERT_TRUE(archive->Save(path).ok());
  auto raw = ReadFile(path);
  ASSERT_TRUE(raw.ok());
  for (const double frac : {0.1, 0.5, 0.9, 0.99}) {
    const size_t keep = static_cast<size_t>(raw->size() * frac);
    ASSERT_TRUE(WriteFile(path, std::string_view(*raw).substr(0, keep)).ok());
    EXPECT_FALSE(RlzArchive::Load(path).ok()) << "kept " << frac;
  }
  std::remove(path.c_str());
}

TEST_P(ArchiveIoTest, EmptyAndGarbageFiles) {
  const std::string path = TempPath("garbage");
  ASSERT_TRUE(WriteFile(path, "").ok());
  EXPECT_FALSE(RlzArchive::Load(path).ok());
  ASSERT_TRUE(WriteFile(path, "RLZAnot really an archive at all").ok());
  EXPECT_FALSE(RlzArchive::Load(path).ok());
  std::remove(path.c_str());
  EXPECT_EQ(RlzArchive::Load(path).status().code(), StatusCode::kIOError);
}

INSTANTIATE_TEST_SUITE_P(Codings, ArchiveIoTest,
                         ::testing::Values("ZZ", "ZV", "UZ", "UV"),
                         [](const auto& info) { return info.param; });

TEST(ArchiveIoEdgeTest, EmptyCollection) {
  Collection empty;
  auto archive = CompressCollection(empty, {});
  const std::string path = ::testing::TempDir() + "/rlza_empty.bin";
  ASSERT_TRUE(archive->Save(path).ok());
  auto loaded = RlzArchive::Load(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ((*loaded)->num_docs(), 0u);
  std::remove(path.c_str());
}

// Wraps `body` (everything after the coding bytes) in a CRC-valid rlz
// envelope with the ZV coding pair, so Load gets past the checksum and the
// envelope header and must reject the malformed body on its own.
std::string CraftArchive(const std::string& body) {
  EnvelopeWriter writer(RlzArchive::kFormatId, RlzArchive::kFormatVersion);
  writer.PutByte(1);  // PosCoding::kZlib  ("Z")
  writer.PutByte(0);  // LenCoding::kVByte ("V")
  writer.PutBytes(body);
  return std::move(writer).Seal();
}

TEST(ArchiveIoEdgeTest, TruncationAtEveryPrefixIsDetected) {
  Collection c;
  c.Append("the quick brown fox jumps over the lazy dog");
  c.Append("the quick brown fox naps under the shady log");
  c.Append("an entirely different document about archives");
  RlzOptions options;
  options.dict_bytes = 256;
  auto archive = CompressCollection(c, options);

  const std::string path = ::testing::TempDir() + "/rlza_every_prefix.bin";
  ASSERT_TRUE(archive->Save(path).ok());
  auto raw = ReadFile(path);
  ASSERT_TRUE(raw.ok());

  for (size_t keep = 0; keep < raw->size(); ++keep) {
    ASSERT_TRUE(WriteFile(path, std::string_view(*raw).substr(0, keep)).ok());
    auto loaded = RlzArchive::Load(path);
    ASSERT_FALSE(loaded.ok()) << "prefix of " << keep << " bytes undetected";
    EXPECT_EQ(loaded.status().code(), StatusCode::kCorruption)
        << "prefix of " << keep << " bytes: " << loaded.status().ToString();
  }
  std::remove(path.c_str());
}

TEST(ArchiveIoEdgeTest, SizeTableRunningIntoTrailerIsCorruption) {
  // One document whose size varint never terminates inside the body: the
  // two continuation bytes would make an unbounded read spill into the
  // CRC trailer, so the body must be rejected even though the checksum is
  // valid.
  std::string body;
  VByteCodec::Put(0, &body);  // dictionary: empty
  VByteCodec::Put(1, &body);  // num_docs
  body.push_back(static_cast<char>(0x80));  // size[0]: unterminated vbyte
  body.push_back(static_cast<char>(0x80));
  const std::string path = ::testing::TempDir() + "/rlza_short_table.bin";
  ASSERT_TRUE(WriteFile(path, CraftArchive(body)).ok());
  auto loaded = RlzArchive::Load(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kCorruption)
      << loaded.status().ToString();
  EXPECT_NE(loaded.status().ToString().find("truncated varint"),
            std::string::npos)
      << loaded.status().ToString();
  std::remove(path.c_str());
}

TEST(ArchiveIoEdgeTest, HugeDocCountIsRejectedBeforeAllocating) {
  // A crafted count must be rejected by comparing against the bytes left in
  // the file, not by attempting a ~16 GiB size-table allocation.
  std::string body;
  VByteCodec::Put(0, &body);           // dictionary: empty
  VByteCodec::Put(0xFFFFFFFFu, &body);  // num_docs
  const std::string path = ::testing::TempDir() + "/rlza_huge_count.bin";
  ASSERT_TRUE(WriteFile(path, CraftArchive(body)).ok());
  auto loaded = RlzArchive::Load(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kCorruption)
      << loaded.status().ToString();
  std::remove(path.c_str());
}

TEST(ArchiveIoEdgeTest, PayloadSizeMismatchIsCorruption) {
  // Size table promises 5 payload bytes but only 2 are present.
  std::string body;
  VByteCodec::Put(0, &body);  // dictionary: empty
  VByteCodec::Put(1, &body);  // num_docs
  VByteCodec::Put(5, &body);  // size[0]
  body.append("ab");
  const std::string path = ::testing::TempDir() + "/rlza_payload_short.bin";
  ASSERT_TRUE(WriteFile(path, CraftArchive(body)).ok());
  auto loaded = RlzArchive::Load(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kCorruption)
      << loaded.status().ToString();
  std::remove(path.c_str());
}

TEST(ArchiveIoEdgeTest, DictionaryRunningIntoTrailerIsCorruption) {
  // Dictionary length field claims more bytes than the body holds.
  std::string body;
  VByteCodec::Put(64, &body);  // dictionary size, but only 2 bytes follow
  body.append("ab");
  const std::string path = ::testing::TempDir() + "/rlza_dict_short.bin";
  ASSERT_TRUE(WriteFile(path, CraftArchive(body)).ok());
  auto loaded = RlzArchive::Load(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kCorruption)
      << loaded.status().ToString();
  std::remove(path.c_str());
}

TEST(ArchiveIoEdgeTest, CollectionWithEmptyDocs) {
  Collection c;
  c.Append("");
  c.Append("content");
  c.Append("");
  auto archive = CompressCollection(c, {});
  const std::string path = ::testing::TempDir() + "/rlza_emptydocs.bin";
  ASSERT_TRUE(archive->Save(path).ok());
  auto loaded = RlzArchive::Load(path);
  ASSERT_TRUE(loaded.ok());
  std::string doc;
  ASSERT_TRUE((*loaded)->Get(0, &doc).ok());
  EXPECT_EQ(doc, "");
  ASSERT_TRUE((*loaded)->Get(1, &doc).ok());
  EXPECT_EQ(doc, "content");
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// Unified container suite: every archive format (and the sharded manifest)
// must round-trip byte-identically through Save -> OpenArchive, and every
// corruption/truncation/version-mismatch path must return Corruption or
// InvalidArgument — never crash.

struct FormatCase {
  const char* tag;            // test name suffix
  const char* format_id;      // envelope format id Save must record
  std::function<std::unique_ptr<Archive>(const Collection&)> build;
};

std::vector<FormatCase> AllFormats() {
  return {
      {"Rlz", RlzArchive::kFormatId,
       [](const Collection& c) -> std::unique_ptr<Archive> {
         RlzOptions options;
         options.dict_bytes = 8 << 10;
         return CompressCollection(c, options);
       }},
      {"Ascii", AsciiArchive::kFormatId,
       [](const Collection& c) -> std::unique_ptr<Archive> {
         return std::make_unique<AsciiArchive>(c);
       }},
      {"BlockedGzipx", BlockedArchive::kFormatId,
       [](const Collection& c) -> std::unique_ptr<Archive> {
         return std::make_unique<BlockedArchive>(
             c, GetCompressor(CompressorId::kGzipx), 16 << 10);
       }},
      {"BlockedLzmax", BlockedArchive::kFormatId,
       [](const Collection& c) -> std::unique_ptr<Archive> {
         return std::make_unique<BlockedArchive>(
             c, GetCompressor(CompressorId::kLzmax), 16 << 10);
       }},
      {"SemistaticEtdc", SemiStaticArchive::kFormatId,
       [](const Collection& c) -> std::unique_ptr<Archive> {
         return SemiStaticArchive::Build(c, SemiStaticScheme::kEtdc);
       }},
      {"SemistaticPh", SemiStaticArchive::kFormatId,
       [](const Collection& c) -> std::unique_ptr<Archive> {
         return SemiStaticArchive::Build(c, SemiStaticScheme::kPlainHuffman);
       }},
      {"Sharded", Manifest::kFormatId,
       [](const Collection& c) -> std::unique_ptr<Archive> {
         ShardedStoreOptions options;
         options.num_shards = 3;
         options.dict_bytes = 8 << 10;
         return ShardedStore::Build(c, options);
       }},
  };
}

class UnifiedFormatTest : public ::testing::TestWithParam<size_t> {
 protected:
  static void SetUpTestSuite() {
    CorpusOptions options;
    options.target_bytes = 256 << 10;
    options.seed = 17;
    collection_ = new Collection(GenerateCorpus(options).collection);
  }
  static void TearDownTestSuite() {
    delete collection_;
    collection_ = nullptr;
  }

  const FormatCase& Case() const {
    static const std::vector<FormatCase>* cases =
        new std::vector<FormatCase>(AllFormats());
    return (*cases)[GetParam()];
  }

  std::string TempPath(const std::string& tag) const {
    return ::testing::TempDir() + "/fmt_" + tag + "_" + Case().tag + ".bin";
  }

  // A three-document collection small enough that truncation at *every*
  // prefix stays cheap even for the compressed formats.
  static Collection TinyCollection() {
    Collection c;
    c.Append("the quick brown fox jumps over the lazy dog");
    c.Append("the quick brown fox naps under the shady log");
    c.Append("an entirely different document about container formats");
    return c;
  }

  static void ExpectAllDocsEqual(const Collection& collection,
                                 const Archive& archive, size_t step = 1) {
    ASSERT_EQ(archive.num_docs(), collection.num_docs());
    std::string doc;
    for (size_t i = 0; i < collection.num_docs(); i += step) {
      ASSERT_TRUE(archive.Get(i, &doc).ok()) << "doc " << i;
      ASSERT_EQ(doc, collection.doc(i)) << "doc " << i;
    }
  }

  static const Collection* collection_;
};

const Collection* UnifiedFormatTest::collection_ = nullptr;

TEST_P(UnifiedFormatTest, RoundTripsThroughOpenArchive) {
  const std::string path = TempPath("roundtrip");
  auto archive = Case().build(*collection_);
  ASSERT_TRUE(archive->Save(path).ok());

  auto info = SniffArchiveFile(path);
  ASSERT_TRUE(info.ok()) << info.status().ToString();
  EXPECT_EQ(info->format_id, Case().format_id);

  auto loaded = OpenArchive(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ((*loaded)->name(), archive->name());
  EXPECT_EQ((*loaded)->stored_bytes(), archive->stored_bytes());
  ExpectAllDocsEqual(*collection_, **loaded, /*step=*/3);
  std::remove(path.c_str());
}

TEST_P(UnifiedFormatTest, EmptyCollectionRoundTrips) {
  const std::string path = TempPath("empty");
  Collection empty;
  auto archive = Case().build(empty);
  ASSERT_TRUE(archive->Save(path).ok());
  auto loaded = OpenArchive(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ((*loaded)->num_docs(), 0u);
  std::remove(path.c_str());
}

TEST_P(UnifiedFormatTest, TruncationAtEveryPrefixIsDetected) {
  const std::string path = TempPath("prefix");
  const Collection tiny = TinyCollection();
  auto archive = Case().build(tiny);
  ASSERT_TRUE(archive->Save(path).ok());
  auto raw = ReadFile(path);
  ASSERT_TRUE(raw.ok());

  for (size_t keep = 0; keep < raw->size(); ++keep) {
    ASSERT_TRUE(WriteFile(path, std::string_view(*raw).substr(0, keep)).ok());
    auto loaded = OpenArchive(path);
    ASSERT_FALSE(loaded.ok()) << "prefix of " << keep << " bytes undetected";
    const StatusCode code = loaded.status().code();
    EXPECT_TRUE(code == StatusCode::kCorruption ||
                code == StatusCode::kInvalidArgument)
        << "prefix of " << keep
        << " bytes: " << loaded.status().ToString();
  }
  std::remove(path.c_str());
}

TEST_P(UnifiedFormatTest, AnySingleByteFlipIsDetected) {
  const std::string path = TempPath("flip");
  const Collection tiny = TinyCollection();
  auto archive = Case().build(tiny);
  ASSERT_TRUE(archive->Save(path).ok());
  auto raw = ReadFile(path);
  ASSERT_TRUE(raw.ok());

  Rng rng(23);
  for (int trial = 0; trial < 32; ++trial) {
    std::string corrupt = *raw;
    corrupt[rng.Uniform(corrupt.size())] ^=
        static_cast<char>(1 + rng.Uniform(255));
    if (corrupt == *raw) continue;  // xor produced the same byte
    ASSERT_TRUE(WriteFile(path, corrupt).ok());
    auto loaded = OpenArchive(path);
    EXPECT_FALSE(loaded.ok()) << "flip trial " << trial << " undetected";
  }
  std::remove(path.c_str());
}

INSTANTIATE_TEST_SUITE_P(
    Formats, UnifiedFormatTest, ::testing::Range<size_t>(0, 7),
    [](const auto& info) { return AllFormats()[info.param].tag; });

// ---------------------------------------------------------------------------
// Envelope-level gates: wrong magic, wrong format id, future versions.

TEST(ContainerEnvelopeTest, WrongMagicIsCorruption) {
  const std::string path = ::testing::TempDir() + "/fmt_badmagic.bin";
  ASSERT_TRUE(WriteFile(path, "ZLRAxxxxxxxxxxxxxxxx").ok());
  auto loaded = OpenArchive(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kCorruption);
  std::remove(path.c_str());
}

TEST(ContainerEnvelopeTest, FutureContainerLayoutIsInvalidArgument) {
  // Magic plus a layout byte from the future: rejected as "written by a
  // future version", not corruption.
  const std::string path = ::testing::TempDir() + "/fmt_futurelayout.bin";
  std::string raw = "RLZA";
  raw.push_back(static_cast<char>(kContainerLayoutVersion + 1));
  raw += "rest of some future container";
  ASSERT_TRUE(WriteFile(path, raw).ok());
  auto loaded = OpenArchive(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
  std::remove(path.c_str());
}

TEST(ContainerEnvelopeTest, UnknownFormatIdIsInvalidArgument) {
  const std::string path = ::testing::TempDir() + "/fmt_unknownid.bin";
  EnvelopeWriter writer("no-such-format", 1);
  writer.PutBytes("whatever");
  ASSERT_TRUE(std::move(writer).WriteTo(path).ok());
  auto loaded = OpenArchive(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument)
      << loaded.status().ToString();
  std::remove(path.c_str());
}

TEST(ContainerEnvelopeTest, FutureFormatVersionIsInvalidArgument) {
  const std::string path = ::testing::TempDir() + "/fmt_futurever.bin";
  EnvelopeWriter writer(RlzArchive::kFormatId,
                        RlzArchive::kFormatVersion + 7);
  writer.PutBytes("body from the future");
  ASSERT_TRUE(std::move(writer).WriteTo(path).ok());
  auto loaded = OpenArchive(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument)
      << loaded.status().ToString();
  std::remove(path.c_str());
}

TEST(ContainerEnvelopeTest, WrongFormatIdViaTypedLoaderIsInvalidArgument) {
  // A valid ascii container refused by the rlz and blocked typed loaders:
  // the envelope parses fine, the format id does not match.
  Collection c;
  c.Append("one doc");
  const std::string path = ::testing::TempDir() + "/fmt_wrongtype.bin";
  ASSERT_TRUE(AsciiArchive(c).Save(path).ok());
  EXPECT_EQ(RlzArchive::Load(path).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(BlockedArchive::Load(path).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(ShardedStore::Open(path).status().code(),
            StatusCode::kInvalidArgument);
  // The format-agnostic path, by contrast, dispatches on the id and loads.
  auto open = OpenArchive(path);
  ASSERT_TRUE(open.ok()) << open.status().ToString();
  EXPECT_EQ((*open)->num_docs(), 1u);
  std::remove(path.c_str());
}

TEST(ContainerEnvelopeTest, TrailingJunkIsCorruption) {
  Collection c;
  c.Append("one doc");
  const std::string path = ::testing::TempDir() + "/fmt_trailing.bin";
  ASSERT_TRUE(AsciiArchive(c).Save(path).ok());
  auto raw = ReadFile(path);
  ASSERT_TRUE(raw.ok());
  ASSERT_TRUE(WriteFile(path, *raw + "junk").ok());
  auto loaded = OpenArchive(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kCorruption);
  std::remove(path.c_str());
}

TEST(ContainerEnvelopeTest, OverlongVarintIsCorruption) {
  // 2^64 encoded in ten varint bytes: the 10th byte carries payload bits
  // past bit 63, so the value does not fit — it must be rejected, not
  // silently truncated to 0.
  const std::string overlong("\x80\x80\x80\x80\x80\x80\x80\x80\x80\x02", 10);
  EnvelopeReader reader(overlong, "overlong varint");
  uint64_t value = 0;
  EXPECT_EQ(reader.ReadVarint64(&value).code(), StatusCode::kCorruption);
  // 5 padded to two bytes: writers never emit it, and accepting it would
  // give one value two encodings.
  EnvelopeReader padded(std::string_view("\x85\x00", 2), "padded varint");
  EXPECT_EQ(padded.ReadVarint64(&value).code(), StatusCode::kCorruption);
  // The largest encodable value (2^64-1: nine 0xFF then 0x01) still decodes.
  const std::string max_value("\xFF\xFF\xFF\xFF\xFF\xFF\xFF\xFF\xFF\x01", 10);
  EnvelopeReader max_reader(max_value, "max varint");
  ASSERT_TRUE(max_reader.ReadVarint64(&value).ok());
  EXPECT_EQ(value, 0xFFFFFFFFFFFFFFFFull);
}

TEST(ContainerEnvelopeTest, OverlongVarintFieldIsCorruption) {
  // A CRC-valid ascii container whose document count is the overlong
  // encoding of 2^64. Without the high-bit check this decodes as count 0
  // and the file "loads" as an empty archive; it must be Corruption.
  const std::string path = ::testing::TempDir() + "/fmt_overlongfield.bin";
  EnvelopeWriter writer(AsciiArchive::kFormatId, AsciiArchive::kFormatVersion);
  writer.PutBytes(std::string("\x80\x80\x80\x80\x80\x80\x80\x80\x80\x02", 10));
  ASSERT_TRUE(std::move(writer).WriteTo(path).ok());
  auto loaded = OpenArchive(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kCorruption)
      << loaded.status().ToString();
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// Dropped layouts and old versions: each format reads exactly its current
// version (DESIGN.md §8), and everything else fails with a clean Status.

TEST(DroppedLayoutTest, OldLayoutsAndVersionsFailCleanly) {
  const std::string path = ::testing::TempDir() + "/fmt_dropped.bin";

  // The pre-envelope rlz v1 file: magic, version byte 0x01, the ZV coding
  // pair, vbyte dictionary size and text, vbyte document count (none
  // here), payload, then a CRC-32 trailer over everything before it.
  std::string rlz_v1 = "RLZA";
  rlz_v1 += std::string("\x01\x01\x00", 3);
  VByteCodec::Put(3, &rlz_v1);
  rlz_v1 += "abc";
  VByteCodec::Put(0, &rlz_v1);
  const uint32_t crc = Crc32(rlz_v1);
  for (int i = 0; i < 4; ++i) {
    rlz_v1.push_back(static_cast<char>((crc >> (8 * i)) & 0xFF));
  }
  ASSERT_TRUE(WriteFile(path, rlz_v1).ok());
  EXPECT_EQ(RlzArchive::Load(path).status().code(), StatusCode::kCorruption);
  EXPECT_EQ(OpenArchive(path).status().code(), StatusCode::kCorruption);
  EXPECT_EQ(SniffArchiveFile(path).status().code(), StatusCode::kCorruption);

  // The pre-envelope "RCO1" collection: vbyte count, vbyte sizes, data.
  std::string rco1 = "RCO1";
  VByteCodec::Put(2, &rco1);
  VByteCodec::Put(5, &rco1);
  VByteCodec::Put(3, &rco1);
  rco1 += "helloabc";
  ASSERT_TRUE(WriteFile(path, rco1).ok());
  EXPECT_EQ(Collection::Load(path).status().code(), StatusCode::kCorruption);

  // The pre-envelope dictionary: bare text.
  ASSERT_TRUE(WriteFile(path, "bare dictionary text").ok());
  EXPECT_EQ(Dictionary::Load(path).status().code(), StatusCode::kCorruption);

  // The v1 manifest: shard count, boundaries and shard names only.
  {
    EnvelopeWriter writer(Manifest::kFormatId, /*version=*/1);
    writer.PutVarint64(1);
    writer.PutVarint64(0);
    writer.PutVarint64(2);
    writer.PutLengthPrefixed("fmt_dropped.bin.shard0000");
    ASSERT_TRUE(std::move(writer).WriteTo(path).ok());
    EXPECT_EQ(ShardedStore::Open(path).status().code(),
              StatusCode::kInvalidArgument);
    EXPECT_EQ(OpenArchive(path).status().code(),
              StatusCode::kInvalidArgument);
  }

  // The v3 manifest: the sections of v4, with the append dictionary's
  // text inline where v4 names its file and v5 lists the files.
  {
    Manifest manifest;
    manifest.router =
        std::make_shared<const ShardRouter>(std::vector<size_t>{0, 2});
    manifest.shard_names = {"fmt_dropped.bin.shard0000"};
    manifest.health.resize(1);
    manifest.tombstones.resize(1);
    manifest.dict_names = {"append dictionary text"};
    manifest.shard_dicts = {Manifest::kOwnDictionary};
    auto v5 = ParsedEnvelope::FromBytes(manifest.Encode(), "v5");
    ASSERT_TRUE(v5.ok());
    EnvelopeWriter writer(Manifest::kFormatId, /*version=*/3);
    writer.PutBytes(v5->body());
    ASSERT_TRUE(std::move(writer).WriteTo(path).ok());
    EXPECT_EQ(ShardedStore::Open(path).status().code(),
              StatusCode::kInvalidArgument);
    EXPECT_EQ(OpenArchive(path).status().code(),
              StatusCode::kInvalidArgument);
  }

  // Any format one version below its current one, whatever the body.
  struct Versioned {
    const char* format_id;
    uint32_t version;
    std::function<Status()> load;
  };
  const auto open = [&] { return OpenArchive(path).status(); };
  const auto shared_dict = std::make_shared<const Dictionary>("dictionary");
  const Versioned formats[] = {
      {RlzArchive::kFormatId, RlzArchive::kFormatVersion, open},
      {RlzArchive::kShardFormatId, RlzArchive::kShardFormatVersion,
       [&] { return RlzArchive::Load(path, {}, shared_dict).status(); }},
      {AsciiArchive::kFormatId, AsciiArchive::kFormatVersion, open},
      {BlockedArchive::kFormatId, BlockedArchive::kFormatVersion, open},
      {SemiStaticArchive::kFormatId, SemiStaticArchive::kFormatVersion, open},
      {Manifest::kFormatId, Manifest::kFormatVersion, open},
      {"collection", 2, [&] { return Collection::Load(path).status(); }},
      {Dictionary::kFormatId, Dictionary::kFormatVersion,
       [&] { return Dictionary::Load(path).status(); }},
  };
  for (const Versioned& format : formats) {
    EnvelopeWriter current(format.format_id, format.version);
    ASSERT_TRUE(std::move(current).WriteTo(path).ok());
    // At the current version an empty body is at worst Corruption...
    EXPECT_NE(format.load().code(), StatusCode::kInvalidArgument)
        << format.format_id;
    EnvelopeWriter older(format.format_id, format.version - 1);
    ASSERT_TRUE(std::move(older).WriteTo(path).ok());
    // ...one version below, the version gate refuses it.
    const Status status = format.load();
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument)
        << format.format_id << ": " << status.ToString();
  }
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// Serving-only opens (no suffix array) and the sharded manifest.

TEST(ServingOnlyOpenTest, GetWorksWithoutSuffixArray) {
  CorpusOptions options;
  options.target_bytes = 64 << 10;
  options.seed = 31;
  const Collection collection = GenerateCorpus(options).collection;
  RlzOptions rlz_options;
  rlz_options.dict_bytes = 8 << 10;
  auto archive = CompressCollection(collection, rlz_options);
  const std::string path = ::testing::TempDir() + "/fmt_nosa.bin";
  ASSERT_TRUE(archive->Save(path).ok());

  OpenOptions open_options;
  open_options.build_suffix_array = false;
  auto loaded = RlzArchive::Load(path, open_options);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  // The serving-only open really skipped the suffix array...
  EXPECT_FALSE((*loaded)->dictionary().has_matcher());
  // ...and decoding is untouched: every document and range byte-matches.
  std::string doc;
  for (size_t i = 0; i < collection.num_docs(); ++i) {
    ASSERT_TRUE((*loaded)->Get(i, &doc).ok()) << "doc " << i;
    ASSERT_EQ(doc, collection.doc(i)) << "doc " << i;
  }
  std::string window;
  ASSERT_TRUE((*loaded)->GetRange(0, 5, 20, &window).ok());
  EXPECT_EQ(window, collection.doc(0).substr(5, 20));

  // The default open still builds the matcher (the factorization path).
  auto with_sa = RlzArchive::Load(path);
  ASSERT_TRUE(with_sa.ok());
  EXPECT_TRUE((*with_sa)->dictionary().has_matcher());
  std::remove(path.c_str());
}

TEST(ShardedStorePersistenceTest, RoundTripsAndServesWithoutSuffixArrays) {
  CorpusOptions options;
  options.target_bytes = 128 << 10;
  options.seed = 37;
  const Collection collection = GenerateCorpus(options).collection;
  ShardedStoreOptions store_options;
  store_options.num_shards = 4;
  store_options.dict_bytes = 16 << 10;
  auto store = ShardedStore::Build(collection, store_options);

  const std::string path = ::testing::TempDir() + "/fmt_store.sharded";
  ASSERT_TRUE(store->Save(path).ok());

  OpenOptions open_options;
  open_options.build_suffix_array = false;
  auto reopened = ShardedStore::Open(path, open_options);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ((*reopened)->num_shards(), store->num_shards());
  EXPECT_EQ((*reopened)->num_docs(), collection.num_docs());
  for (int s = 0; s < (*reopened)->num_shards(); ++s) {
    EXPECT_FALSE((*reopened)->shard(s).dictionary().has_matcher());
    EXPECT_EQ((*reopened)->starts(s), store->starts(s));
  }
  std::string doc;
  for (size_t i = 0; i < collection.num_docs(); i += 7) {
    ASSERT_TRUE((*reopened)->Get(i, &doc).ok()) << "doc " << i;
    ASSERT_EQ(doc, collection.doc(i)) << "doc " << i;
  }
  std::string window;
  ASSERT_TRUE((*reopened)->GetRange(1, 3, 25, &window).ok());
  EXPECT_EQ(window, collection.doc(1).substr(3, 25));

  for (int s = 0; s < store->num_shards(); ++s) {
    char suffix[32];
    std::snprintf(suffix, sizeof(suffix), ".shard%04d", s);
    std::remove((path + suffix).c_str());
  }
  std::remove((path + ".dict").c_str());
  std::remove(path.c_str());
}

TEST(ShardedStorePersistenceTest, MissingShardFileFailsToOpen) {
  Collection collection;
  for (int i = 0; i < 12; ++i) {
    collection.Append("document number " + std::to_string(i) +
                      " with a little shared text");
  }
  ShardedStoreOptions store_options;
  store_options.num_shards = 3;
  store_options.dict_bytes = 1 << 10;
  auto store = ShardedStore::Build(collection, store_options);

  const std::string path = ::testing::TempDir() + "/fmt_missing.sharded";
  ASSERT_TRUE(store->Save(path).ok());
  ASSERT_EQ(std::remove((path + ".shard0001").c_str()), 0);

  auto reopened = ShardedStore::Open(path);
  ASSERT_FALSE(reopened.ok());
  EXPECT_EQ(reopened.status().code(), StatusCode::kIOError)
      << reopened.status().ToString();

  std::remove((path + ".shard0000").c_str());
  std::remove((path + ".shard0002").c_str());
  std::remove((path + ".dict").c_str());
  std::remove(path.c_str());
}

// Parses `bytes` as a manifest envelope.
StatusOr<Manifest> ParseManifest(std::string bytes) {
  RLZ_ASSIGN_OR_RETURN(ParsedEnvelope envelope,
                       ParsedEnvelope::FromBytes(std::move(bytes), "manifest"));
  return Manifest::Parse(envelope);
}

TEST(ManifestTest, EncodeThenParseIsIdentity) {
  Manifest manifest;
  manifest.sequence = 42;
  manifest.router =
      std::make_shared<const ShardRouter>(std::vector<size_t>{0, 3, 3, 10});
  manifest.shard_names = {"m.shard0000", "m.shard0001", "m.shard0002"};
  manifest.health.resize(3);
  manifest.health[0].generation = 2;
  manifest.health[0].tombstoned_payload_bytes = 977;
  manifest.health[0].unused_dict_fraction = 0.3125;
  manifest.health[2].stats = {1000, 17, 90000};
  manifest.baseline = {5000, 40, 700000};
  manifest.tombstones = {{0, 2}, {}, {1, 6}};
  manifest.tail_tombstones = {0, 3};
  for (const char* doc : {"alpha", "", "gamma", "delta"}) {
    manifest.tail_docs.push_back(std::make_shared<const std::string>(doc));
  }
  manifest.live.tail_seal_bytes = 12345;
  manifest.live.compact_tombstone_fraction = 0.125;
  manifest.live.compact_stale_unused_fraction = 0.75;
  manifest.live.compact_stale_decay = 0.0625;
  manifest.shard_dict_bytes = 4096;
  manifest.dict_names = {"m.dict", "m.dict0001"};
  manifest.shard_dicts = {Manifest::kOwnDictionary, 1, 0};
  const std::string bytes = manifest.Encode();

  auto parsed = ParseManifest(bytes);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->sequence, 42u);
  ASSERT_EQ(parsed->router->num_shards(), 3u);
  for (size_t s = 0; s <= 3; ++s) {
    EXPECT_EQ(parsed->router->start(s), manifest.router->start(s));
  }
  EXPECT_EQ(parsed->shard_names, manifest.shard_names);
  ASSERT_EQ(parsed->health.size(), 3u);
  for (size_t s = 0; s < 3; ++s) {
    const ShardHealth& want = manifest.health[s];
    const ShardHealth& got = parsed->health[s];
    EXPECT_EQ(got.generation, want.generation);
    EXPECT_EQ(got.tombstoned_payload_bytes, want.tombstoned_payload_bytes);
    EXPECT_EQ(got.unused_dict_fraction, want.unused_dict_fraction);
    EXPECT_EQ(got.stats.num_factors, want.stats.num_factors);
    EXPECT_EQ(got.stats.num_literals, want.stats.num_literals);
    EXPECT_EQ(got.stats.text_bytes, want.stats.text_bytes);
  }
  EXPECT_EQ(parsed->baseline.num_factors, 5000u);
  EXPECT_EQ(parsed->baseline.num_literals, 40u);
  EXPECT_EQ(parsed->baseline.text_bytes, 700000u);
  EXPECT_EQ(parsed->tombstones, manifest.tombstones);
  EXPECT_EQ(parsed->tail_tombstones, manifest.tail_tombstones);
  ASSERT_EQ(parsed->tail_docs.size(), 4u);
  for (size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(*parsed->tail_docs[i], *manifest.tail_docs[i]);
  }
  EXPECT_EQ(parsed->dict_names, manifest.dict_names);
  EXPECT_EQ(parsed->shard_dicts, manifest.shard_dicts);
  EXPECT_EQ(parsed->live.tail_seal_bytes, 12345u);
  EXPECT_EQ(parsed->live.compact_tombstone_fraction, 0.125);
  EXPECT_EQ(parsed->live.compact_stale_unused_fraction, 0.75);
  EXPECT_EQ(parsed->live.compact_stale_decay, 0.0625);
  EXPECT_EQ(parsed->shard_dict_bytes, 4096u);
  EXPECT_EQ(parsed->Encode(), bytes);
}

TEST(ManifestTest, ImpossibleSectionsAreCorruption) {
  const auto encode = [](const std::function<void(Manifest*)>& edit) {
    Manifest manifest;
    manifest.router =
        std::make_shared<const ShardRouter>(std::vector<size_t>{0, 4});
    manifest.shard_names = {"m.shard0000"};
    manifest.health.resize(1);
    manifest.tombstones.resize(1);
    manifest.tail_docs.push_back(std::make_shared<const std::string>("t"));
    manifest.dict_names = {"m.dict"};
    manifest.shard_dicts = {0};
    edit(&manifest);
    return manifest.Encode();
  };
  ASSERT_TRUE(ParseManifest(encode([](Manifest*) {})).ok());
  const std::function<void(Manifest*)> bad[] = {
      [](Manifest* m) {
        m->router = std::make_shared<const ShardRouter>(
            std::vector<size_t>{1, 4});
      },
      [](Manifest* m) { m->shard_names = {""}; },
      [](Manifest* m) { m->shard_names = {"../m.shard0000"}; },
      [](Manifest* m) { m->dict_names = {""}; },
      [](Manifest* m) { m->dict_names = {"m.dict", "/tmp/m.dict"}; },
      [](Manifest* m) { m->dict_names = {std::string("m.dict\0x", 8)}; },
      [](Manifest* m) { m->tombstones = {{4}}; },
      [](Manifest* m) { m->tombstones = {{2, 2}}; },
      [](Manifest* m) { m->tombstones = {{0, 1, 2, 3, 3}}; },
      [](Manifest* m) { m->tail_tombstones = {1}; },
  };
  for (size_t i = 0; i < std::size(bad); ++i) {
    const auto parsed = ParseManifest(encode(bad[i]));
    EXPECT_EQ(parsed.status().code(), StatusCode::kCorruption) << "case " << i;
  }

  // A shard bound to a dictionary the list does not hold, and a list of
  // no dictionaries: Encode refuses both, so they are cut from valid
  // bodies (count 2, two names, shard id 2 = the second dictionary).
  const std::string two = encode([](Manifest* m) {
    m->dict_names = {"m.dict", "m.dict0001"};
    m->shard_dicts = {1};
  });
  auto envelope = ParsedEnvelope::FromBytes(two, "manifest");
  ASSERT_TRUE(envelope.ok());
  const std::string body(envelope->body());
  const std::string section("\x02\x06m.dict\x0am.dict0001\x02");
  const size_t at = body.find(section);
  ASSERT_NE(at, std::string::npos);
  for (const std::string& cut :
       {std::string("\x01\x06m.dict\x02"), std::string("\x00\x02", 2)}) {
    std::string bad_body = body;
    bad_body.replace(at, section.size(), cut);
    EnvelopeWriter writer(Manifest::kFormatId, Manifest::kFormatVersion);
    writer.PutBytes(bad_body);
    EXPECT_EQ(ParseManifest(std::move(writer).Seal()).status().code(),
              StatusCode::kCorruption)
        << cut.size();
  }
}

TEST(ManifestTest, HugeShardBoundaryAllocatesNothingUpFront) {
  // A CRC-valid manifest may claim a shard of 2^62 documents with a
  // tombstone in it. Parsing keeps the tombstone as an id, not as a
  // 2^62-bit bitmap; the open then fails on the missing files.
  Manifest manifest;
  manifest.router = std::make_shared<const ShardRouter>(
      std::vector<size_t>{0, size_t{1} << 62});
  manifest.shard_names = {"fmt_huge.sharded.shard0000"};
  manifest.dict_names = {"fmt_huge.sharded.dict"};
  manifest.shard_dicts = {0};
  manifest.health.resize(1);
  manifest.tombstones = {{(uint64_t{1} << 62) - 1}};
  auto parsed = ParseManifest(manifest.Encode());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->tombstones, manifest.tombstones);

  const std::string path = ::testing::TempDir() + "/fmt_huge.sharded";
  ASSERT_TRUE(WriteFile(path, manifest.Encode()).ok());
  EXPECT_EQ(ShardedStore::Open(path).status().code(), StatusCode::kIOError);
  std::remove(path.c_str());
}

TEST(ManifestTest, FileNamedDotDotIsNotRead) {
  // ".." is a sibling name without a '/', and it names a directory,
  // whose end offset the stdio reader may see as LONG_MAX: the open
  // fails with IOError instead of allocating that much.
  Manifest manifest;
  manifest.router =
      std::make_shared<const ShardRouter>(std::vector<size_t>{0, 1});
  manifest.shard_names = {".."};
  manifest.dict_names = {".."};
  manifest.shard_dicts = {0};
  manifest.health.resize(1);
  manifest.tombstones.resize(1);
  const std::string path = ::testing::TempDir() + "/fmt_dotdot.sharded";
  ASSERT_TRUE(WriteFile(path, manifest.Encode()).ok());
  EXPECT_EQ(ShardedStore::Open(path).status().code(), StatusCode::kIOError);
  EXPECT_EQ(ReadFile(::testing::TempDir()).status().code(),
            StatusCode::kIOError);
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// Pinned encoder output. The CRC-32 of every file the encoders write for a
// fixed corpus, recorded once from a known-good build: any change to the
// factorization (ties included) or to the factor coders changes a CRC here,
// so encoder drift fails this test and not only a compression-ratio
// comparison. A deliberate format change re-records the table.

// Every container ends in the CRC-32 of the bytes before it, and the CRC
// of a whole file is then a constant residue, so BodyCrc skips the trailer.
uint32_t BodyCrc(std::string_view file) {
  return Crc32(file.substr(0, file.size() - 4));
}

struct PinnedCrc {
  const char* file;
  uint32_t crc;
};

// In build order: "rlz.ZV", "rlz.UV", "rlz.ZZ", a gzipx blocked archive
// (64 KB blocks), then the live store's sealed tail shard in both
// containers ("rlz" with its dictionary, "rlzshard" bound to the store's
// append dictionary), and its manifest, every shard file and the append
// dictionary's file after build, append, seal and compaction.
// ZZ and the blocked archive run the gzipx Huffman builder on symbol mixes
// ZV does not: zlib-coded lengths, and whole text blocks. On a mismatch the
// test prints the new table.
constexpr PinnedCrc kPinnedCrcs[] = {
    {"rlz.ZV", 0x7600c994},          {"rlz.UV", 0x1c3bf823},
    {"rlz.ZZ", 0x02c3a630},          {"blocked.gzipx", 0x2d59789e},
    {"reuse.sealed", 0x98e9a801},    {"reuse.sealed.rlzshard", 0x3216a645},
    {"reuse", 0xcf813b7d},           {"reuse.shard0000", 0x81138095},
    {"reuse.shard0001", 0x5c5dbfdb}, {"reuse.shard0002", 0xe207715e},
    {"reuse.shard0003", 0x20d5407a}, {"reuse.shard0004", 0x4060d51a},
    {"reuse.dict", 0x98bdf8a1},
};

TEST(PinnedEncoderTest, OutputBytesMatchRecordedCrcs) {
  CorpusOptions options;
  options.target_bytes = 2 << 20;
  options.seed = 20110613;
  const Collection collection = GenerateCorpus(options).collection;
  options.target_bytes = 256 << 10;
  options.seed = 1717;
  const Collection appended = GenerateCorpus(options).collection;

  std::vector<std::pair<std::string, uint32_t>> got;
  const std::shared_ptr<const Dictionary> dict =
      DictionaryBuilder::BuildSampled(collection.data(), 64 << 10, 1024);
  for (const PairCoding coding : {kZV, kUV, kZZ}) {
    RlzBuildOptions build_options;
    build_options.coding = coding;
    const auto archive = RlzArchive::Build(collection, dict, build_options);
    got.emplace_back("rlz." + coding.name(), BodyCrc(archive->Serialize()));
  }
  {
    const BlockedArchive blocked(collection,
                                 GetCompressor(CompressorId::kGzipx), 64 << 10);
    const std::string path = ::testing::TempDir() + "/pinned.blocked";
    ASSERT_TRUE(blocked.Save(path).ok());
    auto bytes = ReadFile(path);
    ASSERT_TRUE(bytes.ok()) << path;
    got.emplace_back("blocked.gzipx", BodyCrc(*bytes));
    std::remove(path.c_str());
  }

  {
    ShardedStoreOptions store_options;
    store_options.num_shards = 4;
    store_options.dict_bytes = 64 << 10;
    store_options.live.tail_seal_bytes = 0;
    store_options.live.compact_tombstone_fraction = 0.10;
    auto store = ShardedStore::Build(collection, store_options);
    for (size_t i = 0; i < appended.num_docs(); ++i) {
      ASSERT_TRUE(store->Append(appended.doc(i)).ok());
    }
    ASSERT_TRUE(store->SealTail().ok());
    ASSERT_EQ(store->num_shards(), 5);
    // The compaction below may rewrite the sealed shard (stale
    // dictionary), so pin the seal's output before it runs. "reuse": the
    // seal encodes against the store's reused append dictionary.
    const std::string mode = "reuse";
    got.emplace_back(mode + ".sealed", BodyCrc(store->shard(4).Serialize()));
    got.emplace_back(mode + ".sealed.rlzshard",
                     BodyCrc(store->shard(4).SerializeShard()));
    for (size_t id = 0; id < store->starts(1); id += 3) {
      ASSERT_TRUE(store->Delete(id).ok());
    }
    auto report = store->CompactOnce();
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    ASSERT_TRUE(report.value().compacted);
    ASSERT_EQ(store->num_shards(), 5);

    const std::string path = ::testing::TempDir() + "/pinned.sharded";
    ASSERT_TRUE(store->Save(path).ok());
    std::vector<std::string> files = {path};
    for (int s = 0; s < store->num_shards(); ++s) {
      char suffix[32];
      std::snprintf(suffix, sizeof(suffix), ".shard%04d", s);
      files.push_back(path + suffix);
    }
    files.push_back(path + ".dict");
    for (const std::string& file : files) {
      auto bytes = ReadFile(file);
      ASSERT_TRUE(bytes.ok()) << file;
      got.emplace_back(mode + file.substr(path.size()), BodyCrc(*bytes));
      std::remove(file.c_str());
    }
  }

  std::string table;
  for (const auto& [file, crc] : got) {
    char line[64];
    std::snprintf(line, sizeof(line), "    {\"%s\", 0x%08x},\n", file.c_str(),
                  crc);
    table += line;
  }
  ASSERT_EQ(got.size(), std::size(kPinnedCrcs)) << "now:\n" << table;
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].first, kPinnedCrcs[i].file);
    EXPECT_EQ(got[i].second, kPinnedCrcs[i].crc)
        << got[i].first << " changed; the full table now reads:\n"
        << table;
  }
}

TEST(CollectionPersistenceTest, EnvelopeSaveIsCrcProtected) {
  Collection c;
  c.Append("some document text");
  c.Append("another document");
  const std::string path = ::testing::TempDir() + "/fmt_col_crc.rcol";
  ASSERT_TRUE(c.Save(path).ok());
  auto raw = ReadFile(path);
  ASSERT_TRUE(raw.ok());
  // The writer emits the shared envelope...
  auto info = SniffArchiveFile(path);
  ASSERT_TRUE(info.ok());
  EXPECT_EQ(info->format_id, "collection");
  // ...so a flipped payload byte is detected.
  std::string corrupt = *raw;
  corrupt[corrupt.size() / 2] ^= 0x20;
  ASSERT_TRUE(WriteFile(path, corrupt).ok());
  EXPECT_FALSE(Collection::Load(path).ok());
  std::remove(path.c_str());
}

TEST(DictionaryPersistenceTest, EnvelopeLoadsAndDamageIsDetected) {
  const std::string path = ::testing::TempDir() + "/fmt_dict.bin";
  Dictionary dict("structure structure structure text");
  ASSERT_TRUE(dict.Save(path).ok());
  auto loaded = Dictionary::Load(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ((*loaded)->text(), dict.text());
  EXPECT_TRUE((*loaded)->has_matcher());

  // Serving-only load: text intact, no suffix array built.
  auto serving = Dictionary::Load(path, /*build_suffix_array=*/false);
  ASSERT_TRUE(serving.ok());
  EXPECT_EQ((*serving)->text(), dict.text());
  EXPECT_FALSE((*serving)->has_matcher());

  // A damaged envelope surfaces as an error.
  auto raw = ReadFile(path);
  ASSERT_TRUE(raw.ok());
  std::string corrupt = *raw;
  corrupt[corrupt.size() - 2] ^= 0x01;  // inside the CRC trailer
  ASSERT_TRUE(WriteFile(path, corrupt).ok());
  EXPECT_FALSE(Dictionary::Load(path).ok());
  std::remove(path.c_str());
}

}  // namespace
}  // namespace rlz
