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

// The v1 format stores the dictionary size, document count, and per-doc
// payload sizes as 32-bit vbytes; Save must refuse anything larger instead
// of truncating it under a valid CRC. The guard is tested directly so no
// 4 GiB allocations are needed.
TEST(ArchiveFormatLimitsTest, AcceptsSizesUpToTheLimit) {
  EXPECT_TRUE(RlzArchive::CheckFormatLimits(0, 0, 0).ok());
  EXPECT_TRUE(RlzArchive::CheckFormatLimits(RlzArchive::kMaxFormatValue,
                                            RlzArchive::kMaxFormatValue,
                                            RlzArchive::kMaxFormatValue)
                  .ok());
}

TEST(ArchiveFormatLimitsTest, RejectsOversizedDictionary) {
  const Status s =
      RlzArchive::CheckFormatLimits(RlzArchive::kMaxFormatValue + 1, 0, 0);
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument) << s.ToString();
}

TEST(ArchiveFormatLimitsTest, RejectsOversizedDocCount) {
  const Status s =
      RlzArchive::CheckFormatLimits(0, RlzArchive::kMaxFormatValue + 1, 0);
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument) << s.ToString();
}

TEST(ArchiveFormatLimitsTest, RejectsOversizedEncodedDoc) {
  const Status s =
      RlzArchive::CheckFormatLimits(0, 0, RlzArchive::kMaxFormatValue + 1);
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument) << s.ToString();
}

// Wraps `header_and_payload` in the v1 container: magic, version, a valid
// ZV coding pair, and a correct CRC trailer — so Load gets past the
// checksum and must reject the malformed header on its own.
std::string CraftArchive(const std::string& header_and_payload) {
  std::string out;
  out.append("RLZA", 4);
  out.push_back(1);  // kArchiveVersion
  out.push_back(1);  // PosCoding::kZlib  ("Z")
  out.push_back(0);  // LenCoding::kVByte ("V")
  out.append(header_and_payload);
  const uint32_t crc = Crc32(out);
  for (int i = 0; i < 4; ++i) {
    out.push_back(static_cast<char>((crc >> (8 * i)) & 0xFF));
  }
  return out;
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
  // One document whose size vbyte never terminates inside the body: the
  // two continuation bytes make the read spill into the CRC trailer (the
  // trailer's third byte, 0x4a, terminates it past payload_end), so the
  // header must be rejected even though the checksum is valid.
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
  EXPECT_NE(loaded.status().ToString().find("truncated size table"),
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
  // Dictionary size field claims more bytes than exist before the trailer.
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
      {"Sharded", ShardedStore::kFormatId,
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
// Legacy read-compat and the serving-only (no suffix array) open path.

TEST(LegacyCompatTest, LegacyV1RlzFileStillLoads) {
  CorpusOptions options;
  options.target_bytes = 64 << 10;
  options.seed = 29;
  const Collection collection = GenerateCorpus(options).collection;
  RlzOptions rlz_options;
  rlz_options.dict_bytes = 8 << 10;
  auto archive = CompressCollection(collection, rlz_options);

  const std::string path = ::testing::TempDir() + "/fmt_legacy_v1.bin";
  ASSERT_TRUE(archive->SaveLegacyV1(path).ok());

  auto info = SniffArchiveFile(path);
  ASSERT_TRUE(info.ok());
  EXPECT_EQ(info->format_id, "rlz");
  EXPECT_EQ(info->version, 1u);

  // Both the typed loader and the registry open the pre-envelope layout.
  auto typed = RlzArchive::Load(path);
  ASSERT_TRUE(typed.ok()) << typed.status().ToString();
  auto open = OpenArchive(path);
  ASSERT_TRUE(open.ok()) << open.status().ToString();
  std::string a;
  std::string b;
  for (size_t i = 0; i < collection.num_docs(); i += 5) {
    ASSERT_TRUE((*typed)->Get(i, &a).ok());
    ASSERT_TRUE((*open)->Get(i, &b).ok());
    ASSERT_EQ(a, collection.doc(i));
    ASSERT_EQ(b, collection.doc(i));
  }
  std::remove(path.c_str());
}

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
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// Collection and Dictionary on the shared envelope (satellite: one
// CRC/bounds-check implementation, read-compat for pre-envelope files).

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
// (64 KB blocks), then per live-store mode the sealed tail shard, and the
// manifest and every shard file after build, append, seal and compaction.
// ZZ and the blocked archive run the gzipx Huffman builder on symbol mixes
// ZV does not: zlib-coded lengths, and whole text blocks. On a mismatch the
// test prints the new table.
constexpr PinnedCrc kPinnedCrcs[] = {
    {"rlz.ZV", 0x7600c994},          {"rlz.UV", 0x1c3bf823},
    {"rlz.ZZ", 0x02c3a630},          {"blocked.gzipx", 0x2d59789e},
    {"reuse.sealed", 0x98e9a801},    {"reuse", 0x83fda205},
    {"reuse.shard0000", 0x81138095}, {"reuse.shard0001", 0x5c5dbfdb},
    {"reuse.shard0002", 0xe207715e}, {"reuse.shard0003", 0x20d5407a},
    {"reuse.shard0004", 0x4060d51a}, {"fresh.sealed", 0x4060d51a},
    {"fresh", 0x7f337961},           {"fresh.shard0000", 0xaa12148f},
    {"fresh.shard0001", 0x5c5dbfdb}, {"fresh.shard0002", 0xe207715e},
    {"fresh.shard0003", 0x20d5407a}, {"fresh.shard0004", 0x4060d51a},
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

  for (const bool reuse : {true, false}) {
    ShardedStoreOptions store_options;
    store_options.num_shards = 4;
    store_options.dict_bytes = 64 << 10;
    store_options.live.tail_seal_bytes = 0;
    store_options.live.reuse_append_dictionary = reuse;
    store_options.live.compact_tombstone_fraction = 0.10;
    auto store = ShardedStore::Build(collection, store_options);
    for (size_t i = 0; i < appended.num_docs(); ++i) {
      ASSERT_TRUE(store->Append(appended.doc(i)).ok());
    }
    ASSERT_TRUE(store->SealTail().ok());
    ASSERT_EQ(store->num_shards(), 5);
    // The compaction below may rewrite the sealed shard (stale
    // dictionary), so pin the seal's output before it runs.
    const std::string mode = reuse ? "reuse" : "fresh";
    got.emplace_back(mode + ".sealed", BodyCrc(store->shard(4).Serialize()));
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

TEST(CollectionPersistenceTest, LegacyRco1FileStillLoads) {
  // Hand-craft the pre-envelope layout: "RCO1", vbyte count, vbyte sizes,
  // raw data — what every collection file on disk looked like before.
  std::string raw = "RCO1";
  VByteCodec::Put(2, &raw);
  VByteCodec::Put(5, &raw);
  VByteCodec::Put(3, &raw);
  raw += "helloabc";
  const std::string path = ::testing::TempDir() + "/fmt_legacy.rcol";
  ASSERT_TRUE(WriteFile(path, raw).ok());
  auto loaded = Collection::Load(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ASSERT_EQ(loaded->num_docs(), 2u);
  EXPECT_EQ(loaded->doc(0), "hello");
  EXPECT_EQ(loaded->doc(1), "abc");
  std::remove(path.c_str());
}

TEST(CollectionPersistenceTest, EnvelopeSaveIsCrcProtected) {
  Collection c;
  c.Append("some document text");
  c.Append("another document");
  const std::string path = ::testing::TempDir() + "/fmt_col_crc.rcol";
  ASSERT_TRUE(c.Save(path).ok());
  auto raw = ReadFile(path);
  ASSERT_TRUE(raw.ok());
  // The new writer emits the shared envelope...
  auto info = SniffArchiveFile(path);
  ASSERT_TRUE(info.ok());
  EXPECT_EQ(info->format_id, "collection");
  // ...so a flipped payload byte is now detected (the legacy layout had
  // no checksum at all).
  std::string corrupt = *raw;
  corrupt[corrupt.size() / 2] ^= 0x20;
  ASSERT_TRUE(WriteFile(path, corrupt).ok());
  EXPECT_FALSE(Collection::Load(path).ok());
  std::remove(path.c_str());
}

TEST(DictionaryPersistenceTest, EnvelopeAndLegacyBothLoad) {
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

  // A pre-envelope dictionary is bare text; it must keep loading as-is.
  ASSERT_TRUE(WriteFile(path, "legacy bare dictionary bytes").ok());
  auto legacy = Dictionary::Load(path);
  ASSERT_TRUE(legacy.ok());
  EXPECT_EQ((*legacy)->text(), "legacy bare dictionary bytes");

  // A *damaged* envelope must surface as an error, not be misread as a
  // legacy bare-text dictionary.
  ASSERT_TRUE(dict.Save(path).ok());
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
