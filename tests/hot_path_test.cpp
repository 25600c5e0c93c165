// Hot-path regression suite (DESIGN.md §9): scratch-reuse decode must be
// byte-identical to fresh-allocation decode across every position/length
// coding pair and every archive format; the fused no-vector decode must
// agree with the general stream decode; and the per-document allocation
// guards (decoded-size limit, z-stream framing limits) must hold.

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <new>
#include <string>
#include <string_view>
#include <vector>

#include <gtest/gtest.h>

#include "codecs/int_codecs.h"
#include "core/dictionary.h"
#include "core/factor_coder.h"
#include "core/factorizer.h"
#include "core/rlz_archive.h"
#include "corpus/generator.h"
#include "semistatic/semistatic_archive.h"
#include "serve/doc_service.h"
#include "serve/sharded_store.h"
#include "store/ascii_archive.h"
#include "store/blocked_archive.h"
#include "store/decode_scratch.h"
#include "util/random.h"
#include "zip/compressor.h"
#include "zip/gzipx.h"
#include "zip/huffman.h"

// Global allocation counter: this binary replaces the global allocator so
// SteadyStateScratchDecodeIsAllocationFree can assert DESIGN.md §9's
// allocation budget instead of trusting it. Counting is a relaxed atomic
// increment; allocation behavior is otherwise unchanged.
namespace {
std::atomic<uint64_t> g_heap_allocs{0};
}  // namespace

// GCC's -Wmismatched-new-delete cannot see that the replaced operator
// new below allocates with malloc, so free() in the matching deletes is
// correct; silence the false positive for these definitions only.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void* operator new(std::size_t size) {
  g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) {
  g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
#pragma GCC diagnostic pop

namespace rlz {
namespace {

Collection TestCollection(size_t target_bytes, uint64_t seed) {
  CorpusOptions options;
  options.target_bytes = target_bytes;
  options.seed = seed;
  return GenerateCorpus(options).collection;
}

// Every position coding x every length coding, the paper's pairs first.
std::vector<PairCoding> AllCodings() {
  std::vector<PairCoding> codings;
  for (PosCoding pos :
       {PosCoding::kU32, PosCoding::kZlib, PosCoding::kPFD}) {
    for (LenCoding len : {LenCoding::kVByte, LenCoding::kZlib,
                          LenCoding::kS9, LenCoding::kPFD}) {
      codings.push_back(PairCoding{pos, len});
    }
  }
  return codings;
}

// ---------------------------------------------------------------------------
// FactorCoder: scratch decode == fresh decode == source text, all codings.

TEST(HotPathTest, ScratchDecodeIsByteIdenticalAcrossAllCodings) {
  const Collection collection = TestCollection(1 << 18, 51);
  auto dict = DictionaryBuilder::BuildSampled(
      collection.data(), collection.size_bytes() / 50, 1024);
  Factorizer factorizer(dict.get());
  std::vector<std::vector<Factor>> docs(collection.num_docs());
  for (size_t i = 0; i < collection.num_docs(); ++i) {
    factorizer.Factorize(collection.doc(i), &docs[i]);
  }

  for (const PairCoding coding : AllCodings()) {
    SCOPED_TRACE(coding.name());
    const FactorCoder coder(coding);
    DecodeScratch scratch;  // one scratch reused across every document
    for (size_t i = 0; i < collection.num_docs(); ++i) {
      std::string encoded;
      ASSERT_TRUE(coder.EncodeDoc(docs[i], &encoded).ok());
      std::string fresh;
      std::string reused;
      ASSERT_TRUE(coder.DecodeDoc(encoded, *dict, &fresh).ok());
      ASSERT_TRUE(coder.DecodeDoc(encoded, *dict, &reused, &scratch).ok());
      ASSERT_EQ(fresh, collection.doc(i)) << "doc " << i;
      ASSERT_EQ(reused, fresh) << "doc " << i;
    }
  }
}

TEST(HotPathTest, ScratchDecodeRangeIsByteIdenticalAcrossAllCodings) {
  const Collection collection = TestCollection(1 << 17, 52);
  auto dict = DictionaryBuilder::BuildSampled(
      collection.data(), collection.size_bytes() / 50, 1024);
  Factorizer factorizer(dict.get());
  Rng rng(77);
  for (const PairCoding coding : AllCodings()) {
    SCOPED_TRACE(coding.name());
    const FactorCoder coder(coding);
    DecodeScratch scratch;
    for (size_t i = 0; i < collection.num_docs(); i += 3) {
      const std::string_view doc = collection.doc(i);
      std::vector<Factor> factors;
      factorizer.Factorize(doc, &factors);
      std::string encoded;
      ASSERT_TRUE(coder.EncodeDoc(factors, &encoded).ok());
      const size_t offset = rng.Next() % (doc.size() + 1);
      const size_t length = rng.Next() % 200;
      std::string fresh;
      std::string reused;
      ASSERT_TRUE(
          coder.DecodeRange(encoded, *dict, offset, length, &fresh).ok());
      ASSERT_TRUE(coder.DecodeRange(encoded, *dict, offset, length, &reused,
                                    &scratch)
                      .ok());
      const std::string_view expect =
          offset < doc.size() ? doc.substr(offset, length)
                              : std::string_view();
      ASSERT_EQ(fresh, expect);
      ASSERT_EQ(reused, fresh);
    }
  }
}

// The decode output must append (not clobber) and be identical whether the
// same scratch was previously used on a larger document — stale scratch
// contents must never leak into a later decode.
TEST(HotPathTest, ScratchReuseAfterLargerDocumentIsClean) {
  const Collection collection = TestCollection(1 << 17, 53);
  auto dict = DictionaryBuilder::BuildSampled(
      collection.data(), collection.size_bytes() / 50, 1024);
  Factorizer factorizer(dict.get());
  const FactorCoder coder(kZV);
  // Largest document first, then every other document through the same
  // scratch.
  size_t largest = 0;
  for (size_t i = 0; i < collection.num_docs(); ++i) {
    if (collection.doc_size(i) > collection.doc_size(largest)) largest = i;
  }
  DecodeScratch scratch;
  std::vector<Factor> factors;
  std::string encoded;
  std::string out;
  factorizer.Factorize(collection.doc(largest), &factors);
  ASSERT_TRUE(coder.EncodeDoc(factors, &encoded).ok());
  ASSERT_TRUE(coder.DecodeDoc(encoded, *dict, &out, &scratch).ok());
  ASSERT_EQ(out, collection.doc(largest));
  for (size_t i = 0; i < collection.num_docs(); i += 5) {
    factors.clear();
    encoded.clear();
    out.clear();
    factorizer.Factorize(collection.doc(i), &factors);
    ASSERT_TRUE(coder.EncodeDoc(factors, &encoded).ok());
    ASSERT_TRUE(coder.DecodeDoc(encoded, *dict, &out, &scratch).ok());
    ASSERT_EQ(out, collection.doc(i)) << "doc " << i;
  }
}

// ---------------------------------------------------------------------------
// Archive formats: the scratch-aware virtuals agree with the plain ones.

TEST(HotPathTest, EveryArchiveFormatServesIdenticalBytesWithScratch) {
  const Collection collection = TestCollection(1 << 18, 54);
  std::vector<std::unique_ptr<Archive>> archives;
  archives.push_back(std::make_unique<AsciiArchive>(collection));
  archives.push_back(std::make_unique<BlockedArchive>(
      collection, GetCompressor(CompressorId::kGzipx), 64 << 10));
  archives.push_back(
      SemiStaticArchive::Build(collection, SemiStaticScheme::kEtdc));
  RlzBuildOptions rlz_options;
  auto dict = DictionaryBuilder::BuildSampled(
      collection.data(), collection.size_bytes() / 50, 1024);
  archives.push_back(RlzArchive::Build(collection, std::move(dict)));
  ShardedStoreOptions store_options;
  store_options.num_shards = 3;
  archives.push_back(ShardedStore::Build(collection, store_options));

  for (const auto& archive : archives) {
    SCOPED_TRACE(archive->name());
    DecodeScratch scratch;
    std::string fresh;
    std::string reused;
    for (size_t i = 0; i < archive->num_docs(); ++i) {
      ASSERT_TRUE(archive->Get(i, &fresh).ok());
      ASSERT_TRUE(archive->Get(i, &reused, nullptr, &scratch).ok());
      ASSERT_EQ(fresh, collection.doc(i)) << "doc " << i;
      ASSERT_EQ(reused, fresh) << "doc " << i;
      std::string fresh_range;
      std::string reused_range;
      ASSERT_TRUE(archive->GetRange(i, 7, 64, &fresh_range).ok());
      ASSERT_TRUE(
          archive->GetRange(i, 7, 64, &reused_range, nullptr, &scratch).ok());
      ASSERT_EQ(reused_range, fresh_range) << "doc " << i;
    }
  }
}

// Zero-copy reopen: an archive loaded from disk aliases the file bytes
// instead of re-copying them; everything it serves must still match.
TEST(HotPathTest, ZeroCopyReopenServesIdenticalBytes) {
  const Collection collection = TestCollection(1 << 18, 55);
  auto dict = DictionaryBuilder::BuildSampled(
      collection.data(), collection.size_bytes() / 50, 1024);
  const auto built = RlzArchive::Build(collection, std::move(dict));
  const std::string path =
      testing::TempDir() + "/hot_path_zero_copy.rlz";
  ASSERT_TRUE(built->Save(path).ok());
  OpenOptions options;
  options.build_suffix_array = false;
  auto loaded = RlzArchive::Load(path, options);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ASSERT_EQ((*loaded)->payload_bytes(), built->payload_bytes());
  ASSERT_EQ((*loaded)->stored_bytes(), built->stored_bytes());
  DecodeScratch scratch;
  std::string doc;
  for (size_t i = 0; i < collection.num_docs(); ++i) {
    ASSERT_TRUE((*loaded)->Get(i, &doc, nullptr, &scratch).ok());
    ASSERT_EQ(doc, collection.doc(i)) << "doc " << i;
  }
}

// ---------------------------------------------------------------------------
// Allocation guards.

TEST(HotPathTest, DecodedDocumentSizeLimitRejectsCraftedStreams) {
  // A small dictionary and a factor list whose lengths sum past the
  // per-document limit: the decode must fail before sizing the output.
  const std::string text(1 << 20, 'a');
  Dictionary dict(text);
  std::vector<Factor> factors(
      2048, Factor{0, 1 << 20});  // 2 GiB claimed from 2048 factors
  std::string out;
  const Status direct = Factorizer::Decode(factors, dict, &out);
  EXPECT_FALSE(direct.ok());
  EXPECT_TRUE(out.empty());

  // The four fused pairs plus a non-fused extension pair, so both decode
  // paths enforce the limit.
  for (const PairCoding coding :
       {kUV, kZV, kZZ, kUZ, PairCoding{PosCoding::kU32, LenCoding::kPFD}}) {
    SCOPED_TRACE(coding.name());
    const FactorCoder coder(coding);
    std::string encoded;
    ASSERT_TRUE(coder.EncodeDoc(factors, &encoded).ok());
    std::string decoded;
    const Status status = coder.DecodeDoc(encoded, dict, &decoded);
    EXPECT_FALSE(status.ok());
    EXPECT_TRUE(decoded.empty());
  }
}

TEST(HotPathTest, ZStreamLimitsGuardAgainstFormatTruncation) {
  EXPECT_TRUE(FactorCoder::CheckZStreamLimits(0, 0).ok());
  EXPECT_TRUE(FactorCoder::CheckZStreamLimits(
                  FactorCoder::kMaxZStreamBytes - 1,
                  FactorCoder::kMaxZStreamBytes - 1)
                  .ok());
  EXPECT_FALSE(
      FactorCoder::CheckZStreamLimits(FactorCoder::kMaxZStreamBytes, 0)
          .ok());
  EXPECT_FALSE(
      FactorCoder::CheckZStreamLimits(0, FactorCoder::kMaxZStreamBytes)
          .ok());
  EXPECT_FALSE(
      FactorCoder::CheckZStreamLimits(1ull << 40, 1ull << 40).ok());
}

// The headline property of DESIGN.md §9, asserted rather than trusted:
// once a scratch (and the reused output buffer) have reached steady-state
// capacity, decoding performs zero heap allocations — for the fused pairs
// and the z-coded pairs alike. The global operator new above counts every
// allocation in the process; the measured section runs single-threaded.
TEST(HotPathTest, SteadyStateScratchDecodeIsAllocationFree) {
  const Collection collection = TestCollection(1 << 18, 56);
  auto dict = DictionaryBuilder::BuildSampled(
      collection.data(), collection.size_bytes() / 50, 1024);
  Factorizer factorizer(dict.get());
  for (const PairCoding coding : {kUV, kZV, kZZ, kUZ}) {
    SCOPED_TRACE(coding.name());
    const FactorCoder coder(coding);
    std::vector<std::string> encoded(collection.num_docs());
    for (size_t i = 0; i < collection.num_docs(); ++i) {
      std::vector<Factor> factors;
      factorizer.Factorize(collection.doc(i), &factors);
      ASSERT_TRUE(coder.EncodeDoc(factors, &encoded[i]).ok());
    }
    DecodeScratch scratch;
    std::string out;
    // Two warm-up passes grow every buffer to its steady-state capacity.
    for (int pass = 0; pass < 2; ++pass) {
      for (size_t i = 0; i < collection.num_docs(); ++i) {
        out.clear();
        ASSERT_TRUE(coder.DecodeDoc(encoded[i], *dict, &out, &scratch).ok());
      }
    }
    const uint64_t before = g_heap_allocs.load(std::memory_order_relaxed);
    for (size_t i = 0; i < collection.num_docs(); ++i) {
      out.clear();
      const Status status = coder.DecodeDoc(encoded[i], *dict, &out, &scratch);
      if (!status.ok()) FAIL() << status.ToString();
    }
    const uint64_t after = g_heap_allocs.load(std::memory_order_relaxed);
    EXPECT_EQ(after, before) << "steady-state decode allocated";
  }
}

// The serving-layer counterpart (DESIGN.md §10): once a ServeBatch's
// buffers are warm and the working set is cache-resident, the batched
// request path — SubmitBatch routing, per-worker queue rings, completion
// countdown, result delivery — performs zero heap allocations end to end.
// Worker threads run inside the measured window (Wait() bounds them), so
// a stray per-request allocation anywhere in the path fails the count.
TEST(HotPathTest, SteadyStateBatchedServingIsAllocationFree) {
  const Collection collection = TestCollection(1 << 17, 57);
  ShardedStoreOptions store_options;
  store_options.num_shards = 2;
  auto store = ShardedStore::Build(collection, store_options);
  DocServiceOptions options;
  options.num_threads = 2;
  options.cache_bytes = 64 << 20;  // whole corpus stays resident
  DocService service(store.get(), options);

  std::vector<size_t> ids(48);
  Rng rng(4242);
  for (auto& id : ids) id = rng.Next() % collection.num_docs();
  ServeBatch batch;
  // Warm-up: populate the cache and grow the batch's buffers to capacity.
  for (int pass = 0; pass < 3; ++pass) {
    service.SubmitBatch(ids, &batch);
    for (const GetResult& r : batch.Wait()) ASSERT_TRUE(r.ok());
  }
  ASSERT_GE(service.Stats().cache.hits, ids.size());

  const uint64_t before = g_heap_allocs.load(std::memory_order_relaxed);
  for (int round = 0; round < 10; ++round) {
    service.SubmitBatch(ids, &batch);
    const std::vector<GetResult>& results = batch.Wait();
    for (size_t i = 0; i < ids.size(); ++i) {
      if (!results[i].ok()) FAIL() << results[i].status.ToString();
    }
  }
  const uint64_t after = g_heap_allocs.load(std::memory_order_relaxed);
  EXPECT_EQ(after, before) << "steady-state batched serving allocated";

  // The counted rounds really went through the full request path.
  service.Drain();
  EXPECT_EQ(service.Stats().requests, 13u * ids.size());
}

// ---------------------------------------------------------------------------
// Decode property test: random factor lists through every decode entry
// point of the paper's four pairs.

enum class FactorShape {
  kMixed,     // copies of 1-48 bytes with some literals
  kLiterals,  // literals only
  kFew,       // under 30 factors: raw positions under the 158 bytes of
              // code lengths a Huffman block carries, so the position
              // stream is a stored gzipx block
  kSkewed,    // geometric position bytes over 6000 factors: rare byte
              // values get codes longer than HuffmanDecoder::kRootBits
};

std::vector<Factor> RandomFactors(Rng& rng, FactorShape shape,
                                  size_t dict_size) {
  std::vector<Factor> factors;
  const size_t n = shape == FactorShape::kFew       ? 1 + rng.Uniform(29)
                   : shape == FactorShape::kSkewed ? 6000
                                                   : 200 + rng.Uniform(800);
  for (size_t i = 0; i < n; ++i) {
    if (shape == FactorShape::kLiterals ||
        (shape != FactorShape::kSkewed && rng.Bernoulli(0.1))) {
      factors.push_back(Factor{static_cast<uint32_t>(rng.Uniform(256)), 0});
      continue;
    }
    const uint32_t len = 1 + static_cast<uint32_t>(rng.Uniform(48));
    uint32_t pos = static_cast<uint32_t>(rng.Uniform(dict_size - len + 1));
    if (shape == FactorShape::kSkewed) {
      uint32_t byte = 0;
      while (byte < 255 && rng.Bernoulli(0.97)) ++byte;
      pos = byte;
    }
    factors.push_back(Factor{pos, len});
  }
  return factors;
}

std::string Expand(const std::vector<Factor>& factors,
                   std::string_view dict) {
  std::string text;
  for (const Factor& f : factors) {
    if (f.len == 0) {
      text.push_back(static_cast<char>(f.pos));
    } else {
      text.append(dict.substr(f.pos, f.len));
    }
  }
  return text;
}

// Byte offset of the first z-coded stream's gzipx bytes in an encoded
// document, and its size (FactorCoder's layout: vbyte count, positions,
// lengths, z-streams length-prefixed).
std::pair<size_t, size_t> FirstZStream(std::string_view encoded,
                                       PairCoding coding) {
  size_t pos = 0;
  uint32_t count = 0;
  EXPECT_TRUE(VByteCodec::Get(encoded, &pos, &count).ok());
  if (coding.pos == PosCoding::kU32) pos += 4ull * count;
  uint32_t zsize = 0;
  EXPECT_TRUE(VByteCodec::Get(encoded, &pos, &zsize).ok());
  return {pos, zsize};
}

// Offset of the first Huffman block's code-length bytes inside a gzipx
// stream, or 0 if its first block is stored.
size_t CodeLengthOffset(std::string_view z) {
  size_t pos = 1;  // magic
  uint32_t v = 0;
  EXPECT_TRUE(VByteCodec::Get(z, &pos, &v).ok());  // total
  EXPECT_TRUE(VByteCodec::Get(z, &pos, &v).ok());  // span
  EXPECT_TRUE(VByteCodec::Get(z, &pos, &v).ok());  // tokens
  if (z[pos++] != 0) return 0;
  EXPECT_TRUE(VByteCodec::Get(z, &pos, &v).ok());  // bit-stream size
  return pos;
}

TEST(HotPathTest, DecodeEntryPointsAgreeOnRandomFactorLists) {
  Rng rng(2024);
  std::string dict_text(1 << 16, '\0');
  for (auto& c : dict_text) c = static_cast<char>(rng.Uniform(256));
  const Dictionary dict(dict_text);
  bool saw_stored = false;
  bool saw_long_code = false;
  bool saw_length_flip = false;
  for (const PairCoding coding : {kZZ, kZV, kUZ, kUV}) {
    SCOPED_TRACE(coding.name());
    const FactorCoder coder(coding);
    DecodeScratch scratch;  // reused across every case of this pair
    for (int iter = 0; iter < 24; ++iter) {
      const auto shape = static_cast<FactorShape>(iter % 4);
      SCOPED_TRACE(iter);
      const std::vector<Factor> factors =
          RandomFactors(rng, shape, dict_text.size());
      const std::string expect = Expand(factors, dict_text);
      std::string encoded;
      ASSERT_TRUE(coder.EncodeDoc(factors, &encoded).ok());

      std::string with_scratch;
      std::string without_scratch;
      ASSERT_TRUE(coder.DecodeDoc(encoded, dict, &with_scratch, &scratch).ok());
      ASSERT_TRUE(coder.DecodeDoc(encoded, dict, &without_scratch).ok());
      ASSERT_EQ(with_scratch, expect);
      ASSERT_EQ(without_scratch, expect);
      if (coding.name() == "ZV" && shape == FactorShape::kSkewed) {
        // The scratch holds the code lengths of the last block decoded:
        // for ZV, the position stream's.
        const auto& lens = scratch.gzipx.lit_lens;
        saw_long_code |= *std::max_element(lens.begin(), lens.end()) >
                         HuffmanDecoder::kRootBits;
      }
      std::vector<Factor> decoded;
      ASSERT_TRUE(coder.DecodeFactors(encoded, &decoded).ok());
      ASSERT_EQ(Expand(decoded, dict_text), expect);

      for (int r = 0; r < 8; ++r) {
        const size_t offset = rng.Uniform(expect.size() + 2);
        const size_t length =
            r == 0 ? SIZE_MAX : rng.Uniform(r < 4 ? 64 : expect.size() + 1);
        const std::string want =
            offset < expect.size() ? expect.substr(offset, length) : "";
        std::string a = "keep";
        std::string b;
        ASSERT_TRUE(
            coder.DecodeRange(encoded, dict, offset, length, &a, &scratch)
                .ok());
        ASSERT_TRUE(coder.DecodeRange(encoded, dict, offset, length, &b).ok());
        ASSERT_EQ(a, "keep" + want) << offset << "+" << length;
        ASSERT_EQ(b, want) << offset << "+" << length;
      }

      if (coding.pos == PosCoding::kU32 && coding.len == LenCoding::kVByte) {
        continue;  // no gzipx stream to damage
      }
      const auto [zoff, zsize] = FirstZStream(encoded, coding);
      const size_t lengths_at =
          CodeLengthOffset(std::string_view(encoded).substr(zoff, zsize));
      saw_stored |= lengths_at == 0 && coding.pos == PosCoding::kZlib;
      std::vector<std::string> damaged;
      damaged.push_back(encoded);
      damaged.back()[zoff + zsize - 1 - rng.Uniform(4)] ^= 0x10;  // CRC byte
      if (lengths_at != 0) {
        // A used literal's code length, one bit flipped.
        for (size_t sym = 0; sym < 256; ++sym) {
          const size_t at = zoff + lengths_at + sym / 2;
          const int shift = sym % 2 == 0 ? 0 : 4;
          if (((static_cast<uint8_t>(encoded[at]) >> shift) & 0xF) != 0) {
            damaged.push_back(encoded);
            damaged.back()[at] ^= static_cast<char>(1 << shift);
            saw_length_flip = true;
            break;
          }
        }
      }
      for (const std::string& bad : damaged) {
        std::string out = "keep";
        EXPECT_EQ(coder.DecodeDoc(bad, dict, &out, &scratch).code(),
                  StatusCode::kCorruption);
        EXPECT_EQ(out, "keep");
        EXPECT_EQ(coder.DecodeDoc(bad, dict, &out).code(),
                  StatusCode::kCorruption);
        EXPECT_EQ(out, "keep");
        EXPECT_EQ(coder.DecodeRange(bad, dict, 0, 10, &out, &scratch).code(),
                  StatusCode::kCorruption);
        EXPECT_EQ(out, "keep");
      }
    }
  }
  EXPECT_TRUE(saw_stored);
  EXPECT_TRUE(saw_long_code);
  EXPECT_TRUE(saw_length_flip);
}

// ---------------------------------------------------------------------------
// Gzipx decode scratch.

TEST(HotPathTest, GzipxScratchDecompressIsByteIdentical) {
  const GzipxCompressor gz;
  GzipxDecodeScratch scratch;
  Rng rng(99);
  // A mix of shapes: empty, tiny, repetitive (match-heavy), random
  // (stored-block fallback), decoded through one reused scratch.
  std::vector<std::string> inputs;
  inputs.emplace_back();
  inputs.emplace_back("abc");
  inputs.emplace_back(std::string(100000, 'x'));
  std::string rep;
  for (int i = 0; i < 5000; ++i) rep += "the quick brown fox ";
  inputs.push_back(rep);
  std::string rnd(65536, '\0');
  for (auto& c : rnd) c = static_cast<char>(rng.Next() & 0xFF);
  inputs.push_back(rnd);

  for (const std::string& input : inputs) {
    std::string compressed;
    gz.Compress(input, &compressed);
    std::string fresh;
    std::string reused;
    ASSERT_TRUE(gz.Decompress(compressed, &fresh).ok());
    ASSERT_TRUE(gz.Decompress(compressed, &reused, &scratch).ok());
    ASSERT_EQ(fresh, input);
    ASSERT_EQ(reused, input);
  }
}

}  // namespace
}  // namespace rlz
