// Robustness fuzzing (deterministic): every decoder must return a Status —
// never crash, hang, or allocate unboundedly — on arbitrary bytes and on
// mutated valid streams.

#include <algorithm>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "codecs/int_codecs.h"
#include "core/rlz.h"
#include "corpus/collection.h"
#include "io/file.h"
#include "net/doc_server.h"  // NetServerStats
#include "net/protocol.h"
#include "serve/doc_service.h"
#include "serve/sharded_store.h"
#include "store/decode_scratch.h"
#include "store/format.h"
#include "util/random.h"
#include "zip/bentley_mcilroy.h"
#include "zip/compressor.h"
#include "zip/gzipx.h"
#include "zip/lzmax.h"

namespace rlz {
namespace {

std::string RandomBytes(Rng& rng, size_t n) {
  std::string s(n, '\0');
  for (auto& c : s) c = static_cast<char>(rng.Uniform(256));
  return s;
}

// Valid-looking headers with random tails hit deeper code paths.
std::string WithMagic(Rng& rng, uint8_t magic, size_t n) {
  std::string s = RandomBytes(rng, n);
  if (!s.empty()) s[0] = static_cast<char>(magic);
  return s;
}

TEST(FuzzTest, GzipxDecompressArbitraryBytes) {
  Rng rng(1);
  std::string out;
  for (int iter = 0; iter < 300; ++iter) {
    const std::string input = iter % 2 == 0
                                  ? RandomBytes(rng, rng.Uniform(300))
                                  : WithMagic(rng, 0xC7, 1 + rng.Uniform(300));
    out.clear();
    (void)GzipxCompressor().Decompress(input, &out);  // must not crash
    EXPECT_LT(out.size(), 100u << 20);
  }
}

TEST(FuzzTest, LzmaxDecompressArbitraryBytes) {
  Rng rng(2);
  std::string out;
  for (int iter = 0; iter < 300; ++iter) {
    const std::string input = iter % 2 == 0
                                  ? RandomBytes(rng, rng.Uniform(300))
                                  : WithMagic(rng, 0xC8, 1 + rng.Uniform(300));
    out.clear();
    (void)LzmaxCompressor().Decompress(input, &out);
    EXPECT_LT(out.size(), 100u << 20);
  }
}

TEST(FuzzTest, BmDecodeArbitraryBytes) {
  Rng rng(3);
  const BmPreprocessor pre;
  std::string out;
  for (int iter = 0; iter < 300; ++iter) {
    out.clear();
    (void)pre.Decode(RandomBytes(rng, rng.Uniform(300)), &out);
    EXPECT_LT(out.size(), 100u << 20);
  }
}

class MutatedStreamTest : public ::testing::TestWithParam<CompressorId> {};

TEST_P(MutatedStreamTest, HeavilyMutatedStreamsNeverCrash) {
  Rng rng(4);
  const Compressor* compressor = GetCompressor(GetParam());
  std::string payload;
  for (int i = 0; i < 200; ++i) {
    payload += "line " + std::to_string(i % 13) + " of structured text\n";
  }
  std::string compressed;
  compressor->Compress(payload, &compressed);

  std::string out;
  for (int iter = 0; iter < 400; ++iter) {
    std::string mutated = compressed;
    const int flips = 1 + static_cast<int>(rng.Uniform(8));
    for (int f = 0; f < flips; ++f) {
      mutated[rng.Uniform(mutated.size())] ^=
          static_cast<char>(1 << rng.Uniform(8));
    }
    out.clear();
    const Status s = compressor->Decompress(mutated, &out);
    if (s.ok()) {
      // Extremely unlikely, but if it "succeeds" the CRC must have held,
      // which means the mutation round-tripped to identical bytes.
      EXPECT_EQ(out, payload);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Both, MutatedStreamTest,
                         ::testing::Values(CompressorId::kGzipx,
                                           CompressorId::kLzmax),
                         [](const auto& info) {
                           return info.param == CompressorId::kGzipx ? "Gzipx"
                                                                     : "Lzmax";
                         });

TEST(FuzzTest, FactorCoderArbitraryBytes) {
  Rng rng(5);
  for (const char* name : {"ZZ", "ZV", "UZ", "UV"}) {
    const FactorCoder coder(*PairCoding::FromName(name));
    for (int iter = 0; iter < 200; ++iter) {
      std::vector<Factor> factors;
      (void)coder.DecodeFactors(RandomBytes(rng, rng.Uniform(200)), &factors,
                                nullptr);
      EXPECT_LT(factors.size(), 10u << 20);
    }
  }
}

// The serving path: mutated ZV and ZZ documents through the fused decode,
// whole and ranged, with one DecodeScratch reused across every attempt. A
// failed decode leaves the output as it was, and the scratch still
// decodes the intact document afterwards.
TEST(FuzzTest, FactorCoderServingPathMutatedStreams) {
  Rng rng(9);
  std::string dict_text(1 << 14, '\0');
  for (auto& c : dict_text) c = static_cast<char>(rng.Uniform(256));
  const Dictionary dict(dict_text, /*build_suffix_array=*/false);
  DecodeScratch scratch;
  for (const char* name : {"ZV", "ZZ"}) {
    SCOPED_TRACE(name);
    const FactorCoder coder(*PairCoding::FromName(name));
    for (int doc = 0; doc < 10; ++doc) {
      std::vector<Factor> factors(20 + rng.Uniform(600));
      for (Factor& f : factors) {
        f.len = static_cast<uint32_t>(rng.Uniform(40));
        f.pos = static_cast<uint32_t>(
            f.len == 0 ? rng.Uniform(256)
                       : rng.Uniform(dict_text.size() - f.len + 1));
      }
      std::string encoded;
      ASSERT_TRUE(coder.EncodeDoc(factors, &encoded).ok());
      std::string expect;
      ASSERT_TRUE(coder.DecodeDoc(encoded, dict, &expect).ok());
      for (int iter = 0; iter < 60; ++iter) {
        std::string mutated = encoded;
        const int flips = 1 + static_cast<int>(rng.Uniform(4));
        for (int f = 0; f < flips; ++f) {
          mutated[rng.Uniform(mutated.size())] ^=
              static_cast<char>(1 << rng.Uniform(8));
        }
        std::string out = "keep";
        if (!coder.DecodeDoc(mutated, dict, &out, &scratch).ok()) {
          EXPECT_EQ(out, "keep");
        }
        EXPECT_LT(out.size(), 64u << 20);
        out = "keep";
        const size_t offset = rng.Uniform(expect.size() + 1);
        const size_t length = rng.Uniform(expect.size() + 1);
        if (!coder.DecodeRange(mutated, dict, offset, length, &out, &scratch)
                 .ok()) {
          EXPECT_EQ(out, "keep");
        }
        EXPECT_LE(out.size(), 4 + length);
      }
      std::string again;
      ASSERT_TRUE(coder.DecodeDoc(encoded, dict, &again, &scratch).ok());
      EXPECT_EQ(again, expect);
    }
  }
}

// Gzipx block headers (span, token count, type, bit-stream size) and the
// 4-bit code lengths after them, mutated and decoded through one reused
// GzipxDecodeScratch. A decode that succeeds has passed the CRC, so it
// returns the original bytes; one that fails leaves the output as it was.
TEST(FuzzTest, GzipxMutatedHeadersAndCodeLengths) {
  Rng rng(10);
  const GzipxCompressor gz;
  GzipxDecodeScratch scratch;
  std::vector<std::string> payloads;
  std::string text;
  for (int i = 0; i < 3000; ++i) {
    text += "row " + std::to_string(rng.Uniform(5000)) + " value " +
            std::to_string(rng.Uniform(100)) + "\n";
  }
  payloads.push_back(text);  // more than one Huffman block
  payloads.push_back(text.substr(0, 700));
  for (const std::string& payload : payloads) {
    std::string compressed;
    gz.Compress(payload, &compressed);
    // Bytes before the first block's symbols: magic, total size, block
    // header, and the 158 bytes of code lengths.
    const size_t prefix = std::min<size_t>(compressed.size(), 180);
    for (int iter = 0; iter < 400; ++iter) {
      std::string mutated = compressed;
      const int edits = 1 + static_cast<int>(rng.Uniform(3));
      for (int e = 0; e < edits; ++e) {
        const size_t at = rng.Uniform(prefix);
        if (rng.Bernoulli(0.5)) {
          mutated[at] ^= static_cast<char>(1 << rng.Uniform(8));
        } else {  // a random code length in one nibble
          const int shift = rng.Bernoulli(0.5) ? 4 : 0;
          mutated[at] = static_cast<char>(
              (static_cast<uint8_t>(mutated[at]) & ~(0xF << shift)) |
              (rng.Uniform(16) << shift));
        }
      }
      std::string out = "keep";
      if (gz.Decompress(mutated, &out, &scratch).ok()) {
        EXPECT_EQ(out, "keep" + payload);
      } else {
        EXPECT_EQ(out, "keep");
      }
    }
    std::string out;
    ASSERT_TRUE(gz.Decompress(compressed, &out, &scratch).ok());
    EXPECT_EQ(out, payload);
  }
}

TEST(FuzzTest, IntCodecsArbitraryBytes) {
  Rng rng(6);
  for (IntCodecId id : {IntCodecId::kU32, IntCodecId::kVByte,
                        IntCodecId::kSimple9, IntCodecId::kPForDelta}) {
    const IntCodec* codec = GetIntCodec(id);
    for (int iter = 0; iter < 200; ++iter) {
      const std::string input = RandomBytes(rng, rng.Uniform(120));
      std::vector<uint32_t> out;
      size_t consumed = 0;
      (void)codec->Decode(input, rng.Uniform(64), &out, &consumed);
      EXPECT_LE(consumed, input.size());
    }
  }
}

TEST(FuzzTest, ArchiveLoadArbitraryFiles) {
  Rng rng(7);
  const std::string path = ::testing::TempDir() + "/fuzz_archive.bin";
  for (int iter = 0; iter < 60; ++iter) {
    std::string content = RandomBytes(rng, rng.Uniform(500));
    if (iter % 2 == 0 && content.size() >= 4) {
      content[0] = 'R';
      content[1] = 'L';
      content[2] = 'Z';
      content[3] = 'A';
    }
    ASSERT_TRUE(WriteFile(path, content).ok());
    EXPECT_FALSE(RlzArchive::Load(path).ok());
  }
  std::remove(path.c_str());
}

TEST(FuzzTest, CollectionLoadArbitraryFiles) {
  Rng rng(8);
  const std::string path = ::testing::TempDir() + "/fuzz_collection.bin";
  for (int iter = 0; iter < 60; ++iter) {
    std::string content = RandomBytes(rng, rng.Uniform(500));
    if (iter % 2 == 0 && content.size() >= 5) {
      content.replace(0, 5, std::string("RLZA\x02", 5));
    }
    ASSERT_TRUE(WriteFile(path, content).ok());
    (void)Collection::Load(path);  // any Status is fine; no crash
  }
  std::remove(path.c_str());
}

// The sharded manifest through Manifest::Parse: every truncation and
// every single-byte flip of a real multi-shard manifest body (base-shard
// and tail tombstones, tail documents, the append dictionary's file
// name), re-sealed with a valid CRC so the body parser sees each one.
// Every result is a Status or a manifest that encodes back to exactly the
// bytes parsed.
TEST(FuzzTest, ManifestTruncationsAndByteFlips) {
  Collection collection;
  for (int i = 0; i < 12; ++i) {
    collection.Append("base document " + std::to_string(i) +
                      " with some shared manifest fuzzing text");
  }
  ShardedStoreOptions options;
  options.num_shards = 3;
  options.dict_bytes = 768;
  options.live.tail_seal_bytes = 0;
  auto store = ShardedStore::Build(collection, options);
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(store->Append("sealed tail document " + std::to_string(i))
                    .ok());
  }
  ASSERT_TRUE(store->SealTail().ok());
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(store->Append("open tail document " + std::to_string(i))
                    .ok());
  }
  for (const size_t id : {size_t{1}, size_t{5}, size_t{13}, size_t{16}}) {
    ASSERT_TRUE(store->Delete(id).ok());
  }
  ASSERT_EQ(store->num_shards(), 4);

  const std::string path = ::testing::TempDir() + "/fuzz_manifest.sharded";
  ASSERT_TRUE(store->Save(path).ok());
  auto envelope = ReadEnvelopeFile(path);
  ASSERT_TRUE(envelope.ok()) << envelope.status().ToString();
  const std::string body(envelope->body());
  std::remove(path.c_str());
  std::remove((path + ".dict").c_str());
  for (int s = 0; s < store->num_shards(); ++s) {
    char suffix[32];
    std::snprintf(suffix, sizeof(suffix), ".shard%04d", s);
    std::remove((path + suffix).c_str());
  }

  size_t parsed_ok = 0;
  const auto check = [&](std::string_view mutated, const std::string& what) {
    EnvelopeWriter writer(Manifest::kFormatId, Manifest::kFormatVersion);
    writer.PutBytes(mutated);
    std::string bytes = std::move(writer).Seal();
    auto parsed_envelope = ParsedEnvelope::FromBytes(bytes, what);
    ASSERT_TRUE(parsed_envelope.ok()) << what;
    const auto manifest = Manifest::Parse(*parsed_envelope);
    if (!manifest.ok()) return;
    ++parsed_ok;
    ASSERT_EQ(manifest->Encode(), bytes) << what;
  };
  check(body, "intact");
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
      check(mutated, "byte " + std::to_string(pos) + " = " +
                         std::to_string(value));
    }
    mutated[pos] = body[pos];
  }
  // Flips inside file names and tail documents parse as other text; the
  // count shows the round-trip check ran on real manifests.
  EXPECT_GT(parsed_ok, body.size());
}

// The Stat decoder through DecodeResponseBody: every truncation and every
// byte value at every offset of a real body carrying every entry the
// server sends. Each input sits in a buffer of exactly its size, so a
// read past the body is a heap overflow under ASan, and the decoded list
// never reserves more entries than the body could hold. Crafted bodies
// pin each rejection rule.
Status DecodeStat(std::string_view bytes, size_t* decoded_entries) {
  std::unique_ptr<char[]> exact(new char[bytes.size()]);
  std::memcpy(exact.get(), bytes.data(), bytes.size());
  net::NetResponse resp;
  const Status status = net::DecodeResponseBody(
      net::MessageType::kStat, 0, std::string_view(exact.get(), bytes.size()),
      &resp);
  // [u8 len][name >= 1][u8 kind][8-byte value]: 11 bytes at least.
  EXPECT_LE(resp.stats.entries.capacity(), bytes.size() / 11);
  *decoded_entries = resp.stats.entries.size();
  return status;
}

// [u8 name_len][name][u8 kind][8-byte value].
std::string StatEntryBytes(std::string_view name, uint8_t kind,
                           uint64_t value) {
  std::string e(1, static_cast<char>(name.size()));
  e.append(name.data(), name.size());
  e.push_back(static_cast<char>(kind));
  e.append(reinterpret_cast<const char*>(&value), sizeof(value));
  return e;
}

// An OK Stat body: status byte, version 4, `count`, then `entries`.
std::string StatBody(uint32_t count, std::string_view entries) {
  std::string body = {'\0', '\4'};
  body.append(reinterpret_cast<const char*>(&count), sizeof(count));
  body.append(entries.data(), entries.size());
  return body;
}

TEST(FuzzTest, StatResponseTruncationsAndByteFlips) {
  ServiceStats service;
  service.requests = 7;
  service.latency_p99_us = 12.5;
  net::NetServerStats network;
  network.batches = 3;
  net::WireStats stats;
  stats.AddFields(service);
  stats.AddFields(network);
  stats.Add("archive.docs", 42);
  std::string frame;
  net::EncodeStatResponse(stats, /*crc=*/false, &frame);
  net::MessageType type;
  uint8_t flags;
  std::string_view body;
  size_t consumed = 0;
  std::string error;
  ASSERT_EQ(net::ParseFrame(frame, &type, &flags, &body, &consumed, &error),
            net::ParseResult::kFrame);

  size_t entries = 0;
  ASSERT_TRUE(DecodeStat(body, &entries).ok());
  ASSERT_EQ(entries, stats.entries.size());
  for (size_t keep = 0; keep < body.size(); ++keep) {
    EXPECT_EQ(DecodeStat(body.substr(0, keep), &entries).code(),
              StatusCode::kInvalidArgument)
        << "prefix of " << keep;
  }
  size_t decoded_ok = 0;
  std::string mutated(body);
  for (size_t pos = 0; pos < body.size(); ++pos) {
    for (int value = 0; value < 256; ++value) {
      if (value == static_cast<uint8_t>(body[pos])) continue;
      mutated[pos] = static_cast<char>(value);
      const Status status = DecodeStat(mutated, &entries);
      if (status.ok()) {
        ++decoded_ok;
      } else {
        EXPECT_EQ(status.code(), StatusCode::kInvalidArgument)
            << "byte " << pos << " = " << value;
      }
    }
    mutated[pos] = body[pos];
  }
  // Flips inside names and values decode as other entries; the count
  // shows the mutations reached the entry loop.
  EXPECT_GT(decoded_ok, body.size());

  const std::string requests = StatEntryBytes("serve.requests", 0, 5);
  const auto rejected = [](const std::string& crafted) {
    size_t n = 0;
    return DecodeStat(crafted, &n).code() == StatusCode::kInvalidArgument;
  };
  EXPECT_TRUE(rejected(StatBody(0xFFFFFFFFu, requests)));  // count past body
  EXPECT_TRUE(rejected(StatBody(2, requests)));  // one entry short
  std::string long_name(1, static_cast<char>(200));
  long_name.append(20, 'n');  // a name length past the end
  EXPECT_TRUE(rejected(StatBody(1, long_name)));
  std::string empty_name = StatEntryBytes("", 0, 5);
  empty_name.push_back('\0');  // long enough to pass the count bound
  EXPECT_TRUE(rejected(StatBody(1, empty_name)));
  EXPECT_TRUE(rejected(StatBody(1, StatEntryBytes("serve.requests", 7, 5))));
  EXPECT_TRUE(rejected(StatBody(2, requests + requests)));  // duplicate
  EXPECT_TRUE(rejected(StatBody(1, requests + "x")));  // trailing byte

  // An unknown name with a valid kind decodes: the decoder knows no names.
  const double seconds = 2.5;
  uint64_t bits;
  std::memcpy(&bits, &seconds, sizeof(bits));
  const std::string unknown =
      StatBody(2, requests + StatEntryBytes("no.such.counter", 1, bits));
  net::NetResponse resp;
  ASSERT_TRUE(
      net::DecodeResponseBody(net::MessageType::kStat, 0, unknown, &resp)
          .ok());
  EXPECT_EQ(resp.stats.U64("serve.requests"), 5u);
  const net::StatEntry* unknown_entry = resp.stats.Find("no.such.counter");
  ASSERT_NE(unknown_entry, nullptr);
  EXPECT_EQ(unknown_entry->kind, net::StatKind::kF64);
  EXPECT_EQ(unknown_entry->f64, 2.5);
}

}  // namespace
}  // namespace rlz
