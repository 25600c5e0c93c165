#include <algorithm>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "util/bitio.h"
#include "util/random.h"
#include "zip/compressor.h"
#include "zip/gzipx.h"
#include "zip/huffman.h"
#include "zip/lzmax.h"
#include "zip/range_coder.h"

namespace rlz {
namespace {

// ---------------------------------------------------------------------------
// Huffman
// ---------------------------------------------------------------------------

std::vector<uint8_t> CodeLengths(const std::vector<uint64_t>& freqs,
                                 int max_bits = kMaxHuffmanBits) {
  std::vector<uint8_t> lengths(freqs.size());
  BuildHuffmanCodeLengths(freqs.data(), freqs.size(), lengths.data(),
                          max_bits);
  return lengths;
}

TEST(HuffmanTest, LengthsSatisfyKraft) {
  Rng rng(1);
  for (int iter = 0; iter < 20; ++iter) {
    std::vector<uint64_t> freqs(286, 0);
    const int used = 2 + static_cast<int>(rng.Uniform(284));
    for (int i = 0; i < used; ++i) {
      freqs[rng.Uniform(freqs.size())] = 1 + rng.Uniform(100000);
    }
    const auto lengths = CodeLengths(freqs);
    double kraft = 0.0;
    for (size_t s = 0; s < freqs.size(); ++s) {
      EXPECT_EQ(lengths[s] > 0, freqs[s] > 0);
      if (lengths[s] > 0) {
        EXPECT_LE(lengths[s], kMaxHuffmanBits);
        kraft += 1.0 / static_cast<double>(1u << lengths[s]);
      }
    }
    EXPECT_LE(kraft, 1.0 + 1e-9);
  }
}

TEST(HuffmanTest, SingleSymbolGetsLengthOne) {
  std::vector<uint64_t> freqs(10, 0);
  freqs[3] = 42;
  const auto lengths = CodeLengths(freqs);
  EXPECT_EQ(lengths[3], 1);
}

TEST(HuffmanTest, SkewedFrequenciesGetShortCodes) {
  std::vector<uint64_t> freqs = {1000000, 10, 10, 10, 10, 1};
  const auto lengths = CodeLengths(freqs);
  for (size_t s = 1; s < freqs.size(); ++s) {
    EXPECT_LE(lengths[0], lengths[s]);
  }
}

TEST(HuffmanTest, LengthLimitEnforcedOnPathologicalInput) {
  // Fibonacci-like frequencies produce deep Huffman trees.
  std::vector<uint64_t> freqs;
  uint64_t a = 1;
  uint64_t b = 1;
  for (int i = 0; i < 40; ++i) {
    freqs.push_back(a);
    const uint64_t next = a + b;
    a = b;
    b = next;
  }
  const auto lengths = CodeLengths(freqs, 15);
  double kraft = 0.0;
  for (uint8_t l : lengths) {
    ASSERT_GT(l, 0);
    ASSERT_LE(l, 15);
    kraft += 1.0 / static_cast<double>(1u << l);
  }
  EXPECT_LE(kraft, 1.0 + 1e-9);
}

// Writes `symbols` in the canonical code of `lengths`.
std::string EncodeSymbols(const std::vector<uint8_t>& lengths,
                          const std::vector<uint32_t>& symbols) {
  std::vector<uint16_t> codes(lengths.size());
  CanonicalHuffmanCodes(lengths.data(), lengths.size(), codes.data());
  std::string buf;
  BitWriter bw(&buf);
  for (const uint32_t s : symbols) bw.WriteBits(codes[s], lengths[s]);
  bw.Finish();
  return buf;
}

TEST(HuffmanTest, HugeFrequenciesMatchScaledOnes) {
  // Weights this large leave no room for the symbol id beside them, so
  // the leaves are sorted by comparison instead of by radix; scaling
  // every frequency by 2^60 keeps every tie and comparison of the tree.
  const std::vector<uint64_t> small = {3, 1, 4, 1, 0, 2};
  std::vector<uint64_t> huge = small;
  for (uint64_t& f : huge) f <<= 60;
  EXPECT_EQ(CodeLengths(huge), CodeLengths(small));
}

TEST(HuffmanTest, EncodeDecodeRoundTrip) {
  Rng rng(2);
  for (int iter = 0; iter < 10; ++iter) {
    std::vector<uint64_t> freqs(64, 0);
    for (auto& f : freqs) f = rng.Uniform(1000);
    freqs[0] = 1;  // ensure at least one symbol
    const auto lengths = CodeLengths(freqs);
    HuffmanDecoder dec;
    ASSERT_TRUE(dec.Init(lengths).ok());

    std::vector<uint32_t> symbols;
    for (int i = 0; i < 5000; ++i) {
      uint32_t s = static_cast<uint32_t>(rng.Uniform(freqs.size()));
      while (freqs[s] == 0) s = static_cast<uint32_t>(rng.Uniform(freqs.size()));
      symbols.push_back(s);
    }
    const std::string buf = EncodeSymbols(lengths, symbols);
    BitReader br(buf);
    for (uint32_t s : symbols) {
      ASSERT_EQ(dec.Decode(&br), static_cast<int32_t>(s));
    }
  }
}

// One decoder re-initialized across codes of every shape: codes longer
// than the root table (resolved by LookupSlow), then an under-full code,
// whose uncovered windows must decode as errors rather than as entries
// left over from the previous table.
TEST(HuffmanTest, ReusedDecoderHandlesLongAndUnderfullCodes) {
  std::vector<uint64_t> freqs;
  uint64_t a = 1;
  uint64_t b = 1;
  for (int i = 0; i < 20; ++i) {  // Fibonacci: lengths up to the limit
    freqs.push_back(a);
    const uint64_t c = a + b;
    a = b;
    b = c;
  }
  const auto lengths = CodeLengths(freqs);
  ASSERT_GT(*std::max_element(lengths.begin(), lengths.end()),
            HuffmanDecoder::kRootBits);
  HuffmanDecoder dec;
  ASSERT_TRUE(dec.Init(lengths).ok());
  std::vector<uint32_t> symbols(freqs.size());
  for (uint32_t s = 0; s < freqs.size(); ++s) symbols[s] = s;
  const std::string buf = EncodeSymbols(lengths, symbols);
  BitReader br(buf);
  for (uint32_t s = 0; s < freqs.size(); ++s) {
    ASSERT_EQ(dec.Decode(&br), static_cast<int32_t>(s));
  }

  // Under-full: symbol 2 alone, code "0"; a leading 1 starts no code.
  ASSERT_TRUE(dec.Init({0, 0, 1}).ok());
  for (const uint8_t byte : {0x00, 0x01, 0xFF}) {
    const std::string one(1, static_cast<char>(byte));
    BitReader r(one);
    EXPECT_EQ(dec.Decode(&r), (byte & 1) == 0 ? 2 : -1) << int{byte};
  }
}

TEST(HuffmanTest, DecoderRejectsOversubscribedCode) {
  // Three codes of length 1 violate Kraft.
  HuffmanDecoder dec;
  EXPECT_EQ(dec.Init({1, 1, 1}).code(), StatusCode::kCorruption);
}

// ---------------------------------------------------------------------------
// Range coder
// ---------------------------------------------------------------------------

TEST(RangeCoderTest, BitRoundTrip) {
  Rng rng(3);
  std::vector<int> bits;
  for (int i = 0; i < 20000; ++i) bits.push_back(rng.Bernoulli(0.2) ? 1 : 0);

  std::string buf;
  {
    RangeEncoder enc(&buf);
    BitProb prob = kProbInit;
    for (int b : bits) enc.EncodeBit(&prob, b);
    enc.Flush();
  }
  {
    RangeDecoder dec(buf);
    BitProb prob = kProbInit;
    for (int b : bits) ASSERT_EQ(dec.DecodeBit(&prob), b);
    EXPECT_FALSE(dec.overflowed());
  }
  // Adaptive coding of a skewed stream must beat 1 bit per symbol.
  EXPECT_LT(buf.size() * 8, bits.size());
}

TEST(RangeCoderTest, DirectBitsRoundTrip) {
  Rng rng(4);
  std::vector<std::pair<uint32_t, int>> fields;
  for (int i = 0; i < 3000; ++i) {
    const int nbits = 1 + static_cast<int>(rng.Uniform(30));
    fields.emplace_back(static_cast<uint32_t>(rng.Next()) &
                            ((nbits == 32) ? ~0u : ((1u << nbits) - 1)),
                        nbits);
  }
  std::string buf;
  {
    RangeEncoder enc(&buf);
    for (auto [v, n] : fields) enc.EncodeDirect(v, n);
    enc.Flush();
  }
  RangeDecoder dec(buf);
  for (auto [v, n] : fields) ASSERT_EQ(dec.DecodeDirect(n), v);
}

TEST(RangeCoderTest, BitTreeRoundTrip) {
  Rng rng(5);
  std::vector<uint32_t> symbols;
  for (int i = 0; i < 5000; ++i) {
    symbols.push_back(static_cast<uint32_t>(rng.Uniform(256)));
  }
  std::string buf;
  {
    RangeEncoder enc(&buf);
    std::vector<BitProb> probs(256, kProbInit);
    for (uint32_t s : symbols) EncodeBitTree(&enc, probs.data(), 8, s);
    enc.Flush();
  }
  RangeDecoder dec(buf);
  std::vector<BitProb> probs(256, kProbInit);
  for (uint32_t s : symbols) {
    ASSERT_EQ(DecodeBitTree(&dec, probs.data(), 8), s);
  }
}

// ---------------------------------------------------------------------------
// Compressors (shared behaviour, parameterized)
// ---------------------------------------------------------------------------

class CompressorTest : public ::testing::TestWithParam<CompressorId> {
 protected:
  const Compressor* compressor() const { return GetCompressor(GetParam()); }

  void ExpectRoundTrip(const std::string& input) {
    std::string compressed;
    compressor()->Compress(input, &compressed);
    std::string output;
    const Status s = compressor()->Decompress(compressed, &output);
    ASSERT_TRUE(s.ok()) << s.ToString();
    EXPECT_EQ(output, input);
  }
};

TEST_P(CompressorTest, Empty) { ExpectRoundTrip(""); }

TEST_P(CompressorTest, SingleByte) { ExpectRoundTrip("x"); }

TEST_P(CompressorTest, ShortAscii) {
  ExpectRoundTrip("hello, hello, hello world!");
}

TEST_P(CompressorTest, AllSameByte) { ExpectRoundTrip(std::string(100000, 'a')); }

TEST_P(CompressorTest, RandomIncompressible) {
  Rng rng(6);
  std::string input(50000, '\0');
  for (auto& c : input) c = static_cast<char>(rng.Uniform(256));
  ExpectRoundTrip(input);
}

TEST_P(CompressorTest, RepetitiveText) {
  std::string input;
  Rng rng(7);
  const std::string phrase = "the quick brown fox jumps over the lazy dog. ";
  while (input.size() < 200000) {
    input += phrase;
    if (rng.Bernoulli(0.1)) input += std::to_string(rng.Next() % 1000);
  }
  std::string compressed;
  compressor()->Compress(input, &compressed);
  EXPECT_LT(compressed.size(), input.size() / 5);
  std::string output;
  ASSERT_TRUE(compressor()->Decompress(compressed, &output).ok());
  EXPECT_EQ(output, input);
}

TEST_P(CompressorTest, BinaryWithNulBytes) {
  Rng rng(8);
  std::string input;
  for (int i = 0; i < 30000; ++i) {
    input.push_back(static_cast<char>(rng.Uniform(4)));
  }
  ExpectRoundTrip(input);
}

TEST_P(CompressorTest, ManySmallInputsIndependent) {
  // Factor streams are compressed per document; make sure small inputs are
  // handled standalone.
  Rng rng(9);
  for (int i = 0; i < 50; ++i) {
    std::string input;
    const size_t len = rng.Uniform(200);
    for (size_t k = 0; k < len; ++k) {
      input.push_back(static_cast<char>('a' + rng.Uniform(6)));
    }
    ExpectRoundTrip(input);
  }
}

TEST_P(CompressorTest, DetectsTruncation) {
  std::string input(10000, 'q');
  for (size_t i = 0; i < input.size(); i += 17) input[i] = 'z';
  std::string compressed;
  compressor()->Compress(input, &compressed);
  std::string output;
  EXPECT_FALSE(compressor()
                   ->Decompress(std::string_view(compressed)
                                    .substr(0, compressed.size() / 2),
                                &output)
                   .ok());
}

TEST_P(CompressorTest, DetectsBitFlip) {
  std::string input = "some moderately compressible payload ";
  for (int i = 0; i < 8; ++i) input += input;
  std::string compressed;
  compressor()->Compress(input, &compressed);
  // Flip a byte in the middle of the payload (not the header).
  std::string corrupted = compressed;
  corrupted[corrupted.size() / 2] ^= 0x40;
  std::string output;
  EXPECT_FALSE(compressor()->Decompress(corrupted, &output).ok());
}

TEST_P(CompressorTest, DetectsBadMagic) {
  std::string compressed;
  compressor()->Compress("abc", &compressed);
  compressed[0] = '\x00';
  std::string output;
  EXPECT_EQ(compressor()->Decompress(compressed, &output).code(),
            StatusCode::kCorruption);
}

TEST_P(CompressorTest, AppendsToExistingOutput) {
  std::string compressed;
  compressor()->Compress("payload", &compressed);
  std::string output = "prefix-";
  ASSERT_TRUE(compressor()->Decompress(compressed, &output).ok());
  EXPECT_EQ(output, "prefix-payload");
}

INSTANTIATE_TEST_SUITE_P(Both, CompressorTest,
                         ::testing::Values(CompressorId::kGzipx,
                                           CompressorId::kLzmax),
                         [](const auto& info) {
                           return info.param == CompressorId::kGzipx ? "Gzipx"
                                                                     : "Lzmax";
                         });

// ---------------------------------------------------------------------------
// Family-shape expectations (DESIGN.md §4): lzmax compresses redundant data
// with long-range repetition better than gzipx, because its window is not
// limited to 32 KB.
// ---------------------------------------------------------------------------

TEST(CompressorShapeTest, LzmaxBeatsGzipxOnLongRangeRedundancy) {
  Rng rng(10);
  // A 64 KB "template" repeated with small edits at ~100 KB intervals:
  // out of reach for a 32 KB window, trivial for a large one.
  std::string page(64 * 1024, '\0');
  for (auto& c : page) c = static_cast<char>('a' + rng.Uniform(26));
  std::string input;
  for (int i = 0; i < 8; ++i) {
    input += page;
    std::string filler(40 * 1024, '\0');
    for (auto& c : filler) c = static_cast<char>(rng.Uniform(256));
    input += filler;
  }
  std::string gz;
  GetCompressor(CompressorId::kGzipx)->Compress(input, &gz);
  std::string lz;
  GetCompressor(CompressorId::kLzmax)->Compress(input, &lz);
  EXPECT_LT(lz.size(), gz.size() * 0.8);
}

TEST(GzipxTest, WindowLimitRespected) {
  // Repetition at a distance beyond 32 KB must still round-trip (as
  // literals / local matches), just with less compression.
  std::string block(40 * 1024, '\0');
  Rng rng(11);
  for (auto& c : block) c = static_cast<char>('a' + rng.Uniform(26));
  const std::string input = block + block;
  const GzipxCompressor gz;
  std::string compressed;
  gz.Compress(input, &compressed);
  std::string output;
  ASSERT_TRUE(gz.Decompress(compressed, &output).ok());
  EXPECT_EQ(output, input);
}

// gzipx output of `input` from a thread that has never compressed, so
// its match-finder state is fresh.
std::string CompressOnFreshThread(const GzipxCompressor& gz,
                                  const std::string& input) {
  std::string out;
  std::thread([&] { gz.Compress(input, &out); }).join();
  return out;
}

TEST(GzipxTest, ReusedStateGivesFreshStateBytes) {
  // Compress keeps its hash chains across calls on a thread. A sequence
  // of inputs of every shape, compressed back to back on this thread,
  // must give exactly the bytes each gives on a fresh thread.
  Rng rng(12);
  std::string window_crossing(40 * 1024, '\0');
  for (auto& c : window_crossing) c = static_cast<char>('a' + rng.Uniform(4));
  // 1 MB of 4-byte words with a zero high byte, the shape of a factor
  // position stream: several Huffman blocks.
  std::string big(1 << 20, '\0');
  for (size_t i = 0; i < big.size(); ++i) {
    const uint64_t range = i % 4 == 2 ? 3 : 256;
    big[i] = static_cast<char>(i % 4 == 3 ? 0 : rng.Uniform(range));
  }
  const std::vector<std::string> inputs = {
      "", "a", "ab", "abc", window_crossing + window_crossing, big, "abc",
      "", window_crossing, "xyz"};
  for (const GzipxOptions options :
       {GzipxOptions{}, GzipxOptions{.max_chain = 512, .nice_length = 258,
                                     .lazy = true}}) {
    const GzipxCompressor gz(options);
    for (size_t i = 0; i < inputs.size(); ++i) {
      std::string reused;
      gz.Compress(inputs[i], &reused);
      EXPECT_EQ(reused, CompressOnFreshThread(gz, inputs[i]))
          << "input " << i << " (" << inputs[i].size() << " bytes)";
      std::string output;
      ASSERT_TRUE(gz.Decompress(reused, &output).ok());
      EXPECT_EQ(output, inputs[i]);
    }
  }
}

TEST(GzipxTest, PositionBaseWrapClearsTheTable) {
  // The chains tag positions with a 32-bit base that each call advances
  // by its input size. Raised to just below 2^32, the next input does not
  // fit: Compress clears the table and restarts the base at 1. The
  // output is the fresh thread's before, at and after the wrap.
  Rng rng(13);
  std::string input(5000, '\0');
  for (auto& c : input) c = static_cast<char>('a' + rng.Uniform(3));
  const GzipxCompressor gz;
  const std::string want = CompressOnFreshThread(gz, input);
  std::string out;
  gz.Compress(input, &out);
  EXPECT_EQ(out, want);
  EXPECT_GT(gzipx_testing::PositionBase(), input.size());

  gzipx_testing::RaisePositionBase(UINT32_MAX - 6000);
  out.clear();
  gz.Compress(input, &out);  // fits: the base ends 1000 below 2^32
  EXPECT_EQ(out, want);
  EXPECT_EQ(gzipx_testing::PositionBase(), UINT32_MAX - 1000);

  out.clear();
  gz.Compress(input, &out);  // does not fit: cleared, base restarts at 1
  EXPECT_EQ(out, want);
  EXPECT_EQ(gzipx_testing::PositionBase(), 1 + input.size());

  out.clear();
  gz.Compress(input, &out);
  EXPECT_EQ(out, want);
}

TEST(LzmaxTest, RepMatchesExploitStructuredData) {
  // Records with a fixed stride: rep0 distances should kick in.
  std::string input;
  Rng rng(12);
  std::string record = "field1=AAAA|field2=BBBB|field3=CCCC|";
  for (int i = 0; i < 3000; ++i) {
    input += record;
    input += std::to_string(i % 7);
  }
  const LzmaxCompressor lz;
  std::string compressed;
  lz.Compress(input, &compressed);
  EXPECT_LT(compressed.size(), input.size() / 20);
  std::string output;
  ASSERT_TRUE(lz.Decompress(compressed, &output).ok());
  EXPECT_EQ(output, input);
}

}  // namespace
}  // namespace rlz
