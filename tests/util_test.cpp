#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "util/bitio.h"
#include "util/crc32.h"
#include "util/histogram.h"
#include "util/random.h"
#include "util/status.h"

namespace rlz {
namespace {

TEST(StatusTest, OkByDefault) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::InvalidArgument("bad flag");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(s.message(), "bad flag");
  EXPECT_EQ(s.ToString(), "InvalidArgument: bad flag");
}

TEST(StatusTest, FactoryCodes) {
  EXPECT_EQ(Status::NotFound("x").code(), StatusCode::kNotFound);
  EXPECT_EQ(Status::OutOfRange("x").code(), StatusCode::kOutOfRange);
  EXPECT_EQ(Status::Corruption("x").code(), StatusCode::kCorruption);
  EXPECT_EQ(Status::IOError("x").code(), StatusCode::kIOError);
  EXPECT_EQ(Status::Unimplemented("x").code(), StatusCode::kUnimplemented);
  EXPECT_EQ(Status::Internal("x").code(), StatusCode::kInternal);
  EXPECT_EQ(Status::Unavailable("x").code(), StatusCode::kUnavailable);
  EXPECT_EQ(Status::Unavailable("x").ToString(), "Unavailable: x");
}

TEST(StatusTest, Equality) {
  EXPECT_EQ(Status::OK(), Status());
  EXPECT_EQ(Status::NotFound("a"), Status::NotFound("a"));
  EXPECT_FALSE(Status::NotFound("a") == Status::NotFound("b"));
}

StatusOr<int> ParsePositive(int v) {
  if (v <= 0) return Status::InvalidArgument("not positive");
  return v;
}

TEST(StatusOrTest, HoldsValue) {
  StatusOr<int> r = ParsePositive(7);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), 7);
  EXPECT_EQ(*r, 7);
  EXPECT_TRUE(r.status().ok());
}

TEST(StatusOrTest, HoldsError) {
  StatusOr<int> r = ParsePositive(-1);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

Status UsesMacros(int v, int* out) {
  RLZ_ASSIGN_OR_RETURN(*out, ParsePositive(v));
  RLZ_RETURN_IF_ERROR(Status::OK());
  return Status::OK();
}

TEST(StatusOrTest, Macros) {
  int out = 0;
  EXPECT_TRUE(UsesMacros(5, &out).ok());
  EXPECT_EQ(out, 5);
  EXPECT_EQ(UsesMacros(-2, &out).code(), StatusCode::kInvalidArgument);
}

TEST(RngTest, Deterministic) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RngTest, SeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += a.Next() == b.Next();
  EXPECT_LT(same, 2);
}

TEST(RngTest, UniformInBounds) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.Uniform(17), 17u);
  }
}

TEST(RngTest, RangeInclusive) {
  Rng rng(7);
  bool saw_lo = false;
  bool saw_hi = false;
  for (int i = 0; i < 5000; ++i) {
    const uint64_t v = rng.Range(3, 5);
    EXPECT_GE(v, 3u);
    EXPECT_LE(v, 5u);
    saw_lo |= v == 3;
    saw_hi |= v == 5;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(RngTest, DoubleInUnitInterval) {
  Rng rng(9);
  for (int i = 0; i < 10000; ++i) {
    const double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(ZipfTest, HeadIsMoreFrequentThanTail) {
  Rng rng(11);
  ZipfSampler zipf(1000, 1.0);
  std::vector<int> counts(1000, 0);
  for (int i = 0; i < 100000; ++i) ++counts[zipf.Sample(rng)];
  EXPECT_GT(counts[0], counts[100]);
  EXPECT_GT(counts[0], 20 * std::max(1, counts[900]));
}

TEST(ZipfTest, CoversRange) {
  Rng rng(13);
  ZipfSampler zipf(5, 1.0);
  std::vector<int> counts(5, 0);
  for (int i = 0; i < 10000; ++i) ++counts[zipf.Sample(rng)];
  for (int c : counts) EXPECT_GT(c, 0);
}

TEST(BitIoTest, SingleBits) {
  std::string buf;
  BitWriter bw(&buf);
  for (int i = 0; i < 20; ++i) bw.WriteBits(i & 1, 1);
  bw.Finish();
  BitReader br(buf);
  for (int i = 0; i < 20; ++i) EXPECT_EQ(br.ReadBits(1), (i & 1u));
  EXPECT_FALSE(br.overflowed());
}

TEST(BitIoTest, MixedWidthRoundTrip) {
  Rng rng(17);
  std::vector<std::pair<uint64_t, int>> fields;
  for (int i = 0; i < 2000; ++i) {
    const int nbits = 1 + static_cast<int>(rng.Uniform(57));
    const uint64_t mask = (nbits == 64) ? ~0ULL : ((1ULL << nbits) - 1);
    fields.emplace_back(rng.Next() & mask, nbits);
  }
  std::string buf;
  BitWriter bw(&buf);
  for (auto [v, n] : fields) bw.WriteBits(v, n);
  bw.Finish();
  BitReader br(buf);
  for (auto [v, n] : fields) EXPECT_EQ(br.ReadBits(n), v);
  EXPECT_FALSE(br.overflowed());
}

TEST(BitIoTest, PeekAndSkip) {
  std::string buf;
  BitWriter bw(&buf);
  bw.WriteBits(0b1011, 4);
  bw.WriteBits(0b110, 3);
  bw.Finish();
  BitReader br(buf);
  EXPECT_EQ(br.PeekBits(4), 0b1011u);
  EXPECT_EQ(br.PeekBits(4), 0b1011u);  // peek does not consume
  br.SkipBits(4);
  EXPECT_EQ(br.ReadBits(3), 0b110u);
}

TEST(BitIoTest, OverflowFlag) {
  std::string buf;
  BitWriter bw(&buf);
  bw.WriteBits(0xFF, 8);
  bw.Finish();
  BitReader br(buf);
  br.ReadBits(8);
  EXPECT_FALSE(br.overflowed());
  br.ReadBits(8);
  EXPECT_TRUE(br.overflowed());
}

TEST(Crc32Test, KnownVectors) {
  // Standard IEEE CRC-32 test vector.
  EXPECT_EQ(Crc32("123456789"), 0xCBF43926u);
  EXPECT_EQ(Crc32(""), 0x00000000u);
}

TEST(Crc32Test, SeedChaining) {
  const std::string data = "hello, world";
  const uint32_t whole = Crc32(data);
  const uint32_t part = Crc32(data.substr(5), Crc32(data.substr(0, 5)));
  EXPECT_EQ(whole, part);
}

// The textbook bitwise CRC-32 (reflected polynomial 0xEDB88320), kept
// here as the reference the sliced implementation must match.
uint32_t ReferenceCrc32(const uint8_t* p, size_t n, uint32_t seed) {
  uint32_t c = seed ^ 0xFFFFFFFFU;
  for (size_t i = 0; i < n; ++i) {
    c ^= p[i];
    for (int k = 0; k < 8; ++k) c = (c & 1) ? 0xEDB88320U ^ (c >> 1) : c >> 1;
  }
  return c ^ 0xFFFFFFFFU;
}

// Every length 0-2048 at every start offset 0-7, so each alignment of the
// eight-byte main loop and every tail length is compared against the
// reference.
TEST(Crc32Test, SlicedMatchesBytewiseReference) {
  Rng rng(31);
  std::vector<uint8_t> buf(2048 + 8);
  for (auto& b : buf) b = static_cast<uint8_t>(rng.Next());
  for (size_t offset = 0; offset < 8; ++offset) {
    for (size_t len = 0; len <= 2048; ++len) {
      const uint8_t* p = buf.data() + offset;
      ASSERT_EQ(Crc32(p, len), ReferenceCrc32(p, len, 0))
          << "offset " << offset << " len " << len;
    }
  }
}

// Chaining a CRC through a seed gives the whole-buffer CRC for every
// split point, including splits inside an eight-byte group.
TEST(Crc32Test, SeedChainingAcrossSplitPoints) {
  Rng rng(32);
  std::vector<uint8_t> buf(300);
  for (auto& b : buf) b = static_cast<uint8_t>(rng.Next());
  const uint32_t whole = Crc32(buf.data(), buf.size());
  ASSERT_EQ(whole, ReferenceCrc32(buf.data(), buf.size(), 0));
  for (size_t split = 0; split <= buf.size(); ++split) {
    const uint32_t head = Crc32(buf.data(), split);
    ASSERT_EQ(Crc32(buf.data() + split, buf.size() - split, head), whole)
        << "split " << split;
    ASSERT_EQ(Crc32(buf.data() + split, buf.size() - split, head),
              ReferenceCrc32(buf.data() + split, buf.size() - split, head));
  }
}

// Crc32 may dispatch to the carry-less-multiply kernel (64 bytes and up,
// bulk in 64- then 16-byte steps, tail through the tables); it must equal
// the portable table code for every length, alignment, seed and chaining
// split, including every kernel boundary.
TEST(Crc32Test, DispatchedMatchesPortable) {
  Rng rng(33);
  std::vector<uint8_t> buf((1 << 20) + 64);
  for (auto& b : buf) b = static_cast<uint8_t>(rng.Next());
  for (const uint32_t seed : {0u, 0xDEADBEEFu}) {
    for (size_t offset = 0; offset < 16; ++offset) {
      for (size_t len = 0; len <= 4096; ++len) {
        const uint8_t* p = buf.data() + offset;
        ASSERT_EQ(Crc32(p, len, seed), Crc32Portable(p, len, seed))
            << "seed " << seed << " offset " << offset << " len " << len;
      }
    }
  }
  for (size_t extra = 0; extra < 64; ++extra) {
    const size_t len = (1 << 20) + extra;
    ASSERT_EQ(Crc32(buf.data(), len), Crc32Portable(buf.data(), len))
        << "len " << len;
  }
  const size_t total = 200 + 64;
  const uint32_t whole = Crc32Portable(buf.data(), total);
  for (size_t split = 0; split <= 200; ++split) {
    const uint32_t head = Crc32(buf.data(), split);
    ASSERT_EQ(head, Crc32Portable(buf.data(), split)) << "split " << split;
    ASSERT_EQ(Crc32(buf.data() + split, total - split, head), whole)
        << "split " << split;
  }
}

TEST(Crc32Test, DetectsSingleBitFlip) {
  std::string data(1024, 'a');
  const uint32_t before = Crc32(data);
  data[512] ^= 1;
  EXPECT_NE(before, Crc32(data));
}

// ---------------------------------------------------------------------------
// LatencyHistogram (the serving layer's percentile accounting).

TEST(LatencyHistogramTest, BucketGeometryIsConsistent) {
  // Every bucket's [low, low+width) must contain exactly the values that
  // index back to it; probe the edges across the full 64-bit range.
  for (int b = 0; b < LatencyHistogram::kNumBuckets; ++b) {
    const uint64_t low = LatencyHistogram::BucketLow(b);
    const uint64_t width = LatencyHistogram::BucketWidth(b);
    ASSERT_EQ(LatencyHistogram::BucketIndex(low), b) << "bucket " << b;
    ASSERT_EQ(LatencyHistogram::BucketIndex(low + width - 1), b)
        << "bucket " << b;
    if (b + 1 < LatencyHistogram::kNumBuckets) {
      ASSERT_EQ(LatencyHistogram::BucketIndex(low + width), b + 1)
          << "bucket " << b;
    }
  }
  // Small values get exact buckets.
  EXPECT_EQ(LatencyHistogram::BucketIndex(0), 0);
  EXPECT_EQ(LatencyHistogram::BucketIndex(15), 15);
  EXPECT_EQ(LatencyHistogram::BucketWidth(3), 1u);
}

TEST(LatencyHistogramTest, QuantilesWithinLogLinearError) {
  LatencyHistogram hist;
  // 1..1000 us, uniformly: p50 ~ 500us, p99 ~ 990us (each in ns).
  for (uint64_t us = 1; us <= 1000; ++us) hist.Record(us * 1000);
  LatencyHistogram::Snapshot snap;
  hist.AddTo(&snap);
  EXPECT_EQ(snap.total, 1000u);
  // Log-linear bucketing quantizes at 1/16 (~6%) relative error.
  EXPECT_NEAR(snap.ValueAtQuantile(0.50), 500e3, 500e3 * 0.08);
  EXPECT_NEAR(snap.ValueAtQuantile(0.99), 990e3, 990e3 * 0.08);
  EXPECT_NEAR(snap.ValueAtQuantile(1.0), 1000e3, 1000e3 * 0.08);
  EXPECT_LE(snap.ValueAtQuantile(0.0), 2e3);
}

TEST(LatencyHistogramTest, SnapshotsMergeAcrossHistograms) {
  LatencyHistogram fast;  // all at ~10us
  LatencyHistogram slow;  // all at ~10ms
  for (int i = 0; i < 900; ++i) fast.Record(10'000);
  for (int i = 0; i < 100; ++i) slow.Record(10'000'000);
  LatencyHistogram::Snapshot merged;
  fast.AddTo(&merged);
  slow.AddTo(&merged);
  EXPECT_EQ(merged.total, 1000u);
  // p50 sits in the fast mode, p99 in the slow one.
  EXPECT_NEAR(merged.ValueAtQuantile(0.50), 10e3, 10e3 * 0.10);
  EXPECT_NEAR(merged.ValueAtQuantile(0.99), 10e6, 10e6 * 0.10);
}

TEST(LatencyHistogramTest, EmptyAndExtremeValues) {
  LatencyHistogram::Snapshot empty;
  EXPECT_EQ(empty.ValueAtQuantile(0.5), 0.0);
  LatencyHistogram hist;
  hist.Record(0);
  hist.Record(~0ull);  // the top bucket must not overflow
  LatencyHistogram::Snapshot snap;
  hist.AddTo(&snap);
  EXPECT_EQ(snap.total, 2u);
  EXPECT_GE(snap.ValueAtQuantile(1.0), 1e18);
}

}  // namespace
}  // namespace rlz
