// Serving hot-path benchmark (DESIGN.md §9): measures decode throughput
// (MB/s, docs/s, p50/p99 per-document latency) for three decode
// configurations —
//
//   legacy  — a faithful replica of the pre-scratch decode path: fresh
//             position/length vectors and inflate buffer per call, then
//             per-factor append expansion with geometric output growth.
//             This is the "before" of the perf trajectory and the
//             fresh-allocation baseline of the smoke gate.
//   fresh   — the current decoder without scratch: per-call stream
//             buffers, but exact-size output + memcpy expansion.
//   scratch — the current decoder with a reused DecodeScratch: the
//             serving configuration (zero decode-side allocations).
//
// All three run over the same per-document encoded factor streams, so the
// comparison isolates the decode kernel. The bench also times factorize
// against `refine_baseline`, a replica of the per-character Fig. 1 Refine
// loop the matcher used before its whole-pattern search, times it again
// against a short-factor dictionary (`short_dict`, the seal's shape), and
// splits ZV
// decode into its stages (code-length read plus table build, symbol loop,
// CRC, vbyte plus copy expansion). Serving
// throughput through DocService is serve_load_bench's job. Results are
// printed and written as machine-readable JSON (default
// BENCH_hot_path.json in the working directory) so the repo's perf
// trajectory is recorded and regression-gated.
//
//   ./build/bench/hot_path_bench                full run
//   ./build/bench/hot_path_bench --smoke       small corpus + gate: the
//         scratch path must beat the fresh-allocation (legacy) baseline
//         on decode MB/s by kSmokeGates' ratio for each of UV and ZV, and
//         factorize must beat the Refine loop by kFactorizeGate's smoke
//         ratio, else exit 1 (run by the perf-smoke CI job)
//   ./build/bench/hot_path_bench --out FILE    JSON destination

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "bench_common.h"
#include "codecs/int_codecs.h"
#include "core/dictionary.h"
#include "core/factor_coder.h"
#include "core/factorizer.h"
#include "suffix/matcher.h"
#include "corpus/generator.h"
#include "io/file.h"
#include "util/crc32.h"
#include "util/logging.h"
#include "util/timer.h"
#include "zip/gzipx.h"

namespace rlz {
namespace bench {
namespace {

// The perf-smoke CI gates: reused-scratch decode must beat the
// fresh-allocation (legacy) baseline by at least these factors on the
// smoke corpus. UV is the paper's fastest-decode coding, where decode is
// allocation-bound. ZV is the paper's recommended coding. Its legacy
// replica inflates the position stream with the same gzipx kernels, so a
// faster kernel speeds both sides and the ratio moves only with the share
// of decode time the kernels take: 1.17-1.42 with the bytewise CRC and
// per-symbol table fill of the previous kernels, 1.53-1.74 with the
// current ones (smoke runs on a 4-vCPU Xeon VM). The ZV gate sits between
// the two, so it fails if the kernels slow back down.
struct SmokeGate {
  const char* coding;
  double min_ratio;
};
constexpr SmokeGate kSmokeGates[] = {{"UV", 1.5}, {"ZV", 1.45}};

// Factorize must beat the Fig. 1 Refine-loop replica by these factors:
// the whole-pattern search measured 2.3-3.5x on the full corpus and
// 1.7-2.2x on the smoke corpus (4-vCPU Xeon VM). A full run records the
// gate; a smoke run exits 1 when it fails.
struct FactorizeGate {
  double full_ratio;
  double smoke_ratio;
};
constexpr FactorizeGate kFactorizeGate = {1.8, 1.5};

// Replica of the Refine-era SuffixMatcher::LongestMatch: the paper's
// Fig. 1 loop, one Refine (two binary searches) per character, started
// from the 2-byte jump table that matcher had and finishing a single
// surviving suffix by direct comparison. Kept here (not in the library)
// purely as the factorize baseline. It calls the library's Refine, which the old
// matcher could inline, and runs 5-10% slower than the old matcher did
// on the same host, so vs_refine overstates the gain by about that much.
class RefineMatcher {
 public:
  explicit RefineMatcher(const SuffixMatcher& matcher)
      : m_(matcher), jump_lo_(65536, 0), jump_hi_(65536, 0) {
    const std::string_view text = m_.text();
    const std::vector<int32_t>& sa = m_.sa();
    for (size_t i = 0; i < sa.size(); ++i) {
      const size_t p = static_cast<size_t>(sa[i]);
      if (p + 1 >= text.size()) continue;  // length-1 suffix
      const uint32_t key = (static_cast<uint8_t>(text[p]) << 8) |
                           static_cast<uint8_t>(text[p + 1]);
      if (jump_lo_[key] == jump_hi_[key]) {
        jump_lo_[key] = static_cast<int32_t>(i);
      }
      jump_hi_[key] = static_cast<int32_t>(i + 1);
    }
  }

  Match LongestMatch(std::string_view pattern) const {
    const std::string_view text = m_.text();
    const std::vector<int32_t>& sa = m_.sa();
    Match m;
    if (pattern.empty() || text.empty()) return m;
    int32_t lb = 0;
    int32_t rb = static_cast<int32_t>(sa.size()) - 1;
    int32_t j = 0;
    const int32_t plen = static_cast<int32_t>(pattern.size());
    if (text.size() >= 2 && plen >= 2) {
      const uint32_t key = (static_cast<uint8_t>(pattern[0]) << 8) |
                           static_cast<uint8_t>(pattern[1]);
      if (jump_lo_[key] < jump_hi_[key]) {
        lb = jump_lo_[key];
        rb = jump_hi_[key] - 1;
        j = 2;
      } else {
        if (!m_.Refine(&lb, &rb, 0, static_cast<uint8_t>(pattern[0]))) {
          return m;
        }
        return Match{sa[lb], 1};
      }
    }
    while (j < plen) {
      if (lb == rb) {
        const size_t start = static_cast<size_t>(sa[lb]);
        while (j < plen && start + j < text.size() &&
               text[start + j] == pattern[j]) {
          ++j;
        }
        break;
      }
      int32_t nlb = lb;
      int32_t nrb = rb;
      if (!m_.Refine(&nlb, &nrb, j, static_cast<uint8_t>(pattern[j]))) break;
      lb = nlb;
      rb = nrb;
      ++j;
    }
    return j == 0 ? m : Match{sa[lb], j};
  }

 private:
  const SuffixMatcher& m_;
  std::vector<int32_t> jump_lo_;
  std::vector<int32_t> jump_hi_;
};

// Factorizer::Factorize's parse loop over the Refine replica.
void RefineFactorize(const RefineMatcher& matcher, std::string_view doc,
                     std::vector<Factor>* out) {
  size_t i = 0;
  while (i < doc.size()) {
    const Match m = matcher.LongestMatch(doc.substr(i));
    if (m.len == 0) {
      out->push_back(Factor{static_cast<uint8_t>(doc[i]), 0});
      i += 1;
    } else {
      out->push_back(Factor{static_cast<uint32_t>(m.pos),
                            static_cast<uint32_t>(m.len)});
      i += m.len;
    }
  }
}

// Best-of-`repeats` seconds to factorize every document with `parse`,
// whose output for the last pass lands in `docs`.
template <typename Parse>
double TimeFactorize(const Collection& collection, int repeats, Parse parse,
                     std::vector<std::vector<Factor>>* docs) {
  double best_seconds = 0.0;
  for (int r = 0; r < repeats; ++r) {
    for (auto& d : *docs) d.clear();
    Timer pass;
    for (size_t i = 0; i < collection.num_docs(); ++i) {
      parse(collection.doc(i), &(*docs)[i]);
    }
    const double seconds = pass.ElapsedSeconds();
    if (best_seconds == 0.0 || seconds < best_seconds) best_seconds = seconds;
  }
  return best_seconds;
}

// Best-of-`repeats` seconds of the Refine-loop replica over every
// document; its factors must equal `want`, the current Factorizer's.
double TimeRefineFactorize(const Dictionary& dict,
                           const Collection& collection, int repeats,
                           const std::vector<std::vector<Factor>>& want) {
  const RefineMatcher matcher(dict.matcher());
  std::vector<std::vector<Factor>> docs(collection.num_docs());
  const double seconds = TimeFactorize(
      collection, repeats,
      [&](std::string_view doc, std::vector<Factor>* out) {
        RefineFactorize(matcher, doc, out);
      },
      &docs);
  for (size_t i = 0; i < docs.size(); ++i) {
    RLZ_CHECK(docs[i].size() == want[i].size() &&
              std::equal(docs[i].begin(), docs[i].end(), want[i].begin(),
                         [](const Factor& a, const Factor& b) {
                           return a.pos == b.pos && a.len == b.len;
                         }))
        << "factorize differs from the Refine loop at doc " << i;
  }
  return seconds;
}

// Faithful replica of the pre-scratch FactorCoder::DecodeDoc: decode the
// factor streams with fresh per-call buffers (DecodeFactors), then expand
// with per-factor appends and no output reservation. Kept here (not in
// the library) purely as the benchmark baseline.
Status LegacyDecodeDoc(const FactorCoder& coder, std::string_view in,
                       const Dictionary& dict, std::string* text) {
  std::vector<Factor> factors;
  RLZ_RETURN_IF_ERROR(coder.DecodeFactors(in, &factors, nullptr));
  const std::string_view d = dict.text();
  for (const Factor& f : factors) {
    if (f.len == 0) {
      if (f.pos > 0xFF) return Status::Corruption("literal out of range");
      text->push_back(static_cast<char>(f.pos));
    } else {
      if (static_cast<size_t>(f.pos) + f.len > d.size()) {
        return Status::Corruption("factor outside dictionary");
      }
      text->append(d.substr(f.pos, f.len));
    }
  }
  return Status::OK();
}

enum class DecodeMode { kLegacy, kFresh, kScratch };

struct DecodeResult {
  double mb_per_s = 0.0;
  double docs_per_s = 0.0;
  double p50_us = 0.0;
  double p99_us = 0.0;
};

// Runs `repeats` full decode passes over the encoded documents in one
// configuration; throughput is best-of-repeats (the standard microbench
// convention), latency percentiles come from the last pass. Every decoded
// document is byte-compared against the source collection.
DecodeResult RunDecodePass(const FactorCoder& coder, const Dictionary& dict,
                           const std::vector<std::string>& encoded,
                           const Collection& collection, DecodeMode mode,
                           int repeats) {
  const size_t n = encoded.size();
  DecodeScratch scratch;
  std::vector<double> latencies_us(n);
  double best_seconds = 0.0;
  for (int r = 0; r < repeats; ++r) {
    Timer pass;
    for (size_t i = 0; i < n; ++i) {
      Timer one;
      std::string doc;  // serving allocates the output per request
      Status status;
      switch (mode) {
        case DecodeMode::kLegacy:
          status = LegacyDecodeDoc(coder, encoded[i], dict, &doc);
          break;
        case DecodeMode::kFresh:
          status = coder.DecodeDoc(encoded[i], dict, &doc);
          break;
        case DecodeMode::kScratch:
          status = coder.DecodeDoc(encoded[i], dict, &doc, &scratch);
          break;
      }
      latencies_us[i] = 1e6 * one.ElapsedSeconds();
      RLZ_CHECK(status.ok()) << status.ToString();
      RLZ_CHECK(doc == collection.doc(i)) << "decode mismatch at doc " << i;
    }
    const double seconds = pass.ElapsedSeconds();
    if (best_seconds == 0.0 || seconds < best_seconds) best_seconds = seconds;
  }
  DecodeResult result;
  result.mb_per_s =
      collection.size_bytes() / (1024.0 * 1024.0) / best_seconds;
  result.docs_per_s = static_cast<double>(n) / best_seconds;
  std::sort(latencies_us.begin(), latencies_us.end());
  result.p50_us = latencies_us[n / 2];
  result.p99_us = latencies_us[std::min(n - 1, n * 99 / 100)];
  return result;
}

// ZV decode split into stages, in microseconds per document.
struct StageSplit {
  double tables_us = 0.0;   // code-length read + both Huffman table builds
  double symbols_us = 0.0;  // gzipx symbol loop (inflate - tables - crc)
  double crc_us = 0.0;      // CRC-32 over the inflated position stream
  double expand_us = 0.0;   // vbyte lengths + copy expansion
  double total_us = 0.0;    // DecodeDoc with scratch
};

// The gzipx position stream of a ZV document: vbyte(count) then the
// length-prefixed stream (FactorCoder's layout).
std::string_view ZvPositionStream(std::string_view encoded) {
  size_t pos = 0;
  uint32_t count = 0;
  uint32_t zsize = 0;
  RLZ_CHECK(VByteCodec::Get(encoded, &pos, &count).ok());
  RLZ_CHECK(VByteCodec::Get(encoded, &pos, &zsize).ok());
  return encoded.substr(pos, zsize);
}

// The table-build stage alone: reads every Huffman block's 4-bit code
// lengths and builds both decoders, as GzipxCompressor::Decompress does.
// Walks the block layout written by gzipx.cpp (magic, vbyte size, then per
// block vbyte span, vbyte tokens, type byte and, for Huffman blocks, vbyte
// bit-stream size and the stream, whose first 158 bytes hold the lengths).
void BuildStreamTables(std::string_view z, GzipxDecodeScratch* s) {
  size_t pos = 1;
  uint32_t total = 0;
  RLZ_CHECK(VByteCodec::Get(z, &pos, &total).ok());
  for (uint64_t covered = 0; covered < total;) {
    uint32_t span = 0;
    uint32_t tokens = 0;
    RLZ_CHECK(VByteCodec::Get(z, &pos, &span).ok());
    RLZ_CHECK(VByteCodec::Get(z, &pos, &tokens).ok());
    covered += span;
    if (z[pos++] == 1) {  // stored block
      pos += span;
      continue;
    }
    uint32_t bits_size = 0;
    RLZ_CHECK(VByteCodec::Get(z, &pos, &bits_size).ok());
    const uint8_t* b = reinterpret_cast<const uint8_t*>(z.data()) + pos;
    s->lit_lens.resize(286);
    s->dist_lens.resize(30);
    for (size_t i = 0; i < 286; i += 2, ++b) {
      s->lit_lens[i] = *b & 0xF;
      s->lit_lens[i + 1] = *b >> 4;
    }
    for (size_t i = 0; i < 30; i += 2, ++b) {
      s->dist_lens[i] = *b & 0xF;
      s->dist_lens[i + 1] = *b >> 4;
    }
    RLZ_CHECK(s->lit.Init(s->lit_lens).ok());
    RLZ_CHECK(s->dist.Init(s->dist_lens).ok());
    pos += bits_size;
  }
  RLZ_CHECK_EQ(pos + 4, z.size());  // only the CRC trailer remains
}

// Times each stage over every document, best of `repeats` passes per
// stage. The symbol loop and the expansion are differences of measured
// wholes: inflate minus its table and CRC stages, and DecodeDoc minus
// inflate.
StageSplit RunZvStageSplit(const FactorCoder& coder, const Dictionary& dict,
                           const std::vector<std::string>& encoded,
                           int repeats) {
  RLZ_CHECK(coder.coding().name() == "ZV");
  std::vector<std::string_view> streams;
  for (const std::string& e : encoded) streams.push_back(ZvPositionStream(e));
  const GzipxCompressor gz;
  GzipxDecodeScratch gz_scratch;
  DecodeScratch scratch;
  std::string buf;
  const size_t n = encoded.size();
  // Best-of-repeats seconds of one pass of `body` over every document.
  auto best = [&](auto&& body) {
    double best_seconds = 0.0;
    for (int r = 0; r < repeats; ++r) {
      Timer pass;
      for (size_t i = 0; i < n; ++i) body(i);
      const double seconds = pass.ElapsedSeconds();
      if (best_seconds == 0.0 || seconds < best_seconds) best_seconds = seconds;
    }
    return 1e6 * best_seconds / static_cast<double>(n);
  };
  const double decode_us = best([&](size_t i) {
    buf.clear();
    RLZ_CHECK(coder.DecodeDoc(encoded[i], dict, &buf, &scratch).ok());
  });
  const double inflate_us = best([&](size_t i) {
    buf.clear();
    RLZ_CHECK(gz.Decompress(streams[i], &buf, &gz_scratch).ok());
  });
  const double tables_us =
      best([&](size_t i) { BuildStreamTables(streams[i], &gz_scratch); });
  std::vector<std::string> inflated(n);
  for (size_t i = 0; i < n; ++i) {
    RLZ_CHECK(gz.Decompress(streams[i], &inflated[i], &gz_scratch).ok());
  }
  const double crc_us = best([&](size_t i) {
    // Checked against the stream's stored CRC, which also keeps the
    // computation live.
    const std::string_view z = streams[i];
    uint32_t want = 0;
    for (int k = 0; k < 4; ++k) {
      want |= static_cast<uint32_t>(static_cast<uint8_t>(z[z.size() - 4 + k]))
              << (8 * k);
    }
    RLZ_CHECK_EQ(Crc32(inflated[i]), want);
  });
  StageSplit split;
  split.tables_us = tables_us;
  split.crc_us = crc_us;
  split.symbols_us = inflate_us - tables_us - crc_us;
  split.expand_us = decode_us - inflate_us;
  split.total_us = decode_us;
  return split;
}

void AppendJsonDecode(const char* name, const DecodeResult& r,
                      std::string* out) {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "      \"%s\": {\"mb_per_s\": %.1f, \"docs_per_s\": %.0f, "
                "\"p50_us\": %.2f, \"p99_us\": %.2f}",
                name, r.mb_per_s, r.docs_per_s, r.p50_us, r.p99_us);
  out->append(buf);
}

void Run(bool smoke, const std::string& out_path) {
  CorpusOptions corpus_options;
  corpus_options.target_bytes = smoke ? (4u << 20) : (16u << 20);
  corpus_options.seed = 20110613;
  const Corpus corpus = GenerateCorpus(corpus_options);
  const Collection& collection = corpus.collection;
  const double corpus_mb = collection.size_bytes() / (1024.0 * 1024.0);
  const int repeats = smoke ? 3 : 5;

  std::printf("hot_path_bench (%s): %zu docs, %.1f MB\n",
              smoke ? "smoke" : "full", collection.num_docs(), corpus_mb);

  // Dictionary + factorization, shared by every coding (also the
  // factorize-throughput measurement, against the Refine-loop replica).
  std::shared_ptr<const Dictionary> dict = DictionaryBuilder::BuildSampled(
      collection.data(), collection.size_bytes() / 100, 1024);
  Factorizer factorizer(dict.get());
  std::vector<std::vector<Factor>> docs(collection.num_docs());
  const double factorize_seconds = TimeFactorize(
      collection, repeats,
      [&](std::string_view doc, std::vector<Factor>* out) {
        factorizer.Factorize(doc, out);
      },
      &docs);
  const double refine_seconds =
      TimeRefineFactorize(*dict, collection, repeats, docs);
  const double factorize_mb_per_s = corpus_mb / factorize_seconds;
  const double refine_mb_per_s = corpus_mb / refine_seconds;

  // The seal's shape: the same documents against a 160 KB dictionary
  // sampled from another seed's corpus, as a page_cold store's append
  // dictionary meets appended documents. Factors average about 5.5 B, so
  // the per-factor cost of the search dominates, not its comparisons.
  CorpusOptions other_options = corpus_options;
  other_options.seed = corpus_options.seed + 1;
  const std::shared_ptr<const Dictionary> short_dict =
      DictionaryBuilder::BuildSampled(
          GenerateCorpus(other_options).collection.data(), 160 << 10, 1024);
  Factorizer short_factorizer(short_dict.get());
  std::vector<std::vector<Factor>> short_docs(collection.num_docs());
  const double short_seconds = TimeFactorize(
      collection, repeats,
      [&](std::string_view doc, std::vector<Factor>* out) {
        short_factorizer.Factorize(doc, out);
      },
      &short_docs);
  const double short_mb_per_s = corpus_mb / short_seconds;
  const double short_avg_len = short_factorizer.stats().avg_factor_length();
  const double vs_refine = refine_seconds / factorize_seconds;
  const double factorize_min_ratio =
      smoke ? kFactorizeGate.smoke_ratio : kFactorizeGate.full_ratio;
  std::printf(
      "factorize: %.1f MB/s (%.3fs, avg factor %.1f), Refine loop "
      "%.1f MB/s, %.2fx\n",
      factorize_mb_per_s, factorize_seconds,
      factorizer.stats().avg_factor_length(),
      refine_mb_per_s, vs_refine);
  std::printf(
      "factorize, short-factor dictionary (%zu B): %.1f MB/s (%.3fs, avg "
      "factor %.1f)\n",
      short_dict->size(), short_mb_per_s, short_seconds, short_avg_len);

  std::string json;
  json.append("{\n  \"bench\": \"hot_path\",\n");
  json.append(smoke ? "  \"mode\": \"smoke\",\n" : "  \"mode\": \"full\",\n");
  json.append("  \"host\": " + HostJson() + ",\n");
  char buf[512];
  std::snprintf(buf, sizeof(buf),
                "  \"corpus\": {\"docs\": %zu, \"bytes\": %llu, "
                "\"dict_bytes\": %zu, \"seed\": %llu},\n",
                collection.num_docs(),
                static_cast<unsigned long long>(collection.size_bytes()),
                dict->size(),
                static_cast<unsigned long long>(corpus_options.seed));
  json.append(buf);
  std::snprintf(buf, sizeof(buf),
                "  \"factorize\": {\"mb_per_s\": %.1f, \"seconds\": %.3f, "
                "\"refine_baseline\": {\"mb_per_s\": %.1f, "
                "\"seconds\": %.3f}, \"vs_refine\": %.2f, "
                "\"short_dict\": {\"mb_per_s\": %.1f, \"seconds\": %.3f, "
                "\"avg_factor_len\": %.1f, \"dict_bytes\": %zu}},\n",
                factorize_mb_per_s, factorize_seconds, refine_mb_per_s,
                refine_seconds, vs_refine, short_mb_per_s, short_seconds,
                short_avg_len, short_dict->size());
  json.append(buf);
  // The one-time "before" record: the real pre-scratch FactorCoder
  // measured from a pristine build of commit d02bb1b on the reference
  // host (full 16 MB corpus). Emitted as constants so regenerating the
  // checked-in BENCH_hot_path.json cannot lose the trajectory's origin;
  // the re-measurable stand-in on the current host is
  // decode.*.legacy_baseline.
  json.append(
      "  \"pre_pr_baseline\": {\n"
      "    \"comment\": \"Measured once at PR 5 from a pristine build of "
      "commit d02bb1b (the pre-PR tree) on the reference host, full 16 MB "
      "corpus, via the real pre-PR FactorCoder::DecodeDoc. Constants "
      "emitted by hot_path_bench; the re-measurable stand-in is "
      "decode.*.legacy_baseline.\",\n"
      "    \"factorize_mb_per_s\": 50.7,\n"
      "    \"decode\": {\n"
      "      \"ZV\": {\"mb_per_s\": 445.1, \"docs_per_s\": 24840, "
      "\"p50_us\": 36.78, \"p99_us\": 77.11},\n"
      "      \"UV\": {\"mb_per_s\": 1536.2, \"docs_per_s\": 85731, "
      "\"p50_us\": 9.72, \"p99_us\": 25.77}\n"
      "    }\n"
      "  },\n");
  json.append("  \"decode\": {\n");

  // The decode sweep: the paper's recommended pair (ZV) and the
  // fastest-decode pair (UV), legacy vs fresh vs scratch.
  double gate_ratios[2] = {0.0, 0.0};  // per kSmokeGates entry
  StageSplit split;
  const PairCoding codings[] = {kZV, kUV};
  std::printf("\n%-7s %-8s %10s %12s %9s %9s %8s\n", "coding", "path",
              "MB/s", "docs/s", "p50 us", "p99 us", "vs base");
  for (size_t c = 0; c < 2; ++c) {
    const FactorCoder coder(codings[c]);
    std::vector<std::string> encoded(collection.num_docs());
    for (size_t i = 0; i < collection.num_docs(); ++i) {
      RLZ_CHECK(coder.EncodeDoc(docs[i], &encoded[i]).ok());
    }
    const DecodeResult legacy = RunDecodePass(
        coder, *dict, encoded, collection, DecodeMode::kLegacy, repeats);
    const DecodeResult fresh = RunDecodePass(
        coder, *dict, encoded, collection, DecodeMode::kFresh, repeats);
    const DecodeResult scratch = RunDecodePass(
        coder, *dict, encoded, collection, DecodeMode::kScratch, repeats);
    const double vs_legacy = scratch.mb_per_s / legacy.mb_per_s;
    const double fresh_vs_legacy = fresh.mb_per_s / legacy.mb_per_s;
    const std::string name = coder.coding().name();
    std::printf("%-7s %-8s %10.1f %12.0f %9.2f %9.2f %8s\n", name.c_str(),
                "legacy", legacy.mb_per_s, legacy.docs_per_s, legacy.p50_us,
                legacy.p99_us, "1.00x");
    std::printf("%-7s %-8s %10.1f %12.0f %9.2f %9.2f %7.2fx\n", name.c_str(),
                "fresh", fresh.mb_per_s, fresh.docs_per_s, fresh.p50_us,
                fresh.p99_us, fresh_vs_legacy);
    std::printf("%-7s %-8s %10.1f %12.0f %9.2f %9.2f %7.2fx\n", name.c_str(),
                "scratch", scratch.mb_per_s, scratch.docs_per_s,
                scratch.p50_us, scratch.p99_us, vs_legacy);

    json.append("    \"" + name + "\": {\n");
    AppendJsonDecode("legacy_baseline", legacy, &json);
    json.append(",\n");
    AppendJsonDecode("fresh", fresh, &json);
    json.append(",\n");
    AppendJsonDecode("scratch", scratch, &json);
    json.append(",\n");
    std::snprintf(buf, sizeof(buf),
                  "      \"scratch_vs_legacy\": %.2f,\n"
                  "      \"fresh_vs_legacy\": %.2f\n    }%s\n",
                  vs_legacy, fresh_vs_legacy, c + 1 < 2 ? "," : "");
    json.append(buf);

    for (size_t g = 0; g < 2; ++g) {
      if (name == kSmokeGates[g].coding) gate_ratios[g] = vs_legacy;
    }
    if (name == "ZV") split = RunZvStageSplit(coder, *dict, encoded, repeats);
  }
  json.append("  },\n");

  std::printf(
      "\nZV stages (us/doc): tables %.2f  symbols %.2f  crc %.2f  "
      "expand %.2f  = DecodeDoc %.2f\n",
      split.tables_us, split.symbols_us, split.crc_us, split.expand_us,
      split.total_us);
  std::snprintf(buf, sizeof(buf),
                "  \"zv_stages_us_per_doc\": {\"tables\": %.2f, "
                "\"symbols\": %.2f, \"crc\": %.2f, \"expand\": %.2f, "
                "\"decode_doc\": %.2f},\n",
                split.tables_us, split.symbols_us, split.crc_us,
                split.expand_us, split.total_us);
  json.append(buf);

  bool gate_pass = true;
  json.append("  \"gates\": [\n");
  for (size_t g = 0; g < 2; ++g) {
    const bool pass = gate_ratios[g] >= kSmokeGates[g].min_ratio;
    gate_pass = gate_pass && pass;
    std::snprintf(buf, sizeof(buf),
                  "    {\"coding\": \"%s\", \"min_ratio_required\": %.2f, "
                  "\"scratch_vs_legacy\": %.2f, \"pass\": %s},\n",
                  kSmokeGates[g].coding, kSmokeGates[g].min_ratio,
                  gate_ratios[g], pass ? "true" : "false");
    json.append(buf);
  }
  const bool factorize_pass = vs_refine >= factorize_min_ratio;
  gate_pass = gate_pass && factorize_pass;
  std::snprintf(buf, sizeof(buf),
                "    {\"path\": \"factorize\", \"min_ratio_required\": "
                "%.2f, \"vs_refine\": %.2f, \"pass\": %s}\n",
                factorize_min_ratio, vs_refine,
                factorize_pass ? "true" : "false");
  json.append(buf);
  json.append("  ]\n}\n");

  const Status write_status = WriteFile(out_path, json);
  RLZ_CHECK(write_status.ok()) << write_status.ToString();
  std::printf("\nwrote %s\n", out_path.c_str());

  if (smoke) {
    for (size_t g = 0; g < 2; ++g) {
      std::printf("smoke gate: %s scratch >= %.2fx legacy: %s (%.2fx)\n",
                  kSmokeGates[g].coding, kSmokeGates[g].min_ratio,
                  gate_ratios[g] >= kSmokeGates[g].min_ratio ? "PASS" : "FAIL",
                  gate_ratios[g]);
    }
    std::printf("smoke gate: factorize >= %.2fx Refine loop: %s (%.2fx)\n",
                factorize_min_ratio, factorize_pass ? "PASS" : "FAIL",
                vs_refine);
    if (!gate_pass) std::exit(1);
  }
}

}  // namespace
}  // namespace bench
}  // namespace rlz

int main(int argc, char** argv) {
  bool smoke = false;
  std::string out_path = "BENCH_hot_path.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_path = argv[++i];
    } else {
      std::fprintf(stderr, "usage: %s [--smoke] [--out FILE]\n", argv[0]);
      return 2;
    }
  }
  rlz::bench::Run(smoke, out_path);
  return 0;
}
