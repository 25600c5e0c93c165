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
// loop the matcher used before its whole-pattern search, splits a seal's
// CPU time into factorize, gzipx and the rest of ZV encode plus the
// dictionary's suffix-array build (`seal`, recorded, not gated), and
// splits ZV decode into its stages (code-length read plus table build,
// symbol loop, CRC, vbyte plus copy expansion).
// Serving throughput through DocService is serve_load_bench's job.
// Results are printed and written as machine-readable JSON (default
// BENCH_hot_path.json in the working directory) so the repo's perf
// trajectory is recorded and regression-gated.
//
//   ./build/bench/hot_path_bench                full run
//   ./build/bench/hot_path_bench --smoke       small corpus + gate: the
//         scratch path must beat the fresh-allocation (legacy) baseline
//         on decode speed by kSmokeGates' ratio for each of UV and ZV, and
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
#include "suffix/suffix_array.h"
#include "corpus/generator.h"
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
// replica inflates the position stream with the same gzipx kernels and
// CRC, so a faster kernel speeds both sides and the ratio moves only with
// the share of decode time the kernels take: 1.17-1.42 with the bytewise
// CRC and per-symbol table fill of the earliest kernels, 1.51-1.78 with
// the slicing-by-8 CRC, 1.64-1.68 with the carry-less-multiply CRC (smoke
// runs on a 4-vCPU Xeon VM; full runs read 1.41-1.52 and 1.55-1.60). The
// ZV gate sits above the earliest kernels' range, so it fails if the
// kernels slow back down. A ratio is the median over rounds of one legacy
// and one scratch pass run back to back (RunDecodeSweep), so host noise
// moves both sides of each ratio alike.
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
  return BestOf(repeats, [&] {
    for (size_t i = 0; i < collection.num_docs(); ++i) {
      (*docs)[i].clear();
      parse(collection.doc(i), &(*docs)[i]);
    }
  });
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

// One configuration's decode pass: sweeps over every document until
// `min_seconds` elapse and returns the seconds per sweep; the last
// sweep's per-document latencies land in `latencies_us`. Every decoded
// document is byte-compared against the source collection.
double TimeDecodePass(const FactorCoder& coder, const Dictionary& dict,
                      const std::vector<std::string>& encoded,
                      const Collection& collection, DecodeMode mode,
                      double min_seconds, DecodeScratch* scratch,
                      std::vector<double>* latencies_us) {
  const size_t n = encoded.size();
  int sweeps = 0;
  Timer pass;
  do {
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
          status = coder.DecodeDoc(encoded[i], dict, &doc, scratch);
          break;
      }
      (*latencies_us)[i] = 1e6 * one.ElapsedSeconds();
      RLZ_CHECK(status.ok()) << status.ToString();
      RLZ_CHECK(doc == collection.doc(i)) << "decode mismatch at doc " << i;
    }
    ++sweeps;
  } while (pass.ElapsedSeconds() < min_seconds);
  return pass.ElapsedSeconds() / sweeps;
}

// The three configurations of one coding, with the two ratios to legacy.
struct DecodeSweep {
  DecodeResult legacy;
  DecodeResult fresh;
  DecodeResult scratch;
  double scratch_vs_legacy = 0.0;
  double fresh_vs_legacy = 0.0;
};

// Runs `repeats` rounds of one legacy, one fresh and one scratch pass,
// back to back, so the passes a ratio compares meet the same host
// conditions. Throughput is best-of-repeats (the standard microbench
// convention); each ratio is the median of its per-round ratios; latency
// percentiles come from the last round.
DecodeSweep RunDecodeSweep(const FactorCoder& coder, const Dictionary& dict,
                           const std::vector<std::string>& encoded,
                           const Collection& collection, int repeats,
                           double min_pass_seconds) {
  constexpr DecodeMode kModes[] = {DecodeMode::kLegacy, DecodeMode::kFresh,
                                   DecodeMode::kScratch};
  const size_t n = encoded.size();
  DecodeScratch scratch;
  std::vector<std::vector<double>> latencies_us(3, std::vector<double>(n));
  std::vector<std::vector<double>> seconds(3);
  for (int r = 0; r < repeats; ++r) {
    for (size_t m = 0; m < 3; ++m) {
      seconds[m].push_back(TimeDecodePass(coder, dict, encoded, collection,
                                          kModes[m], min_pass_seconds,
                                          &scratch, &latencies_us[m]));
    }
  }
  auto result = [&](size_t m) {
    const double best = *std::min_element(seconds[m].begin(),
                                          seconds[m].end());
    DecodeResult out;
    out.mb_per_s = collection.size_bytes() / (1024.0 * 1024.0) / best;
    out.docs_per_s = static_cast<double>(n) / best;
    std::vector<double>& lat = latencies_us[m];
    std::sort(lat.begin(), lat.end());
    out.p50_us = lat[n / 2];
    out.p99_us = lat[std::min(n - 1, n * 99 / 100)];
    return out;
  };
  auto median_ratio = [&](size_t m) {
    std::vector<double> ratios;
    for (int r = 0; r < repeats; ++r) {
      ratios.push_back(seconds[0][r] / seconds[m][r]);
    }
    std::sort(ratios.begin(), ratios.end());
    return ratios[ratios.size() / 2];
  };
  DecodeSweep sweep;
  sweep.legacy = result(0);
  sweep.fresh = result(1);
  sweep.scratch = result(2);
  sweep.fresh_vs_legacy = median_ratio(1);
  sweep.scratch_vs_legacy = median_ratio(2);
  return sweep;
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
  // Best-of-repeats microseconds per document of a pass of `body`.
  auto best = [&](auto&& body) {
    const double seconds = BestOf(repeats, [&] {
      for (size_t i = 0; i < n; ++i) body(i);
    });
    return 1e6 * seconds / static_cast<double>(n);
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

// One decode configuration's figures as an inline JSON object.
void DecodeJson(JsonWriter& json, const char* name, const DecodeResult& r) {
  json.Object(name)
      .Num("mb_per_s", r.mb_per_s, 1)
      .Num("docs_per_s", r.docs_per_s, 0)
      .Num("p50_us", r.p50_us, 2)
      .Num("p99_us", r.p99_us, 2)
      .End();
}

// A seal's CPU split, in ms per MiB of document text: factorize against
// the append dictionary, gzipx over the position streams, and the rest of
// ZV encode (gathering the streams, U32 and vbyte coding, framing); plus
// the dictionary's suffix-array build.
struct SealSplit {
  size_t dict_bytes = 0;
  uint64_t doc_bytes = 0;
  double doc_mib = 0.0;
  double avg_factor_len = 0.0;
  double factorize_ms = 0.0;
  double gzipx_ms = 0.0;
  double other_ms = 0.0;
  double sa_build_ms = 0.0;
  uint64_t encoded_bytes = 0;
};

// The seal's shape: documents of a second corpus (seed + 1) against a
// 170 KB dictionary sampled from `collection` with match keys, as
// perfbench's page_cold store seals its first appended tail against the
// build-time append dictionary (later seals refresh it). Factors average
// about 5.4 B, so the per-factor fixed costs dominate: the search's, and
// gzipx's per-stream ones.
SealSplit RunSealSplit(const Collection& collection,
                       const CorpusOptions& corpus_options, int repeats) {
  constexpr size_t kSealDictBytes = 171000;
  std::unique_ptr<Dictionary> dict = DictionaryBuilder::BuildSampled(
      collection.data(), kSealDictBytes, 1024);
  dict->UseMatchKeys();  // as the store's append dictionary
  dict->matcher();       // built on first use: outside the timed loops
  CorpusOptions doc_options = corpus_options;
  doc_options.seed = corpus_options.seed + 1;
  const Collection docs = GenerateCorpus(doc_options).collection;

  SealSplit split;
  split.dict_bytes = dict->size();
  split.doc_bytes = docs.size_bytes();
  split.doc_mib = split.doc_bytes / (1024.0 * 1024.0);
  split.sa_build_ms = 1e3 * BestOf(repeats, [&] {
    RLZ_CHECK_EQ(BuildSuffixArray(dict->text()).size(), dict->size());
  });

  std::vector<std::vector<Factor>> factors(docs.num_docs());
  Factorizer factorizer(dict.get());
  const double factorize_s = BestOf(repeats, [&] {
    for (size_t i = 0; i < docs.num_docs(); ++i) {
      factors[i].clear();
      factorizer.Factorize(docs.doc(i), &factors[i]);
    }
  });
  split.avg_factor_len = factorizer.stats().avg_factor_length();

  const FactorCoder zv_coder(kZV);
  std::vector<std::string> encoded(docs.num_docs());
  const double encode_s = BestOf(repeats, [&] {
    for (size_t i = 0; i < docs.num_docs(); ++i) {
      encoded[i].clear();
      RLZ_CHECK(zv_coder.EncodeDoc(factors[i], &encoded[i]).ok());
    }
  });
  for (const std::string& e : encoded) split.encoded_bytes += e.size();

  // EncodeDoc's gzipx call on the same position streams, with the
  // factor coder's options.
  std::vector<std::string> raw(docs.num_docs());
  for (size_t i = 0; i < docs.num_docs(); ++i) {
    std::vector<uint32_t> positions;
    for (const Factor& f : factors[i]) positions.push_back(f.pos);
    GetIntCodec(IntCodecId::kU32)->Encode(positions, &raw[i]);
  }
  const GzipxCompressor gzipx(
      GzipxOptions{.max_chain = 512, .nice_length = 258, .lazy = true});
  std::string z;
  const double gzipx_s = BestOf(repeats, [&] {
    for (const std::string& r : raw) {
      z.clear();
      gzipx.Compress(r, &z);
    }
  });

  split.factorize_ms = 1e3 * factorize_s / split.doc_mib;
  split.gzipx_ms = 1e3 * gzipx_s / split.doc_mib;
  split.other_ms = 1e3 * std::max(0.0, encode_s - gzipx_s) / split.doc_mib;
  return split;
}

int Run(bool smoke, const std::string& out_path) {
  CorpusOptions corpus_options;
  corpus_options.target_bytes = smoke ? (4u << 20) : (16u << 20);
  corpus_options.seed = 20110613;
  const Corpus corpus = GenerateCorpus(corpus_options);
  const Collection& collection = corpus.collection;
  const double corpus_mb = collection.size_bytes() / (1024.0 * 1024.0);
  const int repeats = smoke ? 3 : 5;
  // A decode pass sweeps the corpus for at least this long (ten or more
  // sweeps of the full corpus), so one pass absorbs the host's
  // millisecond-scale noise instead of sampling it.
  const double min_pass_seconds = smoke ? 0.1 : 0.25;

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

  const SealSplit seal = RunSealSplit(collection, corpus_options, repeats);
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
      "seal (%.1f MiB against a %zu B dictionary with match keys, avg "
      "factor %.1f): factorize %.1f + gzipx %.1f + other %.1f = %.1f ms/MiB; "
      "suffix array %.2f ms\n",
      seal.doc_mib, seal.dict_bytes, seal.avg_factor_len, seal.factorize_ms,
      seal.gzipx_ms, seal.other_ms,
      seal.factorize_ms + seal.gzipx_ms + seal.other_ms, seal.sa_build_ms);

  JsonWriter json("hot_path", smoke);
  json.Host();
  json.Object("corpus")
      .Int("docs", collection.num_docs())
      .Int("bytes", collection.size_bytes())
      .Int("dict_bytes", dict->size())
      .Int("seed", corpus_options.seed)
      .End();
  json.Object("factorize")
      .Num("mb_per_s", factorize_mb_per_s, 1)
      .Num("seconds", factorize_seconds, 3)
      .Object("refine_baseline")
      .Num("mb_per_s", refine_mb_per_s, 1)
      .Num("seconds", refine_seconds, 3)
      .End()
      .Num("vs_refine", vs_refine, 2)
      .End();
  json.Object("seal")
      .Int("doc_bytes", seal.doc_bytes)
      .Int("dict_bytes", seal.dict_bytes)
      .Bool("match_keys", true)
      .Num("avg_factor_len", seal.avg_factor_len, 1)
      .Object("ms_per_mib")
      .Num("factorize", seal.factorize_ms, 2)
      .Num("gzipx", seal.gzipx_ms, 2)
      .Num("other", seal.other_ms, 2)
      .Num("total", seal.factorize_ms + seal.gzipx_ms + seal.other_ms, 2)
      .End()
      .Int("encoded_bytes", seal.encoded_bytes)
      .Num("sa_build_ms", seal.sa_build_ms, 2)
      .End();
  // The one-time "before" record: the real pre-scratch FactorCoder
  // measured from a pristine build of commit d02bb1b on the reference
  // host (full 16 MB corpus). Emitted as constants so regenerating the
  // checked-in BENCH_hot_path.json cannot lose the trajectory's origin;
  // the re-measurable stand-in on the current host is
  // decode.*.legacy_baseline.
  json.Object("pre_pr_baseline", JsonWriter::kLines)
      .Str("comment",
           "Measured once at PR 5 from a pristine build of commit d02bb1b "
           "(the pre-PR tree) on the reference host, full 16 MB corpus, via "
           "the real pre-PR FactorCoder::DecodeDoc. Constants emitted by "
           "hot_path_bench; the re-measurable stand-in is "
           "decode.*.legacy_baseline.")
      .Num("factorize_mb_per_s", 50.7, 1)
      .Object("decode", JsonWriter::kLines);
  DecodeJson(json, "ZV", {445.1, 24840, 36.78, 77.11});
  DecodeJson(json, "UV", {1536.2, 85731, 9.72, 25.77});
  json.End().End();
  json.Object("decode", JsonWriter::kLines);

  // The decode sweep: the paper's recommended pair (ZV) and the
  // fastest-decode pair (UV), legacy vs fresh vs scratch.
  double gate_ratios[2] = {0.0, 0.0};  // per kSmokeGates entry
  StageSplit split;
  std::printf("\n%-7s %-8s %10s %12s %9s %9s %8s\n", "coding", "path",
              "MB/s", "docs/s", "p50 us", "p99 us", "vs base");
  for (const PairCoding coding : {kZV, kUV}) {
    const FactorCoder coder(coding);
    std::vector<std::string> encoded(collection.num_docs());
    for (size_t i = 0; i < collection.num_docs(); ++i) {
      RLZ_CHECK(coder.EncodeDoc(docs[i], &encoded[i]).ok());
    }
    const DecodeSweep sweep = RunDecodeSweep(coder, *dict, encoded,
                                             collection, repeats,
                                             min_pass_seconds);
    const std::string name = coder.coding().name();
    const auto print = [&](const char* path, const DecodeResult& r,
                           double vs_legacy) {
      std::printf("%-7s %-8s %10.1f %12.0f %9.2f %9.2f %7.2fx\n",
                  name.c_str(), path, r.mb_per_s, r.docs_per_s, r.p50_us,
                  r.p99_us, vs_legacy);
    };
    print("legacy", sweep.legacy, 1.0);
    print("fresh", sweep.fresh, sweep.fresh_vs_legacy);
    print("scratch", sweep.scratch, sweep.scratch_vs_legacy);

    json.Object(name, JsonWriter::kLines);
    DecodeJson(json, "legacy_baseline", sweep.legacy);
    DecodeJson(json, "fresh", sweep.fresh);
    DecodeJson(json, "scratch", sweep.scratch);
    json.Num("scratch_vs_legacy", sweep.scratch_vs_legacy, 2)
        .Num("fresh_vs_legacy", sweep.fresh_vs_legacy, 2)
        .End();

    for (size_t g = 0; g < 2; ++g) {
      if (name == kSmokeGates[g].coding) {
        gate_ratios[g] = sweep.scratch_vs_legacy;
      }
    }
    if (name == "ZV") split = RunZvStageSplit(coder, *dict, encoded, repeats);
  }
  json.End();

  std::printf(
      "\nZV stages (us/doc): tables %.2f  symbols %.2f  crc %.2f  "
      "expand %.2f  = DecodeDoc %.2f\n",
      split.tables_us, split.symbols_us, split.crc_us, split.expand_us,
      split.total_us);
  json.Object("zv_stages_us_per_doc")
      .Num("tables", split.tables_us, 2)
      .Num("symbols", split.symbols_us, 2)
      .Num("crc", split.crc_us, 2)
      .Num("expand", split.expand_us, 2)
      .Num("decode_doc", split.total_us, 2)
      .End();

  Gates gates(smoke);
  json.Array("gates", JsonWriter::kLines);
  for (size_t g = 0; g < 2; ++g) {
    const SmokeGate& gate = kSmokeGates[g];
    json.Object()
        .Str("coding", gate.coding)
        .Num("min_ratio_required", gate.min_ratio, 2)
        .Num("scratch_vs_legacy", gate_ratios[g], 2)
        .Bool("pass", gates.Check(gate_ratios[g] >= gate.min_ratio,
                                  "smoke gate: %s scratch >= %.2fx legacy "
                                  "(%.2fx)",
                                  gate.coding, gate.min_ratio, gate_ratios[g]))
        .End();
  }
  json.Object()
      .Str("path", "factorize")
      .Num("min_ratio_required", factorize_min_ratio, 2)
      .Num("vs_refine", vs_refine, 2)
      .Bool("pass", gates.Check(vs_refine >= factorize_min_ratio,
                                "smoke gate: factorize >= %.2fx Refine loop "
                                "(%.2fx)",
                                factorize_min_ratio, vs_refine))
      .End();
  json.End();
  json.Write(out_path);
  return gates.ExitCode();
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
  return rlz::bench::Run(smoke, out_path);
}
