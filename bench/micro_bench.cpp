// Micro benchmarks (google-benchmark): throughput of the individual
// substrates — suffix-array construction, longest-match queries with and
// without the 4-byte prefix table (the starting-interval ablation of
// DESIGN.md §5.1), factorization, the general-purpose compressors, and the
// integer codecs.

#include <benchmark/benchmark.h>

#include <memory>
#include <string>
#include <vector>

#include "codecs/int_codecs.h"
#include "core/rlz.h"
#include "corpus/generator.h"
#include "suffix/suffix_array.h"
#include "util/random.h"
#include "zip/gzipx.h"
#include "zip/lzmax.h"

namespace {

using namespace rlz;

const Collection& BenchCollection() {
  static const Collection* collection = [] {
    CorpusOptions options;
    options.target_bytes = 4 << 20;
    options.seed = 1234;
    return new Collection(GenerateCorpus(options).collection);
  }();
  return *collection;
}

std::string DictText(size_t bytes) {
  const Collection& c = BenchCollection();
  return std::string(
      DictionaryBuilder::BuildSampled(c.data(), bytes, 1024)->text());
}

void BM_SuffixArrayBuild(benchmark::State& state) {
  const std::string text = DictText(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(BuildSuffixArray(text));
  }
  state.SetBytesProcessed(state.iterations() * text.size());
}
BENCHMARK(BM_SuffixArrayBuild)->Arg(64 << 10)->Arg(256 << 10)->Arg(1 << 20);

void BM_LongestMatch(benchmark::State& state) {
  const bool prefix_table = state.range(0) != 0;
  const std::string text = DictText(256 << 10);
  SuffixMatcher matcher(text, {}, prefix_table);
  const Collection& c = BenchCollection();
  const std::string_view doc = c.doc(0);
  size_t i = 0;
  for (auto _ : state) {
    const Match m = matcher.LongestMatch(doc.substr(i));
    benchmark::DoNotOptimize(m);
    i += m.len == 0 ? 1 : m.len;
    if (i >= doc.size()) i = 0;
  }
}
// prefix_table:0 starts every search from the whole SA.
BENCHMARK(BM_LongestMatch)->ArgName("prefix_table")->Arg(0)->Arg(1);

void BM_Factorize(benchmark::State& state) {
  const Collection& c = BenchCollection();
  Dictionary dict(DictText(static_cast<size_t>(state.range(0))));
  Factorizer factorizer(&dict);
  std::vector<Factor> factors;
  size_t doc = 0;
  uint64_t bytes = 0;
  for (auto _ : state) {
    factors.clear();
    factorizer.Factorize(c.doc(doc), &factors);
    bytes += c.doc(doc).size();
    doc = (doc + 1) % c.num_docs();
  }
  state.SetBytesProcessed(bytes);
}
BENCHMARK(BM_Factorize)->Arg(64 << 10)->Arg(256 << 10);

void BM_FactorDecode(benchmark::State& state) {
  const Collection& c = BenchCollection();
  RlzOptions options;
  options.dict_bytes = 128 << 10;
  const auto coding = PairCoding::FromName(
      state.range(0) == 0 ? "UV" : state.range(0) == 1 ? "ZV" : "ZZ");
  options.coding = coding.value();
  auto archive = CompressCollection(c, options);
  std::string doc;
  size_t id = 0;
  uint64_t bytes = 0;
  for (auto _ : state) {
    RLZ_CHECK(archive->Get(id, &doc, nullptr).ok());
    bytes += doc.size();
    id = (id + 1) % archive->num_docs();
  }
  state.SetBytesProcessed(bytes);
  state.SetLabel(options.coding.name());
}
BENCHMARK(BM_FactorDecode)->Arg(0)->Arg(1)->Arg(2);

void BM_Compress(benchmark::State& state) {
  const Collection& c = BenchCollection();
  const std::string input(c.data().substr(0, 1 << 20));
  const Compressor* compressor =
      GetCompressor(state.range(0) == 0 ? CompressorId::kGzipx
                                        : CompressorId::kLzmax);
  for (auto _ : state) {
    std::string out;
    compressor->Compress(input, &out);
    benchmark::DoNotOptimize(out);
  }
  state.SetBytesProcessed(state.iterations() * input.size());
  state.SetLabel(compressor->name());
}
BENCHMARK(BM_Compress)->Arg(0)->Arg(1);

void BM_Decompress(benchmark::State& state) {
  const Collection& c = BenchCollection();
  const std::string input(c.data().substr(0, 1 << 20));
  const Compressor* compressor =
      GetCompressor(state.range(0) == 0 ? CompressorId::kGzipx
                                        : CompressorId::kLzmax);
  std::string compressed;
  compressor->Compress(input, &compressed);
  for (auto _ : state) {
    std::string out;
    RLZ_CHECK(compressor->Decompress(compressed, &out).ok());
    benchmark::DoNotOptimize(out);
  }
  state.SetBytesProcessed(state.iterations() * input.size());
  state.SetLabel(compressor->name());
}
BENCHMARK(BM_Decompress)->Arg(0)->Arg(1);

std::vector<uint32_t> FactorLengthLikeValues(size_t n) {
  Rng rng(77);
  std::vector<uint32_t> values;
  values.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    values.push_back(rng.Bernoulli(0.95)
                         ? static_cast<uint32_t>(rng.Uniform(100))
                         : static_cast<uint32_t>(rng.Uniform(100000)));
  }
  return values;
}

void BM_IntCodecEncode(benchmark::State& state) {
  const IntCodec* codec = GetIntCodec(static_cast<IntCodecId>(state.range(0)));
  const auto values = FactorLengthLikeValues(64 << 10);
  for (auto _ : state) {
    std::string out;
    codec->Encode(values, &out);
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(state.iterations() * values.size());
  state.SetLabel(IntCodecName(codec->id()));
}
BENCHMARK(BM_IntCodecEncode)->Arg(0)->Arg(1)->Arg(2)->Arg(3);

void BM_IntCodecDecode(benchmark::State& state) {
  const IntCodec* codec = GetIntCodec(static_cast<IntCodecId>(state.range(0)));
  const auto values = FactorLengthLikeValues(64 << 10);
  std::string buf;
  codec->Encode(values, &buf);
  for (auto _ : state) {
    std::vector<uint32_t> out;
    size_t consumed = 0;
    RLZ_CHECK(codec->Decode(buf, values.size(), &out, &consumed).ok());
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(state.iterations() * values.size());
  state.SetLabel(IntCodecName(codec->id()));
}
BENCHMARK(BM_IntCodecDecode)->Arg(0)->Arg(1)->Arg(2)->Arg(3);

}  // namespace

BENCHMARK_MAIN();
