#include "bench_common.h"

#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <thread>

#include "build/build_pipeline.h"
#include "core/rlz.h"
#include "io/file.h"
#include "search/inverted_index.h"
#include "search/query_log.h"
#include "store/ascii_archive.h"
#include "store/blocked_archive.h"
#include "util/logging.h"
#include "util/timer.h"

namespace rlz {
namespace bench {

JsonWriter::JsonWriter(std::string_view bench, bool smoke) {
  Object({}, kLines).Str("bench", bench).Str("mode", smoke ? "smoke" : "full");
}

JsonWriter& JsonWriter::End() {
  const Level level = open_.back();
  open_.pop_back();
  if (level.lines && !level.empty) Newline();
  out_ += level.close;
  return *this;
}

JsonWriter& JsonWriter::Str(std::string_view key, std::string_view value) {
  std::string quoted = "\"";
  for (const char c : value) {
    if (c == '"' || c == '\\') quoted += '\\';
    quoted += c;
  }
  return Value(key, quoted + '"');
}

JsonWriter& JsonWriter::Num(std::string_view key, double value, int decimals) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", decimals, value);
  return Value(key, buf);
}

JsonWriter& JsonWriter::Host() {
  return Object("host")
      .Str("commit", RLZ_BENCH_COMMIT)
      .Str("compiler", __VERSION__)
      .Str("build_type", RLZ_BENCH_BUILD_TYPE)
      .Str("cxx_flags", RLZ_BENCH_CXX_FLAGS)
      .Int("hardware_concurrency", std::thread::hardware_concurrency())
      .Int("available_cpus", AvailableCpus())
      .End();
}

void JsonWriter::Write(const std::string& path) {
  End();
  RLZ_CHECK(open_.empty()) << "unclosed JSON container";
  const Status status = WriteFile(path, out_ + '\n');
  RLZ_CHECK(status.ok()) << status.ToString();
  std::printf("wrote %s\n", path.c_str());
}

JsonWriter& JsonWriter::Open(std::string_view key, char bracket,
                             Layout layout) {
  const bool lines = layout == kLines && (open_.empty() || open_.back().lines);
  Value(key, std::string_view(&bracket, 1));
  open_.push_back({bracket == '{' ? '}' : ']', lines});
  return *this;
}

JsonWriter& JsonWriter::Value(std::string_view key, std::string_view text) {
  if (!open_.empty()) {
    Level& level = open_.back();
    RLZ_CHECK_EQ(key.empty(), level.close == ']');  // keys name members
    if (!level.empty) out_ += level.lines ? "," : ", ";
    if (level.lines) Newline();
    level.empty = false;
    if (!key.empty()) out_.append("\"").append(key).append("\": ");
  }
  out_ += text;
  return *this;
}

void JsonWriter::Newline() {
  out_ += '\n';
  out_.append(2 * open_.size(), ' ');
}

Gates::Gates(bool enforced)
    : enforced_(enforced), wall_basis_(AvailableCpus() >= 4) {}

bool Gates::Check(bool pass, const char* format, ...) {
  if (!enforced_) return pass;
  va_list args;
  va_start(args, format);
  std::vprintf(format, args);
  va_end(args);
  std::printf(": %s\n", pass ? "PASS" : "FAIL");
  failed_ = failed_ || !pass;
  return pass;
}

double BenchScale() {
  static const double scale = [] {
    const char* env = std::getenv("RLZ_BENCH_SCALE");
    if (env == nullptr) return 1.0;
    const double v = std::atof(env);
    return v > 0.0 ? v : 1.0;
  }();
  return scale;
}

size_t Gov2Bytes() { return static_cast<size_t>(24.0 * BenchScale() * (1 << 20)); }
size_t WikiBytes() { return static_cast<size_t>(16.0 * BenchScale() * (1 << 20)); }

const Corpus& Gov2Crawl() {
  static const Corpus* corpus = [] {
    CorpusOptions options;
    options.style = CorpusStyle::kWeb;
    options.target_bytes = Gov2Bytes();
    options.seed = 426;
    return new Corpus(GenerateCorpus(options));
  }();
  return *corpus;
}

const Corpus& Gov2Url() {
  static const Corpus* corpus = new Corpus(SortByUrl(Gov2Crawl()));
  return *corpus;
}

const Corpus& WikiCrawl() {
  static const Corpus* corpus = [] {
    CorpusOptions options;
    options.style = CorpusStyle::kWiki;
    options.target_bytes = WikiBytes();
    options.seed = 256;
    return new Corpus(GenerateCorpus(options));
  }();
  return *corpus;
}

AccessPatterns MakePatterns(const Corpus& corpus) {
  AccessPatterns patterns;
  const size_t n = corpus.collection.num_docs();
  patterns.sequential = BuildSequentialPattern(n, n);

  const InvertedIndex index = InvertedIndex::Build(corpus.collection);
  QueryLogOptions qopts;
  qopts.num_queries = 400;
  qopts.top_k = 20;
  qopts.cap = 2000;
  qopts.seed = 20009;  // "topics 20,001-60,000" homage
  const auto queries = GenerateQueries(index, qopts);
  patterns.query_log = BuildQueryLogPattern(index, queries, qopts);
  RLZ_CHECK(!patterns.query_log.empty());
  return patterns;
}

namespace {

double ReplayPattern(const Archive& archive,
                     const std::vector<uint32_t>& pattern) {
  SimDisk disk;
  std::string doc;
  Timer timer;
  for (uint32_t id : pattern) {
    const Status s = archive.Get(id, &doc, &disk);
    RLZ_CHECK(s.ok()) << archive.name() << ": " << s.ToString();
  }
  const double cpu_seconds = timer.ElapsedSeconds();
  const double total = cpu_seconds + disk.total_seconds();
  return static_cast<double>(pattern.size()) / total;
}

}  // namespace

Measurement MeasureArchive(const Archive& archive,
                           const Collection& collection,
                           const AccessPatterns& patterns) {
  Measurement m;
  m.enc_pct = 100.0 * static_cast<double>(archive.stored_bytes()) /
              static_cast<double>(collection.size_bytes());
  m.sequential_dps = ReplayPattern(archive, patterns.sequential);
  m.query_log_dps = ReplayPattern(archive, patterns.query_log);
  return m;
}

void PrintTableTitle(const std::string& title, const Collection& collection) {
  std::printf("\n%s\n", title.c_str());
  std::printf("collection: %.1f MB, %zu docs, avg doc %.1f KB\n",
              collection.size_bytes() / 1048576.0, collection.num_docs(),
              collection.avg_doc_bytes() / 1024.0);
}

void PrintRlzHeader() {
  std::printf("%-10s %-8s %9s %12s %10s\n", "Size(GB~)", "Pos-Len", "Enc.(%)",
              "Sequential", "QueryLog");
}

void PrintRlzRow(const char* dict_label, const std::string& coding,
                 const Measurement& m) {
  std::printf("%-10s %-8s %9.2f %12.0f %10.0f\n", dict_label, coding.c_str(),
              m.enc_pct, m.sequential_dps, m.query_log_dps);
}

void PrintBaselineHeader() {
  std::printf("%-8s %-10s %9s %12s %10s\n", "Alg.", "Block(MB~)", "Enc.(%)",
              "Sequential", "QueryLog");
}

void PrintBaselineRow(const std::string& alg, const char* block_label,
                      const Measurement& m) {
  std::printf("%-8s %-10s %9.2f %12.0f %10.0f\n", alg.c_str(), block_label,
              m.enc_pct, m.sequential_dps, m.query_log_dps);
}

void RunRlzTable(const std::string& title, const Corpus& corpus) {
  const Collection& collection = corpus.collection;
  PrintTableTitle(title, collection);
  const AccessPatterns patterns = MakePatterns(corpus);

  // Factorize once per dictionary; encode under each coding.
  struct DictData {
    std::shared_ptr<const Dictionary> dict;
    std::vector<std::vector<Factor>> factors;
  };
  std::vector<DictData> dicts;
  for (const DictRow& row : kDictRows) {
    DictData data;
    data.dict = DictionaryBuilder::BuildSampled(
        collection.data(),
        static_cast<size_t>(row.fraction * collection.size_bytes()), 1024);
    Factorizer factorizer(data.dict.get());
    data.factors.resize(collection.num_docs());
    for (size_t i = 0; i < collection.num_docs(); ++i) {
      factorizer.Factorize(collection.doc(i), &data.factors[i]);
    }
    dicts.push_back(std::move(data));
  }

  PrintRlzHeader();
  for (const PairCoding coding : {kZZ, kZV, kUZ, kUV}) {
    for (size_t d = 0; d < dicts.size(); ++d) {
      auto archive = RlzArchive::BuildFromFactors(dicts[d].dict,
                                                  dicts[d].factors, coding);
      const Measurement m = MeasureArchive(*archive, collection, patterns);
      PrintRlzRow(kDictRows[d].label, coding.name(), m);
    }
  }
}

void RunBaselineTable(const std::string& title, const Corpus& corpus) {
  const Collection& collection = corpus.collection;
  PrintTableTitle(title, collection);
  const AccessPatterns patterns = MakePatterns(corpus);

  PrintBaselineHeader();
  {
    const AsciiArchive ascii(collection);
    PrintBaselineRow("ascii", "-", MeasureArchive(ascii, collection, patterns));
  }
  for (const CompressorId id : {CompressorId::kGzipx, CompressorId::kLzmax}) {
    const Compressor* compressor = GetCompressor(id);
    for (const BlockRow& row : kBlockRows) {
      const BlockedArchive archive(collection, compressor, row.bytes);
      PrintBaselineRow(compressor->name(), row.label,
                       MeasureArchive(archive, collection, patterns));
    }
  }
}

void RunFactorStatsTable(const std::string& title, const Corpus& corpus) {
  const Collection& collection = corpus.collection;
  PrintTableTitle(title, collection);
  std::printf("%-10s %-10s %10s %10s\n", "Size(GB~)", "Samp.(KB)", "Avg.Fact.",
              "Unused(%)");
  for (const DictRow& row : kDictRows) {
    for (const double sample_kb : {0.5, 1.0, 2.0, 5.0}) {
      auto dict = DictionaryBuilder::BuildSampled(
          collection.data(),
          static_cast<size_t>(row.fraction * collection.size_bytes()),
          static_cast<size_t>(sample_kb * 1024));
      Factorizer factorizer(dict.get(), /*track_coverage=*/true);
      std::vector<Factor> factors;
      for (size_t i = 0; i < collection.num_docs(); ++i) {
        factors.clear();
        factorizer.Factorize(collection.doc(i), &factors);
      }
      std::printf("%-10s %-10.1f %10.2f %10.2f\n", row.label, sample_kb,
                  factorizer.stats().avg_factor_length(),
                  100.0 * factorizer.UnusedFraction());
    }
  }
}

}  // namespace bench
}  // namespace rlz
