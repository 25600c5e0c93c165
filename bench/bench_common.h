#ifndef RLZ_BENCH_BENCH_COMMON_H_
#define RLZ_BENCH_BENCH_COMMON_H_

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "corpus/generator.h"
#include "store/archive.h"
#include "util/timer.h"

namespace rlz {
namespace bench {

/// Writes one BENCH_*.json document, member by member. A container opens
/// on its own lines (kLines: one member per line, two spaces of indent per
/// level) or inline; everything inside an inline container is inline. An
/// object's members take a key, an array's elements an empty one. Strings
/// escape only '"' and '\\'; a double prints with its field's decimals.
class JsonWriter {
 public:
  enum Layout { kInline, kLines };

  /// Opens the document with the "bench" and "mode" members.
  JsonWriter(std::string_view bench, bool smoke);

  JsonWriter& Object(std::string_view key = {}, Layout layout = kInline) {
    return Open(key, '{', layout);
  }
  JsonWriter& Array(std::string_view key, Layout layout = kInline) {
    return Open(key, '[', layout);
  }
  /// Closes the innermost open object or array.
  JsonWriter& End();

  JsonWriter& Str(std::string_view key, std::string_view value);
  JsonWriter& Bool(std::string_view key, bool value) {
    return Value(key, value ? "true" : "false");
  }
  JsonWriter& Num(std::string_view key, double value, int decimals);
  template <typename T, typename = std::enable_if_t<std::is_integral_v<T>>>
  JsonWriter& Int(std::string_view key, T value) {
    return Value(key, std::to_string(value));
  }

  /// The "host" member: the commit the build was configured at ("unknown"
  /// outside a git checkout; "-dirty" if the tree differed), compiler,
  /// build type, C++ flags, hardware threads and AvailableCpus.
  JsonWriter& Host();

  /// Closes the document, writes it to `path` and prints "wrote <path>".
  void Write(const std::string& path);

 private:
  JsonWriter& Open(std::string_view key, char bracket, Layout layout);
  JsonWriter& Value(std::string_view key, std::string_view text);
  void Newline();

  struct Level {
    char close;
    bool lines;
    bool empty = true;
  };
  std::string out_;
  std::vector<Level> open_;
};

/// The best of `repeats` (at least one) calls of `run`: the earliest
/// result no later one beats, where `better(a, b)` says a beats b (the
/// default keeps the lowest, as for seconds). Host noise only ever slows
/// a run down. A `run` that returns nothing is timed: the result is its
/// lowest wall seconds.
template <typename Run, typename Better = std::less<>>
auto BestOf(int repeats, Run run, Better better = {}) {
  if constexpr (std::is_void_v<decltype(run())>) {
    return BestOf(repeats, [&] {
      Timer timer;
      run();
      return timer.ElapsedSeconds();
    });
  } else {
    auto best = run();
    for (int r = 1; r < repeats; ++r) {
      auto next = run();
      if (better(next, best)) best = std::move(next);
    }
    return best;
  }
}

/// A bench's gates. When enforced (in a smoke run, say), Check prints one
/// line per gate ending in PASS or FAIL, and ExitCode is 1 once one
/// failed; otherwise Check only returns the verdict for the JSON record.
/// Throughput gates compare on
/// wall-clock rates when this process may run on 4 or more CPUs
/// (AvailableCpus), else on the busiest worker's thread-CPU rates, since
/// wall scaling is physically impossible there.
class Gates {
 public:
  explicit Gates(bool enforced);

  const char* basis() const { return wall_basis_ ? "wall" : "cpu"; }
  double Pick(double wall_rate, double cpu_rate) const {
    return wall_basis_ ? wall_rate : cpu_rate;
  }
  /// Returns `pass`; if enforced, first prints the printf-formatted gate
  /// and ": PASS" or ": FAIL".
  bool Check(bool pass, const char* format, ...)
      __attribute__((format(printf, 3, 4)));
  int ExitCode() const { return failed_ ? 1 : 0; }

 private:
  bool enforced_;
  bool wall_basis_;
  bool failed_ = false;
};

/// Scaled-down stand-ins for the paper's corpora (DESIGN.md §3/§4):
/// gov2s ~ 24 MB web crawl (GOV2 426 GB), wikis ~ 16 MB encyclopedia
/// (Wikipedia 256 GB). Override the scale with RLZ_BENCH_SCALE (e.g. 4.0
/// grows both 4x). Generated once per process and cached.
double BenchScale();
size_t Gov2Bytes();
size_t WikiBytes();

const Corpus& Gov2Crawl();
const Corpus& Gov2Url();
const Corpus& WikiCrawl();

/// Dictionary sizes standing in for the paper's 2.0 / 1.0 / 0.5 GB rows:
/// 2%, 1%, 0.5% of the collection (the paper's ratios are 0.47%/0.23%/0.12%
/// of 426 GB; at megabyte scale the ratio is doubled so absolute dictionary
/// sizes stay meaningful — see EXPERIMENTS.md "Scaling").
struct DictRow {
  const char* label;  // "2.0", "1.0", "0.5" (paper's GB labels)
  double fraction;    // of collection size
};
inline constexpr DictRow kDictRows[] = {
    {"2.0", 0.02}, {"1.0", 0.01}, {"0.5", 0.005}};

/// Paper block-size rows 0.0/0.1/0.2/0.5/1.0 MB, used verbatim: document
/// sizes are unscaled (18/45 KB averages as in the paper), so the
/// docs-per-block ratios match the paper exactly.
struct BlockRow {
  const char* label;  // paper MB label
  uint64_t bytes;     // 0 = one doc per block
};
inline constexpr BlockRow kBlockRows[] = {{"0.0", 0},
                                          {"0.1", 100 << 10},
                                          {"0.2", 200 << 10},
                                          {"0.5", 500 << 10},
                                          {"1.0", 1 << 20}};

/// The two access patterns of §4 "Method".
struct AccessPatterns {
  std::vector<uint32_t> sequential;
  std::vector<uint32_t> query_log;
};

/// Builds both patterns for `corpus`: a full sequential scan and a
/// BM25-ranked query-log pattern (top-20 per query, capped).
AccessPatterns MakePatterns(const Corpus& corpus);

/// One measured archive configuration (a row of Tables 4-9).
struct Measurement {
  double enc_pct = 0.0;       // stored bytes / collection bytes * 100
  double sequential_dps = 0;  // docs/sec in simulated wall time
  double query_log_dps = 0;
};

/// Replays both patterns against `archive`, charging reads to a fresh
/// SimDisk per pattern and adding measured CPU time (see DESIGN.md §4).
Measurement MeasureArchive(const Archive& archive,
                           const Collection& collection,
                           const AccessPatterns& patterns);

/// Table-row printing helpers (fixed-width, paper-like).
void PrintTableTitle(const std::string& title, const Collection& collection);
void PrintRlzHeader();
void PrintRlzRow(const char* dict_label, const std::string& coding,
                 const Measurement& m);
void PrintBaselineHeader();
void PrintBaselineRow(const std::string& alg, const char* block_label,
                      const Measurement& m);

/// Runs a full RLZ table (Tables 4/5/8): {2.0,1.0,0.5} dictionary rows x
/// {ZZ,ZV,UZ,UV} codings, one factorization pass per dictionary.
void RunRlzTable(const std::string& title, const Corpus& corpus);

/// Runs a full baseline table (Tables 6/7/9): ascii plus gzipx/lzmax at
/// every block-size row.
void RunBaselineTable(const std::string& title, const Corpus& corpus);

/// Runs a factor-statistics grid (Tables 2/3): dictionary size x sample
/// size -> average factor length and unused-dictionary percentage.
void RunFactorStatsTable(const std::string& title, const Corpus& corpus);

}  // namespace bench
}  // namespace rlz

#endif  // RLZ_BENCH_BENCH_COMMON_H_
