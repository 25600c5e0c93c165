#ifndef PERFBENCH_COMMON_H_
#define PERFBENCH_COMMON_H_

// Shared helpers of the benchmark: the clock, order statistics, the
// document table every response is checked against, and the request
// shapes the load generators send.

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string_view>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          Clock::now().time_since_epoch())
          .count());
}

// Value at quantile q of `v` (nearest rank on the sorted copy); 0 when
// empty.
template <typename T>
double Quantile(std::vector<T> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  size_t rank = static_cast<size_t>(q * static_cast<double>(v.size()));
  if (rank >= v.size()) rank = v.size() - 1;
  return static_cast<double>(v[rank]);
}

template <typename T>
double Median(const std::vector<T>& v) {
  return Quantile(v, 0.5);
}

// Share of the CPU time of `cpus` the hypervisor stole, that is gave to
// other guests ("steal" in /proc/stat), between two calls to Lap; all CPUs
// when `cpus` is empty. 0 when unknown.
class StealMeter {
 public:
  explicit StealMeter(std::vector<int> cpus)
      : cpus_(std::move(cpus)), last_(Ticks()) {}

  double Lap() {
    const std::pair<uint64_t, uint64_t> now = Ticks();
    const uint64_t total = now.second - last_.second;
    const double share =
        total ? double(now.first - last_.first) / double(total) : 0.0;
    last_ = now;
    return share;
  }

 private:
  // Steal ticks and all ticks, summed over the watched CPUs: the "cpu"
  // line of /proc/stat (every CPU) or the "cpuN" lines.
  std::pair<uint64_t, uint64_t> Ticks() const {
    FILE* f = std::fopen("/proc/stat", "r");
    if (f == nullptr) return {0, 0};
    uint64_t steal = 0, total = 0;
    char name[16];
    uint64_t v[8];
    while (std::fscanf(f, "%15s %" SCNu64 " %" SCNu64 " %" SCNu64 " %" SCNu64
                          " %" SCNu64 " %" SCNu64 " %" SCNu64 " %" SCNu64
                          "%*[^\n]",
                       name, &v[0], &v[1], &v[2], &v[3], &v[4], &v[5], &v[6],
                       &v[7]) == 9 &&
           std::strncmp(name, "cpu", 3) == 0) {
      const bool watched =
          cpus_.empty() ? name[3] == '\0'
                        : name[3] != '\0' &&
                              std::find(cpus_.begin(), cpus_.end(),
                                        std::atoi(name + 3)) != cpus_.end();
      if (!watched) continue;
      steal += v[7];
      for (uint64_t x : v) total += x;
    }
    std::fclose(f);
    return {steal, total};
  }

  std::vector<int> cpus_;
  std::pair<uint64_t, uint64_t> last_;
};

// The samples `candidates` indexes, in order, whose steal[i] is at most
// that of the share `keep` (rounded up) that ran with the least: all of
// them when none was stolen. A busy neighbour on a shared host then moves
// a median over the kept samples only when it was busy during more than
// the other 1 - keep of them.
inline std::vector<size_t> Quietest(const std::vector<size_t>& candidates,
                                    const std::vector<double>& steal,
                                    double keep) {
  if (candidates.empty()) return {};
  std::vector<double> sorted;
  for (size_t i : candidates) sorted.push_back(steal[i]);
  std::sort(sorted.begin(), sorted.end());
  const size_t n = static_cast<size_t>(std::ceil(sorted.size() * keep));
  const double cutoff =
      sorted[std::min(std::max<size_t>(n, 1), sorted.size()) - 1];
  std::vector<size_t> kept;
  for (size_t i : candidates) {
    if (steal[i] <= cutoff) kept.push_back(i);
  }
  return kept;
}

// Median of values[i] over the quieter half of all samples (Quietest).
inline double QuietMedian(const std::vector<double>& values,
                          const std::vector<double>& steal) {
  std::vector<size_t> all(values.size());
  for (size_t i = 0; i < all.size(); ++i) all[i] = i;
  std::vector<double> kept;
  for (size_t i : Quietest(all, steal, 0.5)) kept.push_back(values[i]);
  return Median(kept);
}

// Expected bytes of every document id the run creates: the base corpus,
// then every append in id order.
struct DocTable {
  std::vector<std::string_view> docs;
  std::vector<char> deleted;  // base ids the write phase deletes
};

// One read request as it goes on the wire: a 400 B GetRange snippet or a
// MultiGet page of whole documents.
struct Request {
  static constexpr int kMaxIds = 4;
  bool is_range = false;
  int count = 1;
  uint64_t ids[kMaxIds] = {};
  uint64_t offset = 0;  // ranges only
  uint64_t length = 0;  // ranges only
};

// Layer boundaries a span can be recorded at, outermost first.
enum Layer { kNet = 0, kServe = 1, kStore = 2, kCore = 3 };

// A span recorded at a layer boundary. `id` is the request index within
// its stream and `item` the document within the request (-1: the whole
// request), so the spans of one request at different layers pair up: a
// span's parent is the span of the layer above with the same id (and item,
// when the parent has one). `leaf` marks a span that did not call down —
// a decode-cache hit in the serving layer.
struct Span {
  uint64_t id = 0;
  int item = -1;
  int layer = kNet;
  bool leaf = false;
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
};

}  // namespace perfbench

#endif  // PERFBENCH_COMMON_H_
