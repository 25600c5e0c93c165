#ifndef PERFBENCH_LOAD_H_
#define PERFBENCH_LOAD_H_

// Load generators that drive a DocServer over loopback TCP and check
// every response byte against the DocTable.

#include <algorithm>
#include <cstdint>
#include <functional>
#include <vector>

#include "common.h"
#include "util/histogram.h"
#include "util/random.h"

namespace perfbench {

// Draws the next request of a seeded stream.
using RequestGen = std::function<Request(rlz::Rng&)>;

// Latencies in nanoseconds, log-linear buckets (at most 1/16 relative
// error). Fixed size, so the benchmark's own memory does not grow with
// the throughput it measures.
using Histogram = rlz::LatencyHistogram::Snapshot;

// What one load phase measured. Latencies land in fixed-length windows
// by completion time, so each metric can be reported as the median over
// windows (robust to a single stall) with the sample count behind it.
struct LoadResult {
  double window_seconds = 0;
  std::vector<Histogram> latency;  // per window; total = requests completed
  std::vector<double> steal_share;  // per window, see StealMeter
  uint64_t attempted = 0;
  uint64_t failed = 0;  // error codes, refusals and wrong bytes
  // Requests completed inside traced windows (odd windows when tracing).
  std::vector<Span> spans;
};

// True when `text` equals bytes [offset, offset+length) of the document
// (clamped to its end), the contract of GetRange.
bool RangeMatches(const DocTable& table, const Request& r,
                  std::string_view text);

// Completed requests of a closed loop are replaced in bursts of this
// many, which go out in one write: the client thread runs at full load,
// and a write per request cost it a third of its throughput.
inline int RefillBurst(int depth) { return std::max(1, depth / 4); }

// Closed loop on the calling thread: one NetClient keeping between
// `depth` - RefillBurst(`depth`) + 1 and `depth` requests in flight, the
// stream seeded with `seed`. Runs for `seconds` of measured time after start,
// recording each window's steal on `cpus`. With `trace`, odd windows
// record one net span per request.
LoadResult RunClosedLoop(uint16_t port, int depth, double seconds,
                         uint64_t seed, const RequestGen& gen,
                         const DocTable& table, const std::vector<int>& cpus,
                         bool trace);

// Sequential replay of `requests` over one NetClient, one request in
// flight: one span per request (layer kNet). Returns failures.
uint64_t ReplayNet(uint16_t port, const std::vector<Request>& requests,
                   const DocTable& table, std::vector<Span>* spans);

}  // namespace perfbench

#endif  // PERFBENCH_LOAD_H_
