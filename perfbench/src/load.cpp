#include "load.h"

#include <algorithm>
#include <memory>
#include <string>

#include "net/net_client.h"
#include "util/logging.h"

namespace perfbench {
namespace {

using rlz::net::MultiGetElement;
using rlz::net::NetClient;
using rlz::net::NetResponse;
using rlz::net::WireCode;

// Window length: the load phase reports medians over windows of this
// length, so a run of N seconds yields 4N samples of every metric.
constexpr double kWindowSeconds = 0.25;

bool Matches(const DocTable& table, const Request& r,
             const NetResponse& response) {
  if (!response.ok()) return false;
  if (r.is_range) return RangeMatches(table, r, response.payload);
  if (response.elements.size() != static_cast<size_t>(r.count)) return false;
  for (int k = 0; k < r.count; ++k) {
    const MultiGetElement& e = response.elements[k];
    if (e.code != WireCode::kOk || e.bytes != table.docs[r.ids[k]]) {
      return false;
    }
  }
  return true;
}

void Send(NetClient* client, const Request& r) {
  if (r.is_range) {
    client->SendGetRange(r.ids[0], r.offset, r.length);
  } else {
    client->SendMultiGet(std::vector<uint64_t>(r.ids, r.ids + r.count));
  }
}

}  // namespace

bool RangeMatches(const DocTable& table, const Request& r,
                  std::string_view text) {
  const std::string_view doc = table.docs[r.ids[0]];
  if (r.offset > doc.size()) return false;
  return text == doc.substr(r.offset, r.length);
}

LoadResult RunClosedLoop(uint16_t port, int depth, double seconds,
                         uint64_t seed, const RequestGen& gen,
                         const DocTable& table, const std::vector<int>& cpus,
                         bool trace) {
  LoadResult result;
  result.window_seconds = kWindowSeconds;
  const size_t windows =
      std::max<size_t>(1, static_cast<size_t>(seconds / kWindowSeconds));
  result.latency.assign(windows, Histogram());
  result.steal_share.assign(windows, 0.0);
  auto client_or = NetClient::Connect(port);
  RLZ_CHECK(client_or.ok()) << client_or.status().ToString();
  std::unique_ptr<NetClient> client = std::move(client_or).value();
  rlz::Rng rng(seed);
  // In-flight requests in send order (responses come back in order).
  std::vector<Request> ring(depth);
  std::vector<uint64_t> sent_ns(depth);
  uint64_t next = 0, done = 0;
  auto send_one = [&] {
    const size_t slot = next % depth;
    ring[slot] = gen(rng);
    sent_ns[slot] = NowNs();
    Send(client.get(), ring[slot]);
    ++next;
  };
  const uint64_t t0 = NowNs();
  const uint64_t t_end =
      t0 + static_cast<uint64_t>(windows * kWindowSeconds * 1e9);
  // Host steal is sampled when the first response of a later window
  // arrives and charged to the windows that ended since the last sample.
  size_t sampled_to = 0;
  StealMeter steal(cpus);
  auto sample_steal = [&](size_t w) {
    const double share = steal.Lap();
    for (; sampled_to < std::min(w, windows); ++sampled_to) {
      result.steal_share[sampled_to] = share;
    }
  };
  // The next Receive flushes a burst of refills in one write.
  const int refill = RefillBurst(depth);
  int owed = 0;
  for (int i = 0; i < depth; ++i) send_one();
  while (done < next) {
    auto response = client->Receive();
    const uint64_t now = NowNs();
    const size_t slot = done % depth;
    ++result.attempted;
    if (!response.ok() || !Matches(table, ring[slot], *response)) {
      ++result.failed;
    } else {
      // Latencies land in the window of their completion; those completed
      // after the phase ended (the drain) are checked but not timed.
      const size_t w =
          static_cast<size_t>((now - t0) / 1e9 / kWindowSeconds);
      if (w > sampled_to && sampled_to < windows) sample_steal(w);
      if (w < windows) {
        Histogram& h = result.latency[w];
        ++h.buckets[rlz::LatencyHistogram::BucketIndex(now - sent_ns[slot])];
        ++h.total;
        if (trace && w % 2 == 1) {
          result.spans.push_back({done, -1, kNet, false, sent_ns[slot], now});
        }
      }
    }
    ++done;
    if (!response.ok()) break;  // the connection is unusable
    if (now < t_end && ++owed == refill) {
      for (; owed > 0; --owed) send_one();
    }
  }
  if (sampled_to < windows) sample_steal(windows);
  result.attempted += next - done;  // lost with a broken connection
  result.failed += next - done;
  return result;
}

uint64_t ReplayNet(uint16_t port, const std::vector<Request>& requests,
                   const DocTable& table, std::vector<Span>* spans) {
  auto client_or = NetClient::Connect(port);
  RLZ_CHECK(client_or.ok()) << client_or.status().ToString();
  std::unique_ptr<NetClient> client = std::move(client_or).value();
  uint64_t failed = 0;
  for (size_t i = 0; i < requests.size(); ++i) {
    const uint64_t start = NowNs();
    Send(client.get(), requests[i]);
    auto response = client->Receive();
    const uint64_t end = NowNs();
    if (!response.ok() || !Matches(table, requests[i], *response)) {
      ++failed;
      if (!response.ok()) return failed + (requests.size() - i - 1);
      continue;
    }
    spans->push_back({i, -1, kNet, false, start, end});
  }
  return failed;
}

}  // namespace perfbench
