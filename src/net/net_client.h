#ifndef RLZ_NET_NET_CLIENT_H_
#define RLZ_NET_NET_CLIENT_H_

/// \file
/// The blocking client of the network front end (DESIGN.md §13), used
/// by tests, the load bench, and snippet_server's --client mode. Sends
/// buffer locally until Flush()/Receive(), so a pipelined burst (N
/// Send* calls, then N Receive() calls) reaches the kernel as one
/// write — the client-side half of request coalescing. One NetClient
/// belongs to one thread; open one per connection.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "net/protocol.h"
#include "net/socket.h"
#include "util/random.h"
#include "util/status.h"

namespace rlz {
namespace net {

/// Knobs for NetClient::Connect.
struct NetClientOptions {
  /// Stamp every request frame with a CRC32 (the server verifies it and
  /// answers with CRC-stamped responses).
  bool use_crc = false;
  /// Priority class stamped on every request frame (DESIGN.md §14).
  RequestPriority priority = RequestPriority::kNormal;
  /// Per-request deadline in ms; 0 = none. Non-zero does two things:
  /// every request carries the deadline on the wire (the server expires
  /// it in queue), and the socket gets a receive timeout of the same
  /// length, so a hung server surfaces Status::DeadlineExceeded from
  /// Receive() instead of blocking forever.
  uint32_t deadline_ms = 0;
  /// Retries of the round-trip convenience methods (Get/GetRange/
  /// MultiGet) when the server sheds the request with kUnavailable:
  /// each retry re-sends after a capped-exponential backoff with jitter,
  /// floored at the server's retry-after hint. 0 (default) = sheds
  /// surface immediately as Status::Unavailable.
  int max_retries = 0;
  /// First retry's nominal backoff (ms); doubles per attempt.
  uint32_t retry_backoff_base_ms = 2;
  /// Backoff growth stops at this bound (ms).
  uint32_t retry_backoff_cap_ms = 250;
};

/// The delay (ms) before retry number `attempt` (0-based): capped
/// exponential `min(cap, base << attempt)`, jittered uniformly into
/// [b/2, b] so synchronized shed clients don't re-flood in lockstep,
/// floored at the server's `retry_after_ms` hint. Free function so the
/// policy is unit-testable without a socket.
uint32_t RetryBackoffMs(int attempt, uint32_t base_ms, uint32_t cap_ms,
                        uint32_t retry_after_ms, Rng* rng);

/// A pipelined loopback connection to a DocServer. Responses arrive in
/// request order; interleave Send*/Receive freely up to the server's
/// pipelining bound.
class NetClient {
 public:
  /// Connects to 127.0.0.1:`port`.
  static StatusOr<std::unique_ptr<NetClient>> Connect(
      uint16_t port, const NetClientOptions& options = {});
  ~NetClient() = default;

  NetClient(const NetClient&) = delete;
  NetClient& operator=(const NetClient&) = delete;

  /// Queues a Get request for `id`.
  void SendGet(uint64_t id);
  /// Queues a MultiGet request for `ids`.
  void SendMultiGet(const std::vector<uint64_t>& ids);
  /// Queues a GetRange request for bytes [offset, offset+length) of `id`.
  void SendGetRange(uint64_t id, uint64_t offset, uint64_t length);
  /// Queues a Stat request.
  void SendStat();
  /// Queues raw bytes verbatim (test hook for malformed frames).
  void SendRaw(std::string_view bytes);

  /// Writes every queued request to the socket.
  Status Flush();

  /// Returns the next response in request order, flushing queued sends
  /// first. Unavailable when the server closed the connection.
  StatusOr<NetResponse> Receive();

  /// Round-trip convenience: Get one document's bytes (non-OK wire
  /// codes become the equivalent Status). With max_retries > 0, a
  /// load-shed kUnavailable response is retried with backoff.
  StatusOr<std::string> Get(uint64_t id);
  /// Round-trip convenience: one byte range.
  StatusOr<std::string> GetRange(uint64_t id, uint64_t offset,
                                 uint64_t length);
  /// Round-trip convenience: one MultiGet (per-element codes inside).
  StatusOr<std::vector<MultiGetElement>> MultiGet(
      const std::vector<uint64_t>& ids);
  /// Round-trip convenience: one Stat snapshot (WireStats entries).
  StatusOr<WireStats> Stat();

 private:
  explicit NetClient(ScopedFd fd, const NetClientOptions& options)
      : fd_(std::move(fd)),
        options_(options),
        rng_(static_cast<uint64_t>(fd_.get()) * 0x9E3779B97F4A7C15ULL + 1) {}

  /// The v2 encoder knobs derived from options_ (CRC, priority,
  /// deadline).
  RequestOptions EncodeOptions() const;
  /// True when `response` is a shed the convenience methods should retry
  /// (wire kUnavailable with retries left); sleeps the backoff.
  bool ShouldRetryShed(const NetResponse& response, int attempt);

  ScopedFd fd_;
  NetClientOptions options_;
  Rng rng_;  // jitter source for retry backoff
  std::string send_buf_;  // queued request frames
  std::string recv_buf_;  // unparsed response bytes
};

}  // namespace net
}  // namespace rlz

#endif  // RLZ_NET_NET_CLIENT_H_
