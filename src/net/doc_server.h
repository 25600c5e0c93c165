#ifndef RLZ_NET_DOC_SERVER_H_
#define RLZ_NET_DOC_SERVER_H_

/// \file
/// The network front end (DESIGN.md §13): one epoll event loop thread
/// that accepts loopback TCP connections speaking the length-prefixed
/// protocol of net/protocol.h, coalesces the requests each poll round
/// parses across connections into DocService batched submissions, and
/// writes the responses.
///
/// Threading: the *loop thread* owns every connection (accept, read,
/// parse, submit, answer, write, close — no locks on connection state).
/// A Get or GetRange whose document is in the decode cache is answered
/// by the loop itself at parse time (DocService::GetCached); everything
/// else goes to DocService workers, which decode and never touch a
/// socket. The worker that finishes a submission wakes the loop through
/// an eventfd (the ServeBatch completion hook), and the loop answers
/// each connection's requests in its request order as their results
/// come in.
///
/// Backpressure: each connection has a bounded outbound buffer and a
/// bounded count of parsed-but-unanswered requests; crossing either
/// bound pauses reading that socket (its bytes stay in the kernel
/// buffer, eventually stalling the sender via TCP flow control) until
/// the buffer drains below half. Queued work is therefore bounded by
/// connections × the two per-connection caps, independent of how fast
/// clients write.
///
/// Overload protection (DESIGN.md §14): request frames carry a priority
/// class routed into DocService's weighted admission; best-effort
/// requests over the per-connection budget (or past the service's
/// queue-latency watermark) are shed with kUnavailable + a retry-after
/// hint; expired-in-queue requests complete kDeadlineExceeded without
/// decoding; and a periodic sweep closes idle, slow-loris (partial
/// frame held past the header deadline), and write-stalled connections.

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "net/poller.h"
#include "net/protocol.h"
#include "net/socket.h"
#include "util/status.h"

namespace rlz {

class DocService;

namespace net {

/// Knobs for DocServer. Every bound has a documented floor applied by
/// Validated(); zero/negative values are clamped, not trusted.
struct DocServerOptions {
  /// TCP port to listen on (loopback only); 0 picks an ephemeral port,
  /// readable from port() after Start().
  uint16_t port = 0;
  /// Accepted connections beyond this are closed immediately. Floor: 1.
  int max_connections = 1024;
  /// Outbound-buffer backpressure bound per connection: once this many
  /// un-flushed response bytes accumulate, the connection's reads pause
  /// until the buffer drains below half. Floor: 4 KB.
  size_t max_outbound_bytes = 4u << 20;
  /// Pipelining backpressure bound per connection: parsed requests not
  /// yet answered. Crossing it pauses reads until half are answered.
  /// Floor: 1.
  size_t max_pipelined_requests = 1024;
  /// Graceful-drain deadline for Shutdown(): connections still
  /// unflushed after this are closed anyway. Floor: 0 (immediate).
  int drain_timeout_ms = 5000;
  /// Idle-connection timeout (ms): a connection with no traffic in
  /// either direction and nothing owed to it for this long is closed
  /// (DESIGN.md §14). 0 disables.
  int idle_timeout_ms = 120'000;
  /// Header deadline (ms): a connection holding a *partial* frame —
  /// bytes received but no complete frame parsed — past this is closed.
  /// This is the slow-loris defense: trickling one byte at a time resets
  /// the idle clock but never this one. 0 disables.
  int header_timeout_ms = 30'000;
  /// Write-stall deadline (ms): a connection whose outbound buffer made
  /// no progress for this long (peer stopped draining) is closed. 0
  /// disables.
  int write_stall_timeout_ms = 30'000;
  /// Per-connection budget of parsed-but-unanswered best-effort
  /// requests: excess best-effort frames are shed at parse time with
  /// kUnavailable + retry-after, before any decode work. Floor: 1.
  size_t max_best_effort_per_conn = 64;

  /// Returns a copy with every knob clamped to its documented floor
  /// (the DocServer constructor applies this, mirroring
  /// DocServiceOptions::Validated).
  DocServerOptions Validated() const;
};

/// Server-side network counters (monotonic since Start, except
/// connections_active). The Stat response carries each under its
/// ForEachField name.
struct NetServerStats {
  /// Connections accepted.
  uint64_t connections_accepted = 0;
  /// Connections currently open.
  uint64_t connections_active = 0;
  /// Request frames parsed.
  uint64_t frames_received = 0;
  /// Response frames serialized.
  uint64_t frames_sent = 0;
  /// Bytes read off sockets.
  uint64_t bytes_received = 0;
  /// Bytes written to sockets.
  uint64_t bytes_sent = 0;
  /// ServeBatch submissions made by the loop (one per non-empty
  /// priority class of a poll round).
  uint64_t batches = 0;
  /// Document requests coalesced into those submissions. Requests the
  /// loop answered from the decode cache were never submitted and are
  /// not counted (DocService's ServiceStats::cached counts them).
  uint64_t coalesced_requests = 0;
  /// Times a connection's reads were paused for backpressure.
  uint64_t reads_paused = 0;
  /// Connections poisoned by unparseable input.
  uint64_t protocol_errors = 0;
  /// Requests shed at parse time (per-connection best-effort budget).
  uint64_t sheds = 0;
  /// Connections closed by the idle timeout.
  uint64_t idle_closed = 0;
  /// Connections closed by the header (slow-loris) deadline.
  uint64_t header_timeout_closed = 0;
  /// Connections closed by the write-stall deadline.
  uint64_t write_stall_closed = 0;
  /// Request frames flagged high priority.
  uint64_t high_priority_frames = 0;
  /// Request frames flagged best-effort.
  uint64_t best_effort_frames = 0;

  /// Calls `f(name, value)` once per field, under the name the Stat
  /// response carries (DESIGN.md §13).
  template <typename F>
  void ForEachField(F&& f) const {
    f("net.connections_accepted", connections_accepted);
    f("net.connections_active", connections_active);
    f("net.frames_received", frames_received);
    f("net.frames_sent", frames_sent);
    f("net.bytes_received", bytes_received);
    f("net.bytes_sent", bytes_sent);
    f("net.batches", batches);
    f("net.coalesced_requests", coalesced_requests);
    f("net.reads_paused", reads_paused);
    f("net.protocol_errors", protocol_errors);
    f("net.sheds", sheds);
    f("net.idle_closed", idle_closed);
    f("net.header_timeout_closed", header_timeout_closed);
    f("net.write_stall_closed", write_stall_closed);
    f("net.high_priority_frames", high_priority_frames);
    f("net.best_effort_frames", best_effort_frames);
  }
};
// A field added without its ForEachField entry fails here.
static_assert(sizeof(NetServerStats) == 16 * sizeof(uint64_t),
              "list the new NetServerStats field in ForEachField");

/// The socket front end over a DocService (DESIGN.md §13). Start() binds
/// and spawns the loop thread; Shutdown() stops accepting, answers
/// everything already parsed, flushes, and joins. The service
/// (and its archive) must outlive the server.
class DocServer {
 public:
  /// Prepares a server over `service` (not owned). No sockets exist
  /// until Start().
  explicit DocServer(DocService* service, const DocServerOptions& options = {});
  /// Shutdown(), then releases everything.
  ~DocServer();

  DocServer(const DocServer&) = delete;
  DocServer& operator=(const DocServer&) = delete;

  /// Binds the loopback listen socket and spawns the loop thread. Fails
  /// (and leaves the object inert) when the port is taken or fd
  /// resources are exhausted.
  Status Start();

  /// The bound TCP port (valid after a successful Start()).
  uint16_t port() const { return port_; }

  /// Graceful drain: stop accepting and reading, answer every request
  /// already parsed, flush every outbound buffer (up to
  /// drain_timeout_ms), close all connections, join the loop thread.
  /// Idempotent; safe to call concurrently with serving traffic.
  void Shutdown();

  /// Counters snapshot; never blocks serving (atomics, like
  /// DocService::Stats).
  NetServerStats stats() const;

  /// The validated options this server runs with.
  const DocServerOptions& options() const { return options_; }

 private:
  // One parsed request in its connection's answer FIFO.
  struct PendingOp;
  struct Connection;
  // The document requests one poll round staged: a ServeBatch per class.
  struct Window;

  void LoopThread();
  void HandleAccept();
  void HandleReadable(Connection* conn);
  // Writes what the socket takes, then closes the connection if it has
  // nothing left to say, else re-arms its epoll interest.
  void HandleWritable(Connection* conn);
  // Parses every complete frame in conn->in onto the connection's FIFO,
  // staging document requests into the open window; poisons the
  // connection on malformed input.
  void ParseFrames(Connection* conn);
  // Appends `op` to the connection's FIFO. A Get or GetRange the decode
  // cache answers is ready at once; any other document request (those
  // of conn->scratch) is staged into the open window.
  void Enqueue(Connection* conn, PendingOp op);
  // Submits the open window: one SubmitBatch per non-empty class.
  void SubmitWindow();
  // Notes the class batches that finished, answers the connections
  // waiting on them, and returns finished, unreferenced windows to the
  // pool.
  void CollectWindows();
  // Encodes the response of every answerable op at the head of the
  // connection's FIFO into its outbound buffer.
  void AnswerReady(Connection* conn);
  void EncodeResponse(const PendingOp& op, std::string* out);
  // Recomputes and applies a connection's epoll interest set from its
  // pause/flush state.
  void UpdateInterest(Connection* conn);
  // True when the connection has nothing left to say (no unanswered
  // ops, empty outbound buffer) and should close (poisoned, peer EOF,
  // or server draining).
  bool ReadyToClose(const Connection& conn) const;
  void CloseConnection(uint64_t conn_id);
  // The loop's poll timeout (ms) while serving: -1 when no
  // idle/header/write-stall timeout is armed, else a fraction of the
  // smallest armed timeout so sweeps run often enough to honor it.
  int TimeoutTickMs() const;
  // Closes every connection past an armed timeout (DESIGN.md §14):
  // idle (quiet and owed nothing), header deadline (partial frame held
  // too long — slow loris), write stall (outbound bytes not draining).
  void SweepTimeouts();
  // Wakes the loop thread (eventfd write); callable from any thread.
  void WakeLoop();

  DocService* service_;
  DocServerOptions options_;  // validated copy
  uint16_t port_ = 0;

  Poller poller_;
  ScopedFd listen_fd_;
  ScopedFd wake_fd_;  // eventfd: completions ready / shutdown requested
  std::unordered_map<uint64_t, std::unique_ptr<Connection>> connections_;
  uint64_t next_conn_id_ = 2;  // 0 = listener, 1 = wakeup
  // Loop-thread view of the drain state (set once shutdown_requested_
  // is observed; connections stop reading and close when flushed).
  bool draining_ = false;

  // Windows, loop-thread only: the one staging this round's requests
  // (null until a request needs it), the submitted ones whose results
  // are still coming in or still being answered, and the idle pool —
  // reused, so the steady state allocates nothing for completions.
  std::unique_ptr<Window> open_window_;
  std::vector<std::unique_ptr<Window>> inflight_windows_;
  std::vector<std::unique_ptr<Window>> free_windows_;
  std::vector<MultiGetOut> mgout_;  // MultiGet response staging

  std::atomic<bool> shutdown_requested_{false};
  std::atomic<bool> started_{false};

  // Counters (relaxed atomics; see NetServerStats).
  std::atomic<uint64_t> connections_accepted_{0};
  std::atomic<uint64_t> connections_active_{0};
  std::atomic<uint64_t> frames_received_{0};
  std::atomic<uint64_t> frames_sent_{0};
  std::atomic<uint64_t> bytes_received_{0};
  std::atomic<uint64_t> bytes_sent_{0};
  std::atomic<uint64_t> batches_{0};
  std::atomic<uint64_t> coalesced_requests_{0};
  std::atomic<uint64_t> reads_paused_{0};
  std::atomic<uint64_t> protocol_errors_{0};
  std::atomic<uint64_t> sheds_{0};
  std::atomic<uint64_t> idle_closed_{0};
  std::atomic<uint64_t> header_timeout_closed_{0};
  std::atomic<uint64_t> write_stall_closed_{0};
  std::atomic<uint64_t> high_priority_frames_{0};
  std::atomic<uint64_t> best_effort_frames_{0};

  std::mutex join_mu_;  // Shutdown is idempotent
  bool joined_ = false;
  std::thread loop_thread_;
};

}  // namespace net
}  // namespace rlz

#endif  // RLZ_NET_DOC_SERVER_H_
