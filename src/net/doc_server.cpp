#include "net/doc_server.h"

#include <sys/eventfd.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <utility>

#include "serve/doc_service.h"
#include "util/logging.h"

namespace rlz {
namespace net {
namespace {

constexpr uint64_t kListenTag = 0;
constexpr uint64_t kWakeTag = 1;
// Read quantum per poll round per connection. Polling is
// level-triggered, so the remainder is picked up next round and one
// firehose connection cannot starve the loop.
constexpr size_t kReadChunkBytes = 64u << 10;

// Steady-clock stamps for the timeout sweep (ms) and request deadlines
// (ns, the clock ServeRequest::deadline_ns is compared against).
uint64_t NowMs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

}  // namespace

DocServerOptions DocServerOptions::Validated() const {
  DocServerOptions v = *this;
  if (v.max_connections < 1) v.max_connections = 1;
  if (v.max_outbound_bytes < (4u << 10)) v.max_outbound_bytes = 4u << 10;
  if (v.max_pipelined_requests < 1) v.max_pipelined_requests = 1;
  if (v.drain_timeout_ms < 0) v.drain_timeout_ms = 0;
  if (v.idle_timeout_ms < 0) v.idle_timeout_ms = 0;
  if (v.header_timeout_ms < 0) v.header_timeout_ms = 0;
  if (v.write_stall_timeout_ms < 0) v.write_stall_timeout_ms = 0;
  if (v.max_best_effort_per_conn < 1) v.max_best_effort_per_conn = 1;
  return v;
}

// One parsed request in its connection's FIFO, answered when it reaches
// the head and its results are in. `window` is null for ops that are
// ready at parse time: decode-cache hits, Stat, parse-time sheds, poison
// errors, and empty MultiGets.
struct DocServer::PendingOp {
  MessageType type = MessageType::kGet;
  uint8_t flags = 0;
  // The service class, and so the window batch holding the results.
  RequestPriority priority = RequestPriority::kNormal;
  bool budgeted = false;  // holds one unit of the best-effort budget
  // Non-kOk: shed at parse time (per-connection budget) — answered with
  // this code + retry-after, no decode.
  WireCode reject = WireCode::kOk;
  Window* window = nullptr;
  size_t off = 0;    // first result in window->batches[priority]
  size_t count = 0;  // results: 1, or the MultiGet's id count
  std::string error;  // kError/reject: the message to report
  GetResult hit;      // a Get/GetRange DocService::GetCached answered
};

// The document requests of one poll round, one ServeBatch per priority
// class. Lives in the loop's pool; workers only write the batches.
struct DocServer::Window {
  ServeBatch batches[kNumPriorities];
  std::vector<BatchItem> items[kNumPriorities];  // staged, then submitted
  // The loop has seen batches[c] finish (or it had nothing to submit);
  // results are read only once this is set.
  bool done[kNumPriorities] = {};
  size_t refs = 0;              // queued ops that still read the results
  std::vector<uint64_t> conns;  // connections with an op here
};

// Loop-thread-owned per-connection state: the read/write state machine
// of DESIGN.md §13. No lock guards any field — only the loop touches it.
struct DocServer::Connection {
  ScopedFd fd;
  uint64_t id = 0;
  std::string in;       // unparsed inbound bytes
  size_t in_off = 0;    // parsed prefix of `in` (compacted lazily)
  std::string out;      // serialized, not yet written response bytes
  size_t out_off = 0;   // written prefix of `out` (compacted lazily)
  // Parsed requests in request order; ops[ops_head..] are unanswered.
  std::vector<PendingOp> ops;
  size_t ops_head = 0;
  size_t best_effort_inflight = 0;  // unanswered best-effort (budgeted)
  uint32_t interest = kPollRead;  // current epoll interest set
  bool bp_paused = false;   // reads paused for backpressure (hysteresis)
  bool poisoned = false;    // unparseable input: answer error, then close
  bool read_eof = false;    // peer half-closed: flush what's owed, close
  // Timeout-sweep clocks (DESIGN.md §14), all NowMs() stamps:
  uint64_t last_activity_ms = 0;   // last byte in or out
  uint64_t partial_since_ms = 0;   // partial frame held since; 0 = none
  uint64_t write_progress_ms = 0;  // outbound last advanced; 0 = idle
  NetRequest scratch;       // reused request decoder state

  size_t unflushed() const { return out.size() - out_off; }
  size_t unanswered() const { return ops.size() - ops_head; }
};

DocServer::DocServer(DocService* service, const DocServerOptions& options)
    : service_(service), options_(options.Validated()) {
  RLZ_CHECK(service != nullptr);
}

DocServer::~DocServer() { Shutdown(); }

Status DocServer::Start() {
  if (started_.load()) return Status::Internal("server already started");
  if (!poller_.valid()) {
    return Status::Internal("doc server: epoll unavailable");
  }
  RLZ_ASSIGN_OR_RETURN(listen_fd_, ListenLoopback(options_.port, &port_));
  wake_fd_.Reset(::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC));
  if (!wake_fd_.ok()) return Status::IOError("eventfd failed");
  RLZ_RETURN_IF_ERROR(poller_.Add(listen_fd_.get(), kListenTag, kPollRead));
  RLZ_RETURN_IF_ERROR(poller_.Add(wake_fd_.get(), kWakeTag, kPollRead));
  started_.store(true);
  loop_thread_ = std::thread(&DocServer::LoopThread, this);
  return Status::OK();
}

void DocServer::Shutdown() {
  std::lock_guard<std::mutex> join_lock(join_mu_);
  if (joined_ || !started_.load()) return;
  shutdown_requested_.store(true, std::memory_order_release);
  WakeLoop();
  loop_thread_.join();
  joined_ = true;
}

NetServerStats DocServer::stats() const {
  const auto load = [](const std::atomic<uint64_t>& counter) {
    return counter.load(std::memory_order_relaxed);
  };
  NetServerStats s;
  s.connections_accepted = load(connections_accepted_);
  s.connections_active = load(connections_active_);
  s.frames_received = load(frames_received_);
  s.frames_sent = load(frames_sent_);
  s.bytes_received = load(bytes_received_);
  s.bytes_sent = load(bytes_sent_);
  s.batches = load(batches_);
  s.coalesced_requests = load(coalesced_requests_);
  s.reads_paused = load(reads_paused_);
  s.protocol_errors = load(protocol_errors_);
  s.sheds = load(sheds_);
  s.idle_closed = load(idle_closed_);
  s.header_timeout_closed = load(header_timeout_closed_);
  s.write_stall_closed = load(write_stall_closed_);
  s.high_priority_frames = load(high_priority_frames_);
  s.best_effort_frames = load(best_effort_frames_);
  return s;
}

void DocServer::WakeLoop() {
  const uint64_t one = 1;
  // A full eventfd counter still wakes the loop; the result is advisory.
  [[maybe_unused]] const ssize_t n =
      ::write(wake_fd_.get(), &one, sizeof(one));
}

// ---------------------------------------------------------------------
// Loop thread: accept / read / parse / submit / answer / write / close.

void DocServer::LoopThread() {
  std::vector<PollerEvent> events;
  std::chrono::steady_clock::time_point deadline;
  for (;;) {
    // Level-triggered wait: while serving, block until the eventfd (or a
    // socket) wakes us, bounded by the timeout-sweep tick; a short tick
    // while draining so the deadline is honored even with a stalled
    // client. The reserve sizes Poller::Wait's report batch (see its
    // contract) so a fully-ready server drains in one syscall.
    events.reserve(connections_.size() + 2);
    if (!poller_.Wait(&events, draining_ ? 20 : TimeoutTickMs()).ok()) break;
    for (const PollerEvent& ev : events) {
      if (ev.tag == kListenTag) {
        HandleAccept();
        continue;
      }
      if (ev.tag == kWakeTag) {
        uint64_t drained;
        while (::read(wake_fd_.get(), &drained, sizeof(drained)) > 0) {
        }
        continue;
      }
      // Connections may be closed by earlier events of this round; a
      // stale tag just misses.
      auto it = connections_.find(ev.tag);
      if (it == connections_.end()) continue;
      if (ev.error) {
        CloseConnection(ev.tag);
        continue;
      }
      if (ev.readable) HandleReadable(it->second.get());
      it = connections_.find(ev.tag);
      if (it != connections_.end() && ev.writable) {
        HandleWritable(it->second.get());
      }
    }
    // Everything parsed this round is one coalescing window: requests
    // that arrived across connections ride one submission per class.
    SubmitWindow();
    CollectWindows();
    if (!draining_) SweepTimeouts();
    if (!draining_ && shutdown_requested_.load(std::memory_order_acquire)) {
      // Enter the drain: stop accepting, stop reading, keep answering.
      draining_ = true;
      deadline = std::chrono::steady_clock::now() +
                 std::chrono::milliseconds(options_.drain_timeout_ms);
      poller_.Remove(listen_fd_.get());
      listen_fd_.Reset();
      std::vector<uint64_t> idle;
      for (auto& entry : connections_) {
        if (ReadyToClose(*entry.second)) {
          idle.push_back(entry.first);
        } else {
          UpdateInterest(entry.second.get());
        }
      }
      for (uint64_t id : idle) CloseConnection(id);
    }
    if (draining_ && (connections_.empty() ||
                      std::chrono::steady_clock::now() >= deadline)) {
      break;
    }
  }
  // Deadline (or poller failure) force-close: anything still here had
  // its chance to drain.
  for (auto& entry : connections_) {
    poller_.Remove(entry.second->fd.get());
  }
  connections_.clear();
  connections_active_.store(0, std::memory_order_relaxed);
  // No worker may still write into a window once Shutdown returns.
  for (auto& window : inflight_windows_) {
    for (ServeBatch& batch : window->batches) batch.Wait();
  }
}

void DocServer::HandleAccept() {
  for (;;) {
    StatusOr<ScopedFd> accepted = AcceptConnection(listen_fd_.get());
    if (!accepted.ok()) return;  // listener error: drop this round
    ScopedFd fd = std::move(accepted).value();
    if (!fd.ok()) return;  // nothing pending
    if (draining_ ||
        connections_.size() >=
            static_cast<size_t>(options_.max_connections)) {
      continue;  // ScopedFd closes: refused by immediate close
    }
    auto conn = std::make_unique<Connection>();
    conn->id = next_conn_id_++;
    conn->fd = std::move(fd);
    conn->last_activity_ms = NowMs();
    if (!poller_.Add(conn->fd.get(), conn->id, kPollRead).ok()) continue;
    connections_accepted_.fetch_add(1, std::memory_order_relaxed);
    connections_active_.fetch_add(1, std::memory_order_relaxed);
    connections_.emplace(conn->id, std::move(conn));
  }
}

void DocServer::HandleReadable(Connection* conn) {
  if (conn->poisoned || conn->read_eof || conn->bp_paused || draining_) {
    return;
  }
  char buf[16384];
  size_t budget = kReadChunkBytes;
  bool fatal = false;
  bool progress = false;
  while (budget > 0) {
    const size_t ask = budget < sizeof(buf) ? budget : sizeof(buf);
    size_t n = 0;
    const IoResult r = ReadSome(conn->fd.get(), buf, ask, &n);
    if (r == IoResult::kOk) {
      conn->in.append(buf, n);
      bytes_received_.fetch_add(n, std::memory_order_relaxed);
      budget -= n;
      progress = true;
      if (n < ask) break;  // socket likely drained
      continue;
    }
    if (r == IoResult::kWouldBlock) break;
    if (r == IoResult::kClosed) {
      conn->read_eof = true;
      break;
    }
    fatal = true;  // kError
    break;
  }
  if (fatal) {
    CloseConnection(conn->id);
    return;
  }
  if (progress) conn->last_activity_ms = NowMs();
  ParseFrames(conn);
  // Slow-loris clock: arm while a partial frame sits in the buffer,
  // disarm only when a complete frame clears it — trickled bytes reset
  // the idle clock but never this one.
  if (conn->in.size() == conn->in_off) {
    conn->partial_since_ms = 0;
  } else if (conn->partial_since_ms == 0) {
    conn->partial_since_ms = NowMs();
  }
  AnswerReady(conn);  // a Stat, shed or poison error may already be due
  HandleWritable(conn);
}

void DocServer::ParseFrames(Connection* conn) {
  while (!conn->poisoned) {
    const std::string_view buf =
        std::string_view(conn->in).substr(conn->in_off);
    MessageType type;
    uint8_t flags;
    std::string_view body;
    size_t consumed = 0;
    std::string error;
    const ParseResult r =
        ParseFrame(buf, &type, &flags, &body, &consumed, &error);
    if (r == ParseResult::kNeedMore) break;
    Status decoded = Status::OK();
    if (r == ParseResult::kFrame) {
      conn->in_off += consumed;
      frames_received_.fetch_add(1, std::memory_order_relaxed);
      decoded = DecodeRequestBody(type, flags, body, &conn->scratch);
      if (!decoded.ok()) error = decoded.message();
    }
    if (r == ParseResult::kError || !decoded.ok()) {
      // Poison: one in-order error response, then close after flush.
      // The rest of the inbound buffer is untrustworthy — discard it.
      conn->poisoned = true;
      protocol_errors_.fetch_add(1, std::memory_order_relaxed);
      conn->in.clear();
      conn->in_off = 0;
      PendingOp op;
      op.type = MessageType::kError;
      op.error = std::move(error);
      Enqueue(conn, std::move(op));
      return;
    }
    const NetRequest& req = conn->scratch;
    PendingOp op;
    op.type = req.type;
    op.flags = req.flags;
    op.priority = req.priority;
    if (op.priority == RequestPriority::kHigh) {
      high_priority_frames_.fetch_add(1, std::memory_order_relaxed);
    } else if (op.priority == RequestPriority::kBestEffort) {
      best_effort_frames_.fetch_add(1, std::memory_order_relaxed);
      // Per-connection best-effort budget: over-budget doc requests are
      // shed right here, before any decode work; the shed still waits
      // its turn in the connection's FIFO, so its kUnavailable answer
      // stays in request order.
      if (op.type != MessageType::kStat) {
        if (conn->best_effort_inflight >= options_.max_best_effort_per_conn) {
          op.reject = WireCode::kUnavailable;
          op.error = "overloaded: best-effort budget exhausted";
          sheds_.fetch_add(1, std::memory_order_relaxed);
        } else {
          op.budgeted = true;
          ++conn->best_effort_inflight;
        }
      }
    }
    Enqueue(conn, std::move(op));
  }
  // Compact the parsed prefix so the buffer cannot grow without bound
  // across partially-received frames.
  if (conn->in_off > 0) {
    conn->in.erase(0, conn->in_off);
    conn->in_off = 0;
  }
}

void DocServer::Enqueue(Connection* conn, PendingOp op) {
  const NetRequest& req = conn->scratch;
  const bool single = op.type == MessageType::kGet ||
                      op.type == MessageType::kGetRange;
  BatchItem item{req.id, req.offset, req.length,
                 op.type == MessageType::kGetRange, op.priority, 0};
  bool decodes = false;
  if (op.reject == WireCode::kOk) {
    // A cache hit is answered now, on this thread, and waits in the FIFO
    // only for the ops ahead of it; only a miss is staged for a worker.
    decodes = single ? !service_->GetCached(item, &op.hit)
                     : op.type == MessageType::kMultiGet && !req.ids.empty();
  }
  if (decodes) {
    if (open_window_ == nullptr) {
      if (free_windows_.empty()) {
        open_window_ = std::make_unique<Window>();
        for (ServeBatch& batch : open_window_->batches) {
          batch.set_on_done([this] { WakeLoop(); });
        }
      } else {
        open_window_ = std::move(free_windows_.back());
        free_windows_.pop_back();
      }
    }
    item.deadline_ns =
        req.deadline_ms == 0
            ? 0
            : NowNs() + static_cast<uint64_t>(req.deadline_ms) * 1'000'000;
    Window* window = open_window_.get();
    std::vector<BatchItem>& items =
        window->items[static_cast<int>(op.priority)];
    op.window = window;
    op.off = items.size();
    if (single) {
      items.push_back(item);
    } else {
      for (uint64_t id : req.ids) {
        items.push_back({id, 0, 0, false, op.priority, item.deadline_ns});
      }
    }
    op.count = items.size() - op.off;
    ++window->refs;
    // A connection is read once per poll round, so its ops arrive here
    // together and one look at the back dedupes.
    if (window->conns.empty() || window->conns.back() != conn->id) {
      window->conns.push_back(conn->id);
    }
  }
  conn->ops.push_back(std::move(op));
}

void DocServer::HandleWritable(Connection* conn) {
  while (conn->unflushed() > 0) {
    size_t n = 0;
    const IoResult r = WriteSome(conn->fd.get(), conn->out.data() + conn->out_off,
                                 conn->unflushed(), &n);
    if (r == IoResult::kOk) {
      conn->out_off += n;
      bytes_sent_.fetch_add(n, std::memory_order_relaxed);
      const uint64_t now = NowMs();
      conn->last_activity_ms = now;
      conn->write_progress_ms = now;
      continue;
    }
    if (r == IoResult::kWouldBlock) break;
    CloseConnection(conn->id);  // kClosed / kError: peer is gone
    return;
  }
  if (conn->unflushed() == 0) {
    conn->out.clear();
    conn->out_off = 0;
    conn->write_progress_ms = 0;  // nothing owed: stall clock disarmed
  } else if (conn->out_off > (1u << 20)) {
    conn->out.erase(0, conn->out_off);
    conn->out_off = 0;
  }
  if (ReadyToClose(*conn)) {
    CloseConnection(conn->id);
    return;
  }
  UpdateInterest(conn);
}

void DocServer::SubmitWindow() {
  if (open_window_ == nullptr) return;
  Window* window = open_window_.get();
  size_t total_items = 0;
  for (int cls = 0; cls < kNumPriorities; ++cls) {
    std::vector<BatchItem>& items = window->items[cls];
    if (items.empty()) {
      window->done[cls] = true;
      continue;
    }
    // May block while every queue is full (kHigh/kNormal backpressure;
    // best-effort sheds instead). Workers never wait on the loop, so
    // this always returns.
    service_->SubmitBatch(items.data(), items.size(),
                          &window->batches[cls]);
    batches_.fetch_add(1, std::memory_order_relaxed);
    total_items += items.size();
  }
  coalesced_requests_.fetch_add(total_items, std::memory_order_relaxed);
  inflight_windows_.push_back(std::move(open_window_));
}

void DocServer::CollectWindows() {
  for (size_t i = 0; i < inflight_windows_.size();) {
    Window* window = inflight_windows_[i].get();
    bool finished = false;
    bool all_done = true;
    for (int cls = 0; cls < kNumPriorities; ++cls) {
      if (!window->done[cls] && window->batches[cls].done()) {
        window->done[cls] = finished = true;
      }
      all_done = all_done && window->done[cls];
    }
    // Every op a finished class made answerable belongs to a connection
    // listed here: either it is now at its FIFO head, or an earlier op
    // holds it back and answering that one later walks on to it.
    for (size_t k = 0; finished && k < window->conns.size(); ++k) {
      auto it = connections_.find(window->conns[k]);
      if (it == connections_.end()) continue;
      AnswerReady(it->second.get());
      HandleWritable(it->second.get());
    }
    if (window->refs > 0 || !all_done) {
      ++i;
      continue;
    }
    // Every op has been answered (or dropped with its connection) and
    // every batch has finished: back to the pool.
    for (auto& items : window->items) items.clear();
    std::fill(std::begin(window->done), std::end(window->done), false);
    window->conns.clear();
    free_windows_.push_back(std::move(inflight_windows_[i]));
    inflight_windows_[i] = std::move(inflight_windows_.back());
    inflight_windows_.pop_back();
  }
}

void DocServer::AnswerReady(Connection* conn) {
  const size_t unflushed_before = conn->unflushed();
  uint64_t answered = 0;
  while (conn->ops_head < conn->ops.size()) {
    const PendingOp& op = conn->ops[conn->ops_head];
    Window* window = op.window;
    if (window != nullptr && !window->done[static_cast<int>(op.priority)]) {
      break;  // results still coming: later ops wait their turn
    }
    EncodeResponse(op, &conn->out);
    if (op.budgeted) --conn->best_effort_inflight;
    if (window != nullptr) --window->refs;
    ++conn->ops_head;
    ++answered;
  }
  if (answered == 0) return;
  frames_sent_.fetch_add(answered, std::memory_order_relaxed);
  // Arm the write-stall clock when these frames start a fresh outbound
  // buffer (a peer that never drains it is reaped by the sweep).
  if (unflushed_before == 0) conn->write_progress_ms = NowMs();
  // Drop the answered prefix once it is at least half the FIFO: O(1)
  // amortized per op, and the vector's capacity is kept for reuse.
  if (2 * conn->ops_head >= conn->ops.size()) {
    conn->ops.erase(conn->ops.begin(),
                    conn->ops.begin() + static_cast<ptrdiff_t>(conn->ops_head));
    conn->ops_head = 0;
  }
}

void DocServer::EncodeResponse(const PendingOp& op, std::string* out) {
  const bool crc = (op.flags & kFlagCrc) != 0;
  if (op.reject != WireCode::kOk) {
    EncodeRejectResponse(op.type, op.reject, service_->SuggestedRetryAfterMs(),
                         op.error, crc, out);
    return;
  }
  const GetResult* results =
      op.window == nullptr
          ? &op.hit
          : &op.window->batches[static_cast<int>(op.priority)]
                 .results()[op.off];
  switch (op.type) {
    case MessageType::kGet:
    case MessageType::kGetRange: {
      const GetResult& r = results[0];
      if (r.ok()) {
        EncodeDocResponse(op.type, WireCode::kOk, *r.text, crc, out);
      } else if (r.status.code() == StatusCode::kUnavailable) {
        // Admission shed: attach the retry-after hint.
        EncodeRejectResponse(op.type, WireCode::kUnavailable,
                             service_->SuggestedRetryAfterMs(),
                             r.status.message(), crc, out);
      } else {
        EncodeDocResponse(op.type, ToWireCode(r.status), r.status.message(),
                          crc, out);
      }
      break;
    }
    case MessageType::kMultiGet: {
      mgout_.clear();
      for (size_t k = 0; k < op.count; ++k) {
        const GetResult& r = results[k];
        MultiGetOut o;
        if (r.ok()) {
          o.bytes = *r.text;
        } else {
          o.code = ToWireCode(r.status);
          o.bytes = r.status.message();
        }
        mgout_.push_back(o);
      }
      EncodeMultiGetResponse(mgout_.data(), mgout_.size(), crc, out);
      break;
    }
    case MessageType::kStat: {
      WireStats wire;
      wire.AddFields(service_->Stats());
      wire.AddFields(stats());
      wire.Add("archive.docs", service_->archive().num_docs());
      EncodeStatResponse(wire, crc, out);
      break;
    }
    case MessageType::kError:
      EncodeDocResponse(MessageType::kError, WireCode::kInvalidArgument,
                        op.error, /*crc=*/false, out);
      break;
  }
}

void DocServer::UpdateInterest(Connection* conn) {
  // Backpressure hysteresis: pause at the bound, resume below half —
  // so a connection hovering at the cap does not thrash epoll_ctl.
  const size_t unflushed = conn->unflushed();
  const bool over = unflushed >= options_.max_outbound_bytes ||
                    conn->unanswered() >= options_.max_pipelined_requests;
  const bool under = unflushed < options_.max_outbound_bytes / 2 + 1 &&
                     conn->unanswered() < options_.max_pipelined_requests / 2 + 1;
  if (!conn->bp_paused && over) {
    conn->bp_paused = true;
    reads_paused_.fetch_add(1, std::memory_order_relaxed);
  } else if (conn->bp_paused && under) {
    conn->bp_paused = false;
  }
  uint32_t interest = kPollNone;
  if (!conn->poisoned && !conn->read_eof && !conn->bp_paused && !draining_) {
    interest |= kPollRead;
  }
  if (unflushed > 0) interest |= kPollWrite;
  if (interest == conn->interest) return;
  if (poller_.Modify(conn->fd.get(), conn->id, interest).ok()) {
    conn->interest = interest;
  }
}

bool DocServer::ReadyToClose(const Connection& conn) const {
  if (conn.unanswered() > 0 || conn.unflushed() > 0) return false;
  return conn.poisoned || conn.read_eof || draining_;
}

void DocServer::CloseConnection(uint64_t conn_id) {
  auto it = connections_.find(conn_id);
  if (it == connections_.end()) return;
  Connection* conn = it->second.get();
  // Its unanswered ops stop holding their windows; their results, when
  // they come, are dropped.
  for (size_t i = conn->ops_head; i < conn->ops.size(); ++i) {
    if (conn->ops[i].window != nullptr) --conn->ops[i].window->refs;
  }
  poller_.Remove(conn->fd.get());
  connections_.erase(it);
  connections_active_.fetch_sub(1, std::memory_order_relaxed);
}

int DocServer::TimeoutTickMs() const {
  int min_armed = 0;
  const auto consider = [&min_armed](int t) {
    if (t > 0 && (min_armed == 0 || t < min_armed)) min_armed = t;
  };
  consider(options_.idle_timeout_ms);
  consider(options_.header_timeout_ms);
  consider(options_.write_stall_timeout_ms);
  if (min_armed == 0) return -1;  // nothing armed: block indefinitely
  // A quarter of the smallest armed timeout keeps sweep lag under 25%
  // of the bound without spinning; clamped so tiny test timeouts do not
  // busy-poll and huge ones still sweep at least once a second.
  return std::clamp(min_armed / 4, 10, 1000);
}

void DocServer::SweepTimeouts() {
  if (TimeoutTickMs() < 0) return;
  const uint64_t now = NowMs();
  std::vector<uint64_t> doomed;
  for (const auto& entry : connections_) {
    const Connection& c = *entry.second;
    // Slow loris first: a partial frame held past the header deadline is
    // reaped even though its trickled bytes keep last_activity fresh.
    if (options_.header_timeout_ms > 0 && c.partial_since_ms != 0 &&
        now - c.partial_since_ms >=
            static_cast<uint64_t>(options_.header_timeout_ms)) {
      header_timeout_closed_.fetch_add(1, std::memory_order_relaxed);
      doomed.push_back(entry.first);
      continue;
    }
    // Write stall: the peer stopped draining bytes it is owed.
    if (options_.write_stall_timeout_ms > 0 && c.unflushed() > 0 &&
        c.write_progress_ms != 0 &&
        now - c.write_progress_ms >=
            static_cast<uint64_t>(options_.write_stall_timeout_ms)) {
      write_stall_closed_.fetch_add(1, std::memory_order_relaxed);
      doomed.push_back(entry.first);
      continue;
    }
    // Idle: quiet in both directions and owed nothing.
    if (options_.idle_timeout_ms > 0 && c.unanswered() == 0 &&
        c.unflushed() == 0 &&
        now - c.last_activity_ms >=
            static_cast<uint64_t>(options_.idle_timeout_ms)) {
      idle_closed_.fetch_add(1, std::memory_order_relaxed);
      doomed.push_back(entry.first);
    }
  }
  for (uint64_t id : doomed) CloseConnection(id);
}

}  // namespace net
}  // namespace rlz
