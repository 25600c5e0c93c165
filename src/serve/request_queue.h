#ifndef RLZ_SERVE_REQUEST_QUEUE_H_
#define RLZ_SERVE_REQUEST_QUEUE_H_

/// \file
/// The serving layer's per-worker request queue: bounded rings of plain
/// request descriptors, multi-producer, popped by the owning worker and
/// (under imbalance) by stealing peers (DESIGN.md §10). Since the
/// overload-protection layer (DESIGN.md §14) the queue is class-aware:
/// one ring per RequestPriority, popped in strict priority order, with a
/// per-class capacity so best-effort traffic cannot consume the headroom
/// reserved for higher classes.

#include <cstdint>
#include <future>
#include <mutex>
#include <vector>

namespace rlz {

struct GetResult;
class ServeBatch;

/// Request classes of the serving layer (DESIGN.md §14). Lower value =
/// served first: workers drain kHigh before kNormal before kBestEffort,
/// and admission gives each class a distinct share of every queue.
/// kNormal is the default (and what protocol-v1 network clients map to);
/// kBestEffort is the only class the admission layer load-sheds.
enum class RequestPriority : uint8_t {
  kHigh = 0,        ///< latency-sensitive: full queue capacity, never shed
  kNormal = 1,      ///< the default: most of the queue, blocks when full
  kBestEffort = 2,  ///< bulk/background: capped share, shed under overload
};

/// Number of RequestPriority classes (array-sizing constant).
constexpr int kNumPriorities = 3;

/// One queued retrieval request. Plain data, passed by value through the
/// ring — enqueueing allocates nothing. Exactly one completion channel is
/// set: `out`+`batch` for the batched path (the worker writes the result
/// into the caller-owned slot, then counts the batch down), or `promise`
/// for the future-returning convenience path (owned by the request; the
/// executing worker fulfils and deletes it).
struct ServeRequest {
  /// Document id to retrieve.
  size_t id = 0;
  /// Range start (kRange only).
  size_t offset = 0;
  /// Range length (kRange only).
  size_t length = 0;
  /// False for a whole-document Get, true for the GetRange snippet path.
  bool is_range = false;
  /// Service class: selects the ring and the pop order (DESIGN.md §14).
  RequestPriority priority = RequestPriority::kNormal;
  /// Steady-clock enqueue stamp (ns) for queue+service latency accounting.
  uint64_t enqueue_ns = 0;
  /// Absolute steady-clock expiry (ns); 0 = no deadline. A request still
  /// queued past this completes kDeadlineExceeded without decoding.
  uint64_t deadline_ns = 0;
  /// Caller-owned result slot (batched path); null on the promise path.
  GetResult* out = nullptr;
  /// Completion counter of the owning batch; null on the promise path.
  ServeBatch* batch = nullptr;
  /// Owned promise (future path); null on the batched path.
  std::promise<GetResult>* promise = nullptr;
};

/// A bounded MPSC-with-stealing queue of three priority rings: fixed
/// per-class capacities decided at construction (the service's
/// backpressure/admission unit — a full ring pushes back on, or sheds,
/// producers of that class), one mutex per queue so contention is spread
/// across the pool instead of funnelled through one lock, O(1) push/pop
/// with no allocation after construction. The owning worker pops on every
/// iteration; idle peers may also pop (work stealing), which keeps tail
/// latency bounded under skewed routing. Pops drain strictly by class —
/// a queued best-effort request never delays a high-priority one behind
/// it, which is what bounds accepted-request latency under overload.
class BoundedRequestQueue {
 public:
  /// Creates a queue whose ring for class `p` holds `class_caps[p]`
  /// requests (each floored at 1). `class_caps` is indexed by
  /// RequestPriority value.
  explicit BoundedRequestQueue(const size_t (&class_caps)[kNumPriorities]) {
    for (int p = 0; p < kNumPriorities; ++p) {
      rings_[p].ring.resize(class_caps[p] > 0 ? class_caps[p] : 1);
    }
  }

  BoundedRequestQueue(const BoundedRequestQueue&) = delete;
  BoundedRequestQueue& operator=(const BoundedRequestQueue&) = delete;

  /// Pushes one request onto its class ring; returns false when that
  /// ring is full (the caller spills to a peer, blocks, or sheds —
  /// per-class policy lives in DocService, not here).
  bool TryPush(const ServeRequest& request) {
    std::lock_guard<std::mutex> lock(mu_);
    return PushLocked(request);
  }

  /// Pushes up to `n` requests from `requests` under one lock acquisition
  /// (the batched submission path's "one enqueue per shard"); returns how
  /// many were pushed — it stops at the first request whose class ring is
  /// full (preserving per-class FIFO order), and the caller routes the
  /// rest individually.
  size_t TryPushMany(const ServeRequest* requests, size_t n) {
    std::lock_guard<std::mutex> lock(mu_);
    size_t pushed = 0;
    while (pushed < n && PushLocked(requests[pushed])) ++pushed;
    return pushed;
  }

  /// Pops the oldest request of the highest non-empty class into
  /// `*request`; returns false when every ring is empty.
  bool TryPop(ServeRequest* request) {
    std::lock_guard<std::mutex> lock(mu_);
    for (int p = 0; p < kNumPriorities; ++p) {
      Ring& r = rings_[p];
      if (r.count == 0) continue;
      *request = r.ring[r.head];
      r.head = (r.head + 1) % r.ring.size();
      --r.count;
      return true;
    }
    return false;
  }

  /// True when class `p`'s ring has room (racy snapshot — the caller's
  /// TryPush may still fail; used as a wakeup predicate).
  bool HasRoom(RequestPriority p) const {
    std::lock_guard<std::mutex> lock(mu_);
    const Ring& r = rings_[static_cast<int>(p)];
    return r.count < r.ring.size();
  }

  /// Requests currently queued across all classes (racy snapshot, for
  /// monitoring).
  size_t size() const {
    std::lock_guard<std::mutex> lock(mu_);
    size_t total = 0;
    for (const Ring& r : rings_) total += r.count;
    return total;
  }

  /// The fixed capacity of class `p`'s ring.
  size_t capacity(RequestPriority p = RequestPriority::kHigh) const {
    return rings_[static_cast<int>(p)].ring.size();
  }

 private:
  struct Ring {
    std::vector<ServeRequest> ring;
    size_t head = 0;   // index of the oldest element
    size_t count = 0;  // elements in the ring
  };

  bool PushLocked(const ServeRequest& request) {
    Ring& r = rings_[static_cast<int>(request.priority)];
    if (r.count == r.ring.size()) return false;
    r.ring[(r.head + r.count) % r.ring.size()] = request;
    ++r.count;
    return true;
  }

  mutable std::mutex mu_;
  Ring rings_[kNumPriorities];
};

}  // namespace rlz

#endif  // RLZ_SERVE_REQUEST_QUEUE_H_
