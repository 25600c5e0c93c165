#ifndef RLZ_SERVE_DOC_SERVICE_H_
#define RLZ_SERVE_DOC_SERVICE_H_

/// \file
/// The serving layer's request executor: sharded request queues, work
/// stealing, batched completion, decode cache, service stats
/// (DESIGN.md §6, §10).

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "serve/request_queue.h"
#include "store/archive.h"
#include "util/histogram.h"
#include "util/lru_cache.h"
#include "util/status.h"

namespace rlz {

class ShardRouter;
class ShardedStore;

/// Knobs for DocService. Constructors run every instance through
/// Validated(), so out-of-range values are clamped rather than trusted.
struct DocServiceOptions {
  /// Worker threads executing requests; each owns a private
  /// DecodeScratch. Floor: 1.
  int num_threads = 4;
  /// Decoded-document cache capacity; 0 disables the cache. A non-zero
  /// capacity too small to ever admit an entry (at most
  /// LruCache::kEntryOverheadBytes) is clamped to 0 — a cache that can
  /// never hold anything is a disabled cache, stated rather than silent.
  /// The cache has 16 mutex stripes: documents larger than
  /// cache_bytes / 16 are served but never cached.
  uint64_t cache_bytes = 32 << 20;
  /// Capacity of each worker's bounded request queue — the service's
  /// backpressure unit: when every queue is full, submission blocks until
  /// a worker frees a slot, so queued work is bounded by
  /// num_threads * queue_depth regardless of producer count. Floor: 1.
  /// This is the kHigh class's capacity; kNormal gets 90% of it and
  /// kBestEffort half (each at least one slot), so high-priority traffic
  /// always has headroom that bulk traffic cannot consume (DESIGN.md
  /// §14).
  int queue_depth = 1024;
  /// Queue-latency watermark (microseconds): when the estimated queue
  /// wait (queued requests × EWMA service time / workers) exceeds this,
  /// newly submitted kBestEffort requests are shed immediately with
  /// Unavailable instead of queued (DESIGN.md §14). Higher classes are
  /// never shed by the watermark. 0 disables watermark shedding (class
  /// caps still apply). Default 200 ms — several client round-trips, so
  /// a shed+retry beats waiting it out.
  uint64_t shed_queue_delay_us = 200'000;

  /// Returns a copy with every knob clamped to its documented floor (see
  /// the per-field comments). The DocService constructor applies this;
  /// it is public so callers and tests can see the effective values.
  DocServiceOptions Validated() const;
};

/// Outcome of one request. `text` is the full document for Get and the
/// requested slice for GetRange; on a cache hit it aliases the cached copy
/// (archives are immutable, so shared bytes are safe).
struct GetResult {
  /// Outcome of the request; text is valid only when ok().
  Status status = Status::OK();
  /// The retrieved bytes (possibly shared with the decode cache).
  std::shared_ptr<const std::string> text;

  /// True when the request succeeded.
  bool ok() const { return status.ok(); }
};

/// Aggregated service counters; exact once Drain() has returned. Stats()
/// may also be called mid-flight — workers publish their counters as
/// atomics, so reading them never blocks serving (counters are internally
/// consistent per worker but requests may land between worker snapshots).
///
/// Each request looks the decode cache up once, so cache.hits +
/// cache.misses counts the Get and GetRange requests served (a request
/// GetCached found a deleted document's stale entry for counts a hit
/// there and a lookup again on the worker that serves it). A request
/// GetCached answers on the caller's thread counts once in `requests`,
/// once in `cached` and once in cache.hits; it never queues, so it is in
/// none of the worker figures (cpu_seconds, latency percentiles).
struct ServiceStats {
  /// Requests executed (Get + MultiGet elements + GetRange), `cached`
  /// included.
  uint64_t requests = 0;
  /// Requests GetCached answered from the decode cache on the caller's
  /// thread (DESIGN.md §10).
  uint64_t cached = 0;
  /// Requests that returned a non-OK status.
  uint64_t failures = 0;
  /// Requests a worker popped from another worker's queue.
  uint64_t steals = 0;
  /// Best-effort requests shed at admission (watermark crossed or class
  /// rings full); each completed immediately with Unavailable.
  uint64_t shed = 0;
  /// Requests whose deadline passed before a worker reached them;
  /// completed kDeadlineExceeded without decoding (DESIGN.md §14).
  uint64_t expired = 0;
  /// Requests sitting in worker queues at snapshot time (enqueued, not
  /// yet popped) — the live backlog an operator polls a running server
  /// for; exact at a traffic boundary, racy mid-flight like the rest.
  uint64_t queued = 0;
  /// Decode-cache counters (hits/misses/evictions).
  LruCache::Stats cache;
  /// Thread CPU time consumed by workers while executing requests.
  double cpu_seconds = 0.0;
  /// The busiest worker's thread-CPU seconds: the service makespan on a
  /// host with one core per worker, as
  /// RlzArchiveInfo::build_critical_path_seconds is for the build. Never
  /// exceeds cpu_seconds.
  double critical_path_seconds = 0.0;
  /// Request latency (enqueue to completion, microseconds) of the
  /// requests a worker served: median. GetCached answers never queue and
  /// are not in it.
  double latency_p50_us = 0.0;
  /// Request latency: 99th percentile.
  double latency_p99_us = 0.0;
  /// Request latency: 99.9th percentile.
  double latency_p999_us = 0.0;
  /// Worker-pool size the service ran with.
  int num_threads = 0;

  /// Calls `f(name, value)` once per field, `cache`'s included, under the
  /// name the Stat response carries (DESIGN.md §13).
  template <typename F>
  void ForEachField(F&& f) const {
    f("serve.requests", requests);
    f("serve.cached", cached);
    f("serve.failures", failures);
    f("serve.steals", steals);
    f("serve.shed", shed);
    f("serve.expired", expired);
    f("serve.queued", queued);
    f("serve.cache.hits", cache.hits);
    f("serve.cache.misses", cache.misses);
    f("serve.cache.evictions", cache.evictions);
    f("serve.cache.erased", cache.erased);
    f("serve.cache.entries", cache.entries);
    f("serve.cache.bytes", cache.bytes);
    f("serve.cache.capacity_bytes", cache.capacity_bytes);
    f("serve.cpu_seconds", cpu_seconds);
    f("serve.critical_path_seconds", critical_path_seconds);
    f("serve.latency_p50_us", latency_p50_us);
    f("serve.latency_p99_us", latency_p99_us);
    f("serve.latency_p999_us", latency_p999_us);
    f("serve.num_threads", num_threads);
  }
};
// 19 eight-byte fields and num_threads, padded to eight: a field added
// without its ForEachField entry fails here.
static_assert(sizeof(ServiceStats) == 20 * sizeof(uint64_t),
              "list the new ServiceStats field in ForEachField");

/// One request of a mixed batched submission: a whole document
/// (is_range false, offset/length ignored) or a byte range (the snippet
/// path). Plain data so network front ends can stage requests of either
/// kind into one coalesced submission (DESIGN.md §13).
struct BatchItem {
  /// Document id.
  size_t id = 0;
  /// Range start (is_range only).
  size_t offset = 0;
  /// Range length (is_range only).
  size_t length = 0;
  /// False: whole-document Get; true: GetRange.
  bool is_range = false;
  /// Service class: queue share, pop order, shed eligibility
  /// (DESIGN.md §14).
  RequestPriority priority = RequestPriority::kNormal;
  /// Absolute steady-clock expiry (ns); 0 = none. Expired requests
  /// complete kDeadlineExceeded without decoding.
  uint64_t deadline_ns = 0;
};

/// A reusable completion buffer for batched submission (DESIGN.md §10).
/// DocService::SubmitBatch fills `results()` positionally and workers
/// count the batch down as they finish; Wait() blocks until every result
/// has landed, and an optional completion hook lets an event loop learn
/// of it without blocking (DESIGN.md §13). One ServeBatch belongs to one
/// submitting caller at a time; reusing it across submissions reuses its
/// buffers, so the steady-state request path allocates nothing for
/// completion plumbing. The batch must outlive its in-flight requests —
/// the destructor enforces this by waiting.
class ServeBatch {
 public:
  ServeBatch() = default;
  /// Waits for any in-flight requests (workers write into this object).
  ~ServeBatch() { Wait(); }

  /// Not copyable/movable: workers hold pointers into this object.
  ServeBatch(const ServeBatch&) = delete;
  /// Not assignable, for the same reason.
  ServeBatch& operator=(const ServeBatch&) = delete;

  /// Blocks until every request of the current submission has completed,
  /// then returns the results, positionally parallel to the submitted
  /// ids. Idempotent; trivially returns on an idle batch.
  const std::vector<GetResult>& Wait();

  /// True when no submission is in flight (Wait() would not block).
  bool done() const {
    return remaining_.load(std::memory_order_acquire) == 0;
  }

  /// Results of the last submission (valid once Wait() has returned).
  const std::vector<GetResult>& results() const { return results_; }

  /// Number of requests in the current/last submission.
  size_t size() const { return results_.size(); }

  /// Sets the completion hook. Once per non-empty submission, the thread
  /// whose result completes it — a worker, or the submitter itself when
  /// SubmitBatch completes items inline (sheds, expiries, a stopped
  /// service) — calls the hook after every result is readable and
  /// while still holding the batch's lock, so Wait(), re-submission and
  /// destruction on another thread wait until it returns. The hook must
  /// be brief and must not wait on, re-submit or destroy this batch; a
  /// wakeup (an eventfd write, a notify) is the intended use. Set it
  /// while the batch is idle.
  void set_on_done(std::function<void()> hook) { on_done_ = std::move(hook); }

 private:
  friend class DocService;

  /// Worker-side completion: one count per delivered result. The final
  /// decrement wakes Wait() and runs the hook. Runs entirely under mu_
  /// so that a waiter returning from Wait() (and possibly destroying the
  /// batch) can never race a completing worker still inside this object.
  void CountDown();

  std::vector<GetResult> results_;
  std::vector<ServeRequest> stage_;   // per-worker submission staging
  std::vector<uint32_t> routes_;      // per-id destination worker
  std::atomic<size_t> remaining_{0};
  std::mutex mu_;
  std::condition_variable cv_;
  std::function<void()> on_done_;
};

/// The request executor of the serving layer (DESIGN.md §6, §10): a fixed
/// worker pool in front of any (thread-safe) Archive, with a sharded LRU
/// cache of decoded documents so hot documents skip factor decoding
/// entirely. Clients may call Get/MultiGet/GetRange/SubmitBatch from any
/// number of threads.
///
/// Concurrency skeleton: every worker owns a bounded request queue;
/// submission routes each request to the worker affine to its shard (via
/// the archive's ShardRouter when it has one) and enqueues a whole
/// batch's worth per queue under one lock. Idle workers steal from peers,
/// so skewed traffic cannot strand work behind one queue. Workers decode
/// without holding any lock — the scratch is worker-owned, counters are
/// atomics, and cache admission happens outside any critical section — so
/// Stats() never stalls serving.
class DocService {
 public:
  /// Starts the worker pool in front of `archive` (not owned; must be
  /// thread-safe and outlive the service). An archive with a live store
  /// (Archive::live_store) is recognized: the service routes from its
  /// epoch snapshots and registers as its eviction listener, so deletes
  /// invalidate cached decodes (DESIGN.md §11).
  explicit DocService(const Archive* archive,
                      const DocServiceOptions& options = {});
  /// Unregisters the eviction listener (if any), Shutdown() (drains
  /// accepted requests), then joins the workers.
  ~DocService();

  /// Not copyable: owns threads and per-worker accounting.
  DocService(const DocService&) = delete;
  /// Not assignable: owns threads and per-worker accounting.
  DocService& operator=(const DocService&) = delete;

  /// Asynchronously retrieves one document. Convenience path: allocates
  /// a promise per call; throughput-sensitive callers should batch
  /// through SubmitBatch instead.
  std::future<GetResult> Get(size_t id);

  /// Retrieves a batch, blocking until every result is ready. Results are
  /// positionally parallel to `ids`; individual failures are per-result.
  /// Implemented over SubmitBatch with a local batch.
  std::vector<GetResult> MultiGet(const std::vector<size_t>& ids);

  /// Asynchronously retrieves bytes [offset, offset+length) of a document
  /// (the snippet path). Served from the decode cache when the whole
  /// document is resident; otherwise uses the archive's partial decode and
  /// does not populate the cache.
  std::future<GetResult> GetRange(size_t id, size_t offset, size_t length);

  /// Batched submission (the steady-state serving path): routes each id
  /// to its shard-affine worker queue, enqueueing per-queue groups under
  /// one lock each, and arms `batch` to collect results positionally.
  /// Returns once everything is enqueued (blocking only when every queue
  /// is full — backpressure); call batch->Wait() for completion. A reused
  /// batch re-submits with zero allocations once its buffers are warm.
  /// After Shutdown(), every request completes immediately with
  /// Unavailable.
  void SubmitBatch(const std::vector<size_t>& ids, ServeBatch* batch);

  /// As above, over a raw id array.
  void SubmitBatch(const size_t* ids, size_t count, ServeBatch* batch);

  /// As above, over mixed whole-document and range requests — the
  /// network front end's coalescing path (DESIGN.md §13): requests
  /// arriving across connections are staged as BatchItems and submitted
  /// as one batch, so ranges ride the same shard-affine queues and
  /// completion buffer as whole documents.
  void SubmitBatch(const BatchItem* items, size_t count, ServeBatch* batch);

  /// Answers `item`, a whole-document or range request, from the decode
  /// cache on the calling thread: the network loop's fast path (DESIGN.md
  /// §10, §13). On a hit, fills `*result` — a whole document shares the
  /// cached bytes — counts the request and the hit, and returns true. On
  /// a miss returns false and counts nothing, so the caller submits the
  /// item and the worker's lookup is the one counted. Also false once the
  /// service is stopping (the batch path then answers Unavailable), and
  /// for a live store's id that is no longer live: no request sent after
  /// Delete returned is answered from the cache, on this path or a
  /// worker's. Priority and deadline are ignored: a hit neither queues
  /// nor waits.
  bool GetCached(const BatchItem& item, GetResult* result);

  /// Blocks until the service is momentarily idle (no queued or executing
  /// requests). Under sustained submission from other threads this keeps
  /// waiting — call it at a traffic boundary (as the bench and tests do)
  /// to make Stats() exact.
  void Drain();

  /// Graceful stop: new submissions complete immediately with
  /// Unavailable, every already-accepted request is served, then the
  /// workers are joined. Idempotent and safe to call concurrently with
  /// submissions; after it returns, Stats() is exact and the object is
  /// still valid (only destruction frees it).
  void Shutdown();

  /// Estimated wait (microseconds) a request entering the queues now
  /// would see: queued requests × EWMA per-request service time / pool
  /// size. Racy snapshot, cheap (three relaxed loads) — this is the
  /// admission watermark's input and the overload signal front ends poll
  /// (DESIGN.md §14).
  uint64_t EstimatedQueueDelayUs() const;

  /// Retry-after hint (milliseconds) to attach to shed responses: the
  /// estimated queue delay, clamped to [1 ms, 1 s] so clients neither
  /// hammer a saturated service nor stall on a transient spike.
  uint32_t SuggestedRetryAfterMs() const;

  /// Aggregated counters (exact once Drain() has returned); never blocks
  /// the workers.
  ServiceStats Stats() const;
  /// The archive requests are served from.
  const Archive& archive() const { return *archive_; }
  /// The validated options this service runs with.
  const DocServiceOptions& options() const { return options_; }

 private:
  struct Worker {
    // scratch is owned by the worker thread while serving; the counters
    // are atomics so Stats() reads them without synchronizing with a
    // decode in flight.
    DecodeScratch scratch;
    std::atomic<uint64_t> requests{0};
    std::atomic<uint64_t> failures{0};
    std::atomic<uint64_t> steals{0};
    std::atomic<uint64_t> cpu_ns{0};
    LatencyHistogram latency;
  };

  /// Destination worker for a doc id: its shard modulo the pool when
  /// `router` is non-null, id modulo the pool otherwise.
  int WorkerOf(size_t id, const ShardRouter* router) const;
  /// The routing snapshot for one submission: the live store's current
  /// epoch router (refreshed per call, so appended shards route affinely
  /// once published — a stale snapshot is a locality miss, never an
  /// error), or null for non-sharded archives.
  std::shared_ptr<const ShardRouter> RouterSnapshot() const;
  /// Accounts `n` accepted requests; false (with the count rolled back)
  /// when the service is stopping.
  bool Accept(size_t n);
  /// The shared core of the SubmitBatch overloads: `view[i]` yields the
  /// BatchItem for position i (materialized nowhere — the ids overload
  /// adapts its array on the fly, staying allocation-free).
  template <typename View>
  void SubmitBatchImpl(View view, size_t count, ServeBatch* batch);
  /// Enqueues one routed request, spilling to peers when the preferred
  /// queue is full. Returns true once enqueued. kHigh/kNormal block until
  /// a slot frees (backpressure); kBestEffort returns false when its
  /// class ring is full on every queue — the caller sheds (DESIGN.md
  /// §14), so a bulk flood can never stall a submitting thread.
  bool PushWithBackpressure(const ServeRequest& request, int dest);
  /// Completes an admitted-then-rejected request (shed or expired) with
  /// `status`, off the worker path: delivers to its promise or
  /// batch slot and runs FinishOne().
  void CompleteRejected(const ServeRequest& request, Status status);
  /// Wakes sleeping workers if any.
  void NotifyWorkers();
  /// Pops the next request for worker `index` (own queue first, then
  /// steals); sleeps when idle; returns false to exit (stopped + drained).
  bool NextRequest(int index, ServeRequest* request);
  /// Decodes, delivers, and accounts one request on `worker`.
  void Execute(const ServeRequest& request, Worker* worker);
  /// Completion bookkeeping shared by served and rejected requests.
  void FinishOne();

  /// The decode cache's entry for `id`, or null. Counts the hit, and
  /// the miss too when `count_miss`. A live store's id that is no longer
  /// live is never returned: its stale entry is dropped (the lookup still
  /// counted as a hit).
  std::shared_ptr<const std::string> CachedLive(size_t id, bool count_miss);
  GetResult DoGet(size_t id, Worker* worker);
  GetResult DoGetRange(size_t id, size_t offset, size_t length,
                       Worker* worker);
  void WorkerLoop(int index);

  const Archive* archive_;
  DocServiceOptions options_;  // validated copy
  LruCache cache_;
  // The archive's live store, or null. When set, the service routes from
  // per-submission epoch snapshots, registers itself as the store's
  // eviction listener (Delete/compaction erase stale cache entries),
  // re-checks liveness after every cache insert, and checks it on every
  // cache hit (CachedLive).
  const ShardedStore* live_store_ = nullptr;
  std::vector<std::unique_ptr<Worker>> workers_;
  std::vector<std::unique_ptr<BoundedRequestQueue>> queues_;

  std::atomic<uint64_t> cached_{0};     // requests GetCached answered
  std::atomic<uint64_t> in_flight_{0};  // accepted, not yet completed
  std::atomic<uint64_t> queued_{0};     // enqueued, not yet popped
  std::atomic<uint64_t> shed_{0};       // best-effort sheds at admission
  std::atomic<uint64_t> expired_{0};    // deadline passed while queued
  // EWMA of per-request wall service time (ns), e ← (15e + sample)/16;
  // racy read-modify-write by design — the estimate needs no precision,
  // only recency.
  std::atomic<uint64_t> ewma_service_ns_{0};
  std::atomic<bool> stopping_{false};
  std::atomic<int> sleepers_{0};        // workers blocked in NextRequest
  std::atomic<int> space_waiters_{0};   // producers blocked on full queues

  std::mutex wake_mu_;
  std::condition_variable work_cv_;   // workers: work arrived / exit
  std::condition_variable space_cv_;  // producers: a queue slot freed
  std::condition_variable idle_cv_;   // Drain/Shutdown: in_flight_ == 0

  std::mutex join_mu_;  // guards joined_ (Shutdown is idempotent)
  bool joined_ = false;
  std::vector<std::thread> threads_;
};

}  // namespace rlz

#endif  // RLZ_SERVE_DOC_SERVICE_H_
