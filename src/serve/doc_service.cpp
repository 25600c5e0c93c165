#include "serve/doc_service.h"

#include <algorithm>
#include <chrono>
#include <utility>

#include "serve/sharded_store.h"
#include "util/logging.h"
#include "util/timer.h"  // ThreadCpuSeconds (shared with the build pipeline)

namespace rlz {
namespace {

// Mutex stripes of the decode cache (LruCache rounds to a power of two).
constexpr int kCacheShards = 16;
// kNormal's share of queue_depth: just under 1, so a normal-priority
// flood can never take the last slots a high-priority burst needs.
constexpr double kNormalQueueFraction = 0.9;
// kBestEffort's share: bulk traffic rides along at light load and hits
// its cap (shedding instead of queue-building) under heavy load.
constexpr double kBestEffortQueueFraction = 0.5;

// Steady-clock stamp for queue+service latency accounting.
uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

// The answer to a range request from its resident whole document:
// bytes [offset, offset + length), clamped to the document's end.
std::shared_ptr<const std::string> Slice(const std::string& doc,
                                         size_t offset, size_t length) {
  std::string slice;
  if (offset < doc.size()) {
    slice.assign(doc, offset, std::min(length, doc.size() - offset));
  }
  return std::make_shared<const std::string>(std::move(slice));
}

}  // namespace

DocServiceOptions DocServiceOptions::Validated() const {
  DocServiceOptions v = *this;
  if (v.num_threads < 1) v.num_threads = 1;
  if (v.queue_depth < 1) v.queue_depth = 1;
  // A capacity that cannot admit even an empty value is a disabled cache.
  if (v.cache_bytes > 0 && v.cache_bytes <= LruCache::kEntryOverheadBytes) {
    v.cache_bytes = 0;
  }
  return v;
}

const std::vector<GetResult>& ServeBatch::Wait() {
  // Always acquires mu_ (no lock-free fast path): CountDown runs entirely
  // under mu_, so once Wait() has taken the lock and seen zero, no worker
  // is still inside this object — the caller may immediately reuse or
  // destroy the batch.
  std::unique_lock<std::mutex> lock(mu_);
  cv_.wait(lock, [&] {
    return remaining_.load(std::memory_order_acquire) == 0;
  });
  return results_;
}

void ServeBatch::CountDown() {
  std::lock_guard<std::mutex> lock(mu_);
  if (remaining_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    cv_.notify_all();
    if (on_done_) on_done_();
  }
}

DocService::DocService(const Archive* archive,
                       const DocServiceOptions& options)
    : archive_(archive),
      options_(options.Validated()),
      cache_(options_.cache_bytes, kCacheShards) {
  RLZ_CHECK(archive != nullptr);
  // Queue-per-shard routing: when the archive is sharded, its router maps
  // doc ids to shards, and requests for one shard always land on the same
  // worker (shard mod pool), so each worker's decode locality is per
  // shard. Other archives route by id. The router is re-snapshotted per
  // submission (the store is live and grows shards); the eviction hook
  // keeps the decode cache honest across Delete and compaction.
  live_store_ = archive->live_store();
  if (live_store_ != nullptr) {
    live_store_->SetEvictionListener(
        [this](size_t id) { cache_.Erase(id); });
  }
  const int num_threads = options_.num_threads;
  workers_.reserve(num_threads);
  queues_.reserve(num_threads);
  threads_.reserve(num_threads);
  // Weighted class capacities (DESIGN.md §14): kHigh owns the full
  // depth; lower classes get fixed shares, so the gap between a lower
  // class's cap and the full depth is headroom only higher classes can
  // use.
  const size_t depth = static_cast<size_t>(options_.queue_depth);
  const size_t class_caps[kNumPriorities] = {
      depth, static_cast<size_t>(depth * kNormalQueueFraction),
      static_cast<size_t>(depth * kBestEffortQueueFraction)};
  for (int i = 0; i < num_threads; ++i) {
    workers_.push_back(std::make_unique<Worker>());
    queues_.push_back(std::make_unique<BoundedRequestQueue>(class_caps));
  }
  for (int i = 0; i < num_threads; ++i) {
    threads_.emplace_back(&DocService::WorkerLoop, this, i);
  }
}

DocService::~DocService() {
  // Unregister first: SetEvictionListener(nullptr) blocks until any
  // in-flight callback returns, so no mutator can touch this service's
  // cache once the teardown proceeds.
  if (live_store_ != nullptr) live_store_->SetEvictionListener(nullptr);
  Shutdown();
}

void DocService::Shutdown() {
  stopping_.store(true);
  {
    std::lock_guard<std::mutex> lock(wake_mu_);
    work_cv_.notify_all();
  }
  Drain();
  {
    // Re-notify after the drain so sleeping workers re-evaluate the exit
    // predicate (stopping_ && in_flight_ == 0).
    std::lock_guard<std::mutex> lock(wake_mu_);
    work_cv_.notify_all();
  }
  std::lock_guard<std::mutex> join_lock(join_mu_);
  if (!joined_) {
    for (std::thread& t : threads_) t.join();
    joined_ = true;
  }
}

int DocService::WorkerOf(size_t id, const ShardRouter* router) const {
  const size_t num_workers = workers_.size();
  if (router != nullptr && id < router->num_docs()) {
    return static_cast<int>(router->shard_of(id) % num_workers);
  }
  // Tail documents (and non-sharded archives) route by id: the tail is
  // memory-resident, so affinity buys nothing there.
  return static_cast<int>(id % num_workers);
}

std::shared_ptr<const ShardRouter> DocService::RouterSnapshot() const {
  return live_store_ != nullptr ? live_store_->router_snapshot() : nullptr;
}

bool DocService::Accept(size_t n) {
  in_flight_.fetch_add(n);
  if (!stopping_.load()) return true;
  // Stopping: roll the count back; if that made the service idle, wake
  // Drain() waiters and exiting workers.
  if (in_flight_.fetch_sub(n) == n) {
    std::lock_guard<std::mutex> lock(wake_mu_);
    idle_cv_.notify_all();
    work_cv_.notify_all();
  }
  return false;
}

void DocService::NotifyWorkers() {
  if (sleepers_.load() == 0) return;
  std::lock_guard<std::mutex> lock(wake_mu_);
  work_cv_.notify_all();
}

bool DocService::PushWithBackpressure(const ServeRequest& request, int dest) {
  const int num_queues = static_cast<int>(queues_.size());
  for (;;) {
    // Preferred queue first, then spill to peers: any worker can serve
    // any request (routing is a locality optimization, not an ownership
    // constraint), so a full queue under skew never blocks while a peer
    // has room.
    for (int k = 0; k < num_queues; ++k) {
      const int w = (dest + k) % num_queues;
      if (queues_[w]->TryPush(request)) {
        queued_.fetch_add(1);
        NotifyWorkers();
        return true;
      }
    }
    // This class's ring is full on every queue. Best-effort sheds rather
    // than blocks (DESIGN.md §14): a bulk flood must never stall the
    // submitting thread — for the network front end that thread is the
    // event loop serving every connection.
    if (request.priority == RequestPriority::kBestEffort) return false;
    // Higher classes: bounded-memory backpressure. The request was
    // already accepted (in_flight_ counts it), so workers stay alive
    // until it is enqueued and served — even mid-Shutdown.
    std::unique_lock<std::mutex> lock(wake_mu_);
    space_waiters_.fetch_add(1);
    space_cv_.wait(lock, [&] {
      for (int w = 0; w < num_queues; ++w) {
        if (queues_[w]->HasRoom(request.priority)) return true;
      }
      return false;
    });
    space_waiters_.fetch_sub(1);
  }
}

void DocService::CompleteRejected(const ServeRequest& request, Status status) {
  if (request.promise != nullptr) {
    GetResult result;
    result.status = std::move(status);
    request.promise->set_value(std::move(result));
    delete request.promise;
  } else if (request.out != nullptr) {
    request.out->status = std::move(status);
    if (request.batch != nullptr) request.batch->CountDown();
  }
  FinishOne();
}

void DocService::SubmitBatch(const std::vector<size_t>& ids,
                             ServeBatch* batch) {
  SubmitBatch(ids.data(), ids.size(), batch);
}

namespace {

// Adapters for SubmitBatchImpl: a raw id array viewed as whole-document
// items, and a BatchItem array viewed as itself. Both are trivially
// copyable views — nothing is materialized.
struct IdsAsItems {
  const size_t* ids;
  BatchItem operator[](size_t i) const {
    BatchItem item;
    item.id = ids[i];
    return item;
  }
};

struct ItemsView {
  const BatchItem* items;
  const BatchItem& operator[](size_t i) const { return items[i]; }
};

}  // namespace

void DocService::SubmitBatch(const size_t* ids, size_t count,
                             ServeBatch* batch) {
  SubmitBatchImpl(IdsAsItems{ids}, count, batch);
}

void DocService::SubmitBatch(const BatchItem* items, size_t count,
                             ServeBatch* batch) {
  SubmitBatchImpl(ItemsView{items}, count, batch);
}

template <typename View>
void DocService::SubmitBatchImpl(View view, size_t count, ServeBatch* batch) {
  RLZ_CHECK(batch != nullptr);
  batch->Wait();  // a reused batch must be idle before it is re-armed
  batch->results_.clear();
  batch->results_.resize(count);
  if (count == 0) return;
  batch->remaining_.store(count, std::memory_order_release);
  if (!Accept(count)) {
    for (size_t i = 0; i < count; ++i) {
      batch->results_[i].status = Status::Unavailable("stopping");
      batch->CountDown();
    }
    return;
  }
  const uint64_t now_ns = NowNs();
  const int num_workers = static_cast<int>(workers_.size());
  // Admission (DESIGN.md §14): one watermark reading per submission —
  // when the estimated queue wait is past the shed bound, every
  // best-effort item of this batch is shed up front, before any routing
  // or enqueue work is spent on it.
  const uint64_t watermark_us = options_.shed_queue_delay_us;
  const bool overloaded =
      watermark_us != 0 && EstimatedQueueDelayUs() > watermark_us;
  // One routing snapshot per submission: every id in this batch routes
  // against the same epoch's boundaries. kRejectedRoute marks positions
  // completed at admission (shed or already expired) that must not be
  // staged.
  constexpr uint32_t kRejectedRoute = ~uint32_t{0};
  const std::shared_ptr<const ShardRouter> router = RouterSnapshot();
  std::vector<uint32_t>& routes = batch->routes_;
  routes.resize(count);
  for (size_t i = 0; i < count; ++i) {
    const BatchItem item = view[i];
    if (item.deadline_ns != 0 && now_ns >= item.deadline_ns) {
      expired_.fetch_add(1, std::memory_order_relaxed);
      batch->results_[i].status =
          Status::DeadlineExceeded("deadline passed before admission");
      batch->CountDown();
      FinishOne();
      routes[i] = kRejectedRoute;
      continue;
    }
    if (overloaded && item.priority == RequestPriority::kBestEffort) {
      shed_.fetch_add(1, std::memory_order_relaxed);
      batch->results_[i].status =
          Status::Unavailable("overloaded: best-effort request shed");
      batch->CountDown();
      FinishOne();
      routes[i] = kRejectedRoute;
      continue;
    }
    routes[i] = static_cast<uint32_t>(WorkerOf(item.id, router.get()));
  }
  // One staging pass per destination: the whole per-worker group is
  // enqueued under a single lock acquisition of that worker's queue.
  std::vector<ServeRequest>& stage = batch->stage_;
  for (int w = 0; w < num_workers; ++w) {
    stage.clear();
    for (size_t i = 0; i < count; ++i) {
      if (routes[i] != static_cast<uint32_t>(w)) continue;
      const BatchItem item = view[i];
      ServeRequest request;
      request.id = item.id;
      request.offset = item.offset;
      request.length = item.length;
      request.is_range = item.is_range;
      request.priority = item.priority;
      request.deadline_ns = item.deadline_ns;
      request.enqueue_ns = now_ns;
      request.out = &batch->results_[i];
      request.batch = batch;
      stage.push_back(request);
    }
    if (stage.empty()) continue;
    const size_t pushed = queues_[w]->TryPushMany(stage.data(), stage.size());
    if (pushed > 0) {
      queued_.fetch_add(pushed);
      NotifyWorkers();
    }
    for (size_t i = pushed; i < stage.size(); ++i) {
      if (!PushWithBackpressure(stage[i], w)) {
        // Best-effort with its class rings full everywhere: shed.
        shed_.fetch_add(1, std::memory_order_relaxed);
        CompleteRejected(stage[i],
                         Status::Unavailable("overloaded: queue full"));
      }
    }
  }
}

std::future<GetResult> DocService::Get(size_t id) {
  auto* promise = new std::promise<GetResult>();
  std::future<GetResult> future = promise->get_future();
  if (!Accept(1)) {
    GetResult rejected;
    rejected.status = Status::Unavailable("stopping");
    promise->set_value(std::move(rejected));
    delete promise;
    return future;
  }
  ServeRequest request;
  request.id = id;
  request.enqueue_ns = NowNs();
  request.promise = promise;
  PushWithBackpressure(request, WorkerOf(id, RouterSnapshot().get()));
  return future;
}

std::future<GetResult> DocService::GetRange(size_t id, size_t offset,
                                            size_t length) {
  auto* promise = new std::promise<GetResult>();
  std::future<GetResult> future = promise->get_future();
  if (!Accept(1)) {
    GetResult rejected;
    rejected.status = Status::Unavailable("stopping");
    promise->set_value(std::move(rejected));
    delete promise;
    return future;
  }
  ServeRequest request;
  request.id = id;
  request.offset = offset;
  request.length = length;
  request.is_range = true;
  request.enqueue_ns = NowNs();
  request.promise = promise;
  PushWithBackpressure(request, WorkerOf(id, RouterSnapshot().get()));
  return future;
}

std::vector<GetResult> DocService::MultiGet(const std::vector<size_t>& ids) {
  ServeBatch batch;
  SubmitBatch(ids, &batch);
  batch.Wait();
  return std::move(batch.results_);
}

void DocService::WorkerLoop(int index) {
  Worker* worker = workers_[index].get();
  ServeRequest request;
  while (NextRequest(index, &request)) {
    Execute(request, worker);
  }
}

bool DocService::NextRequest(int index, ServeRequest* request) {
  const int num_queues = static_cast<int>(queues_.size());
  Worker* self = workers_[index].get();
  for (;;) {
    // Own queue first (shard affinity), then steal round-robin from peers
    // so skewed routing cannot strand work behind one busy worker.
    for (int k = 0; k < num_queues; ++k) {
      const int w = (index + k) % num_queues;
      if (queues_[w]->TryPop(request)) {
        queued_.fetch_sub(1);
        if (k != 0) self->steals.fetch_add(1, std::memory_order_relaxed);
        if (space_waiters_.load() > 0) {
          std::lock_guard<std::mutex> lock(wake_mu_);
          space_cv_.notify_all();
        }
        return true;
      }
    }
    std::unique_lock<std::mutex> lock(wake_mu_);
    sleepers_.fetch_add(1);
    work_cv_.wait(lock, [&] {
      return queued_.load() > 0 ||
             (stopping_.load() && in_flight_.load() == 0);
    });
    sleepers_.fetch_sub(1);
    if (queued_.load() == 0 && stopping_.load() && in_flight_.load() == 0) {
      return false;
    }
  }
}

void DocService::Execute(const ServeRequest& request, Worker* worker) {
  const uint64_t start_ns = NowNs();
  if (request.deadline_ns != 0 && start_ns >= request.deadline_ns) {
    // Expired while queued: the answer is useless, so complete without
    // decoding a byte (DESIGN.md §14). Counts as a request and a failure
    // so per-worker accounting stays consistent with delivery.
    expired_.fetch_add(1, std::memory_order_relaxed);
    worker->requests.fetch_add(1, std::memory_order_relaxed);
    worker->failures.fetch_add(1, std::memory_order_relaxed);
    worker->latency.Record(start_ns - request.enqueue_ns);
    CompleteRejected(request,
                     Status::DeadlineExceeded("deadline passed in queue"));
    return;
  }
  const double cpu_start = ThreadCpuSeconds();
  GetResult result =
      request.is_range
          ? DoGetRange(request.id, request.offset, request.length, worker)
          : DoGet(request.id, worker);
  worker->requests.fetch_add(1, std::memory_order_relaxed);
  if (!result.ok()) {
    worker->failures.fetch_add(1, std::memory_order_relaxed);
  }
  const double cpu_seconds = ThreadCpuSeconds() - cpu_start;
  worker->cpu_ns.fetch_add(static_cast<uint64_t>(cpu_seconds * 1e9),
                           std::memory_order_relaxed);
  const uint64_t end_ns = NowNs();
  // Feed the admission estimator: EWMA of wall service time. Lost
  // updates under contention are fine — the watermark needs recency, not
  // an exact mean.
  const uint64_t service_ns = end_ns - start_ns;
  const uint64_t ewma = ewma_service_ns_.load(std::memory_order_relaxed);
  ewma_service_ns_.store(
      ewma == 0 ? service_ns : (ewma * 15 + service_ns) / 16,
      std::memory_order_relaxed);
  worker->latency.Record(end_ns - request.enqueue_ns);
  if (request.promise != nullptr) {
    request.promise->set_value(std::move(result));
    delete request.promise;
  } else if (request.out != nullptr) {
    *request.out = std::move(result);
    if (request.batch != nullptr) request.batch->CountDown();
  }
  FinishOne();
}

void DocService::FinishOne() {
  if (in_flight_.fetch_sub(1) == 1) {
    std::lock_guard<std::mutex> lock(wake_mu_);
    idle_cv_.notify_all();
    if (stopping_.load()) work_cv_.notify_all();
  }
}

std::shared_ptr<const std::string> DocService::CachedLive(size_t id,
                                                         bool count_miss) {
  std::shared_ptr<const std::string> doc = cache_.Get(id, count_miss);
  // DoGet inserts a decode and then re-checks liveness, so a decode that
  // raced a Delete can sit in the cache for a moment after Delete has
  // returned. A dead id is never answered from the cache: its entry is
  // dropped, and the caller decodes against the current epoch
  // (NotFound).
  if (doc != nullptr && live_store_ != nullptr && !live_store_->IsLive(id)) {
    cache_.Erase(id);
    return nullptr;
  }
  return doc;
}

GetResult DocService::DoGet(size_t id, Worker* worker) {
  GetResult result;
  result.text = CachedLive(id, /*count_miss=*/true);
  if (result.text == nullptr) {
    // Decode runs lock-free: the scratch is worker-owned, and cache
    // admission below synchronizes only inside the cache's own stripe.
    std::string doc;
    result.status = archive_->Get(id, &doc, /*disk=*/nullptr,
                                  &worker->scratch);
    if (result.status.ok()) {
      result.text = cache_.Insert(id, std::move(doc));
      // Close the decode-then-insert race against Delete: the decode ran
      // against an epoch pinned before the tombstone published, and the
      // eviction callback may already have fired (finding nothing to
      // erase) before the Insert above landed. Re-checking liveness after
      // the insert guarantees no tombstoned id stays cached once Delete
      // has returned. The caller still gets the bytes — its request
      // raced the delete and won under snapshot isolation.
      if (live_store_ != nullptr && !live_store_->IsLive(id)) {
        cache_.Erase(id);
      }
    }
  }
  return result;
}

GetResult DocService::DoGetRange(size_t id, size_t offset, size_t length,
                                 Worker* worker) {
  GetResult result;
  // A resident full document serves any range without touching the archive.
  if (std::shared_ptr<const std::string> doc =
          CachedLive(id, /*count_miss=*/true)) {
    result.text = Slice(*doc, offset, length);
  } else {
    std::string slice;
    result.status = archive_->GetRange(id, offset, length, &slice,
                                       /*disk=*/nullptr, &worker->scratch);
    if (result.status.ok()) {
      result.text = std::make_shared<const std::string>(std::move(slice));
    }
  }
  return result;
}

bool DocService::GetCached(const BatchItem& item, GetResult* result) {
  if (stopping_.load(std::memory_order_relaxed)) return false;
  std::shared_ptr<const std::string> doc =
      CachedLive(item.id, /*count_miss=*/false);
  if (doc == nullptr) return false;
  result->status = Status::OK();
  result->text =
      item.is_range ? Slice(*doc, item.offset, item.length) : std::move(doc);
  cached_.fetch_add(1, std::memory_order_relaxed);
  return true;
}

void DocService::Drain() {
  std::unique_lock<std::mutex> lock(wake_mu_);
  idle_cv_.wait(lock, [&] { return in_flight_.load() == 0; });
}

uint64_t DocService::EstimatedQueueDelayUs() const {
  const uint64_t queued = queued_.load(std::memory_order_relaxed);
  const uint64_t ewma_ns = ewma_service_ns_.load(std::memory_order_relaxed);
  return queued * ewma_ns / (1000 * static_cast<uint64_t>(workers_.size()));
}

uint32_t DocService::SuggestedRetryAfterMs() const {
  const uint64_t ms = EstimatedQueueDelayUs() / 1000;
  return static_cast<uint32_t>(
      std::min<uint64_t>(std::max<uint64_t>(ms, 1), 1000));
}

ServiceStats DocService::Stats() const {
  ServiceStats stats;
  stats.num_threads = static_cast<int>(workers_.size());
  stats.cache = cache_.stats();
  stats.cached = cached_.load(std::memory_order_relaxed);
  stats.requests = stats.cached;
  stats.queued = queued_.load(std::memory_order_relaxed);
  stats.shed = shed_.load(std::memory_order_relaxed);
  stats.expired = expired_.load(std::memory_order_relaxed);
  LatencyHistogram::Snapshot latency;
  for (const auto& worker : workers_) {
    stats.requests += worker->requests.load(std::memory_order_relaxed);
    stats.failures += worker->failures.load(std::memory_order_relaxed);
    stats.steals += worker->steals.load(std::memory_order_relaxed);
    const double cpu_seconds =
        1e-9 * static_cast<double>(
                   worker->cpu_ns.load(std::memory_order_relaxed));
    stats.cpu_seconds += cpu_seconds;
    stats.critical_path_seconds =
        std::max(stats.critical_path_seconds, cpu_seconds);
    worker->latency.AddTo(&latency);
  }
  stats.latency_p50_us = 1e-3 * latency.ValueAtQuantile(0.50);
  stats.latency_p99_us = 1e-3 * latency.ValueAtQuantile(0.99);
  stats.latency_p999_us = 1e-3 * latency.ValueAtQuantile(0.999);
  return stats;
}

}  // namespace rlz
