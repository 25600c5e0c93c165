#include "build/build_pipeline.h"

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <memory>
#include <thread>

#include "util/logging.h"
#include "util/timer.h"

namespace rlz {

int AvailableCpus() {
#ifdef __linux__
  cpu_set_t mask;
  CPU_ZERO(&mask);
  if (sched_getaffinity(0, sizeof(mask), &mask) == 0) {
    return std::max(1, CPU_COUNT(&mask));
  }
#endif
  return std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
}

size_t BalancedChunkDocs(size_t num_docs, int num_threads) {
  return std::max<size_t>(
      1, num_docs / (4 * static_cast<size_t>(std::max(1, num_threads))));
}

namespace {

// Where a background pool's worker may run (DESIGN.md §7). Idle, it is
// pinned to its home CPU, the worker-th of those it may use, so the wake
// that hands it a chunk lands there; working, it may run on all of them,
// so a busy CPU does not hold it. Woken unpinned, the workers of a
// long-lived pool often queued behind one another on the CPU they had
// last run on. A short-lived pool's new threads spread by themselves,
// and pinning them cost a recovery's shard opens ~2 ms.
class WorkerCpus {
 public:
  WorkerCpus(int worker, bool pin) {
#ifdef __linux__
    pin_ = pin && sched_getaffinity(0, sizeof(all_), &all_) == 0 &&
           CPU_COUNT(&all_) > 1;
    CPU_ZERO(&home_);
    int skip = pin_ ? worker % CPU_COUNT(&all_) : 0;
    for (int cpu = 0; pin_ && cpu < CPU_SETSIZE; ++cpu) {
      if (CPU_ISSET(cpu, &all_) && skip-- == 0) {
        CPU_SET(cpu, &home_);
        break;
      }
    }
#else
    (void)worker;
    (void)pin;
#endif
  }

  void Idle() const { Use(home_); }
  void Work() const { Use(all_); }

 private:
#ifdef __linux__
  // Best effort: a failure leaves the worker where it was.
  void Use(const cpu_set_t& cpus) const {
    if (pin_) (void)sched_setaffinity(0, sizeof(cpus), &cpus);
  }

  bool pin_ = false;
  cpu_set_t all_;
  cpu_set_t home_;
#else
  void Use(int) const {}

  int all_ = 0;
  int home_ = 0;
#endif
};

}  // namespace

BuildPool::BuildPool(int num_threads, bool background)
    : num_threads_(std::max(1, num_threads)), background_(background) {
  if (num_threads_ > 1) {
    threads_.reserve(num_threads_);
    for (int w = 0; w < num_threads_; ++w) {
      threads_.emplace_back(&BuildPool::WorkerLoop, this, w);
    }
  }
}

BuildPool::~BuildPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stopping_ = true;
  }
  work_ready_.notify_all();
  for (std::thread& t : threads_) t.join();
}

void BuildPool::Run(Task task) {
  if (threads_.empty()) {
    task(0);
    return;
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    queue_.push_back(std::move(task));
  }
  work_ready_.notify_one();
}

void BuildPool::WorkerLoop(int worker) {
#ifdef __linux__
  // Nice 19 weighs about 1.5% of a default thread. Best effort: a
  // failure leaves the priority as it was.
  if (background_) (void)setpriority(PRIO_PROCESS, 0, 19);
#endif
  const WorkerCpus cpus(worker, background_);
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    if (queue_.empty() && !stopping_) {
      lock.unlock();
      cpus.Idle();
      lock.lock();
      work_ready_.wait(lock, [&] { return stopping_ || !queue_.empty(); });
      lock.unlock();
      cpus.Work();
      lock.lock();
    }
    if (queue_.empty()) {
      if (stopping_) return;
      continue;  // another worker took the chunk meanwhile
    }
    Task task = std::move(queue_.front());
    queue_.pop_front();
    lock.unlock();
    task(worker);
    task = nullptr;
    lock.lock();
  }
}

BuildPipeline::BuildPipeline(BuildPool* pool)
    : pool_(pool),
      max_inflight_(4 * static_cast<size_t>(pool->num_threads())),
      worker_cpu_(static_cast<size_t>(pool->num_threads()), 0.0) {}

BuildPipeline::~BuildPipeline() {
  if (!finished_) Finish();
}

void BuildPipeline::Submit(EncodeFn encode, MergeFn merge) {
  RLZ_CHECK(!finished_) << "Submit after Finish";
  uint64_t seq = 0;
  {
    std::unique_lock<std::mutex> lock(mu_);
    space_free_.wait(lock, [&] { return in_flight_ < max_inflight_; });
    ++in_flight_;
    seq = next_seq_++;
  }
  pool_->Run([this, seq, encode = std::move(encode),
              merge = std::move(merge)](int worker) mutable {
    RunChunk(worker, seq, std::move(encode), std::move(merge));
  });
}

void BuildPipeline::RunChunk(int worker, uint64_t seq, EncodeFn encode,
                             MergeFn merge) {
  const double encode_start = ThreadCpuSeconds();
  encode(worker);
  worker_cpu_[worker] += ThreadCpuSeconds() - encode_start;
  // Release the encode's captures now: once the last merge is counted,
  // Finish may return and the run's owner go away.
  encode = nullptr;

  // Ordered merge: park this chunk's merge, then — if the next-in-order
  // chunk is ready and nobody else is merging — drain every consecutive
  // ready merge. Merges run outside the lock (merging_ keeps them
  // mutually exclusive), so other workers keep encoding meanwhile.
  std::unique_lock<std::mutex> lock(mu_);
  ready_.emplace(seq, std::move(merge));
  while (!merging_ && !ready_.empty() &&
         ready_.begin()->first == next_merge_) {
    MergeFn next = std::move(ready_.begin()->second);
    ready_.erase(ready_.begin());
    merging_ = true;
    lock.unlock();
    const double merge_start = ThreadCpuSeconds();
    next();
    next = nullptr;
    worker_cpu_[worker] += ThreadCpuSeconds() - merge_start;
    lock.lock();
    merging_ = false;
    ++next_merge_;
    --in_flight_;
    space_free_.notify_all();
    if (in_flight_ == 0) all_merged_.notify_all();
  }
}

BuildPipelineStats BuildPipeline::Finish() {
  RLZ_CHECK(!finished_) << "Finish called twice";
  finished_ = true;
  {
    std::unique_lock<std::mutex> lock(mu_);
    all_merged_.wait(lock, [&] { return in_flight_ == 0; });
  }
  BuildPipelineStats stats;
  stats.chunks = next_seq_;
  stats.num_threads = pool_->num_threads();
  stats.worker_cpu_seconds = worker_cpu_;
  return stats;
}

void BuildPipeline::SubmitChunkedEncode(
    size_t num_items, size_t chunk_items,
    std::function<void(DocRange, EncodedChunk*, int)> encode,
    std::function<void(DocRange, const EncodedChunk&)> merge) {
  for (const DocRange& range : Partition(num_items, chunk_items)) {
    auto chunk = std::make_shared<EncodedChunk>();
    Submit(
        [encode, range, chunk](int worker) {
          encode(range, chunk.get(), worker);
        },
        [merge, range, chunk]() { merge(range, *chunk); });
  }
}

std::vector<DocRange> BuildPipeline::Partition(size_t num_docs,
                                               size_t chunk_docs) {
  RLZ_CHECK(chunk_docs >= 1);
  std::vector<DocRange> ranges;
  ranges.reserve(num_docs / chunk_docs + 1);
  for (size_t begin = 0; begin < num_docs; begin += chunk_docs) {
    ranges.push_back(DocRange{begin, std::min(num_docs, begin + chunk_docs)});
  }
  return ranges;
}

}  // namespace rlz
