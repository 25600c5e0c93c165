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

BuildPipeline::BuildPipeline(const BuildPipelineOptions& options)
    : num_threads_(std::max(1, options.num_threads)),
      background_(options.background),
      max_inflight_(4 * static_cast<size_t>(num_threads_)) {
  worker_cpu_.assign(static_cast<size_t>(num_threads_), 0.0);
  if (num_threads_ > 1) {
    threads_.reserve(num_threads_);
    for (int w = 0; w < num_threads_; ++w) {
      threads_.emplace_back(&BuildPipeline::WorkerLoop, this, w);
    }
  }
}

BuildPipeline::~BuildPipeline() {
  if (!finished_) Finish();
}

void BuildPipeline::Submit(EncodeFn encode, MergeFn merge) {
  RLZ_CHECK(!finished_) << "Submit after Finish";
  ++chunks_submitted_;
  if (threads_.empty()) {
    // Inline serial path: encode-then-merge immediately. This IS the
    // reference ordering the parallel path reproduces.
    const double start = ThreadCpuSeconds();
    encode(0);
    merge();
    worker_cpu_[0] += ThreadCpuSeconds() - start;
    return;
  }
  std::unique_lock<std::mutex> lock(mu_);
  space_free_.wait(lock, [&] { return in_flight_ < max_inflight_; });
  ++in_flight_;
  queue_.push_back(Task{next_seq_++, std::move(encode), std::move(merge)});
  lock.unlock();
  work_ready_.notify_one();
}

void BuildPipeline::WorkerLoop(int worker) {
#ifdef __linux__
  // Nice 19 weighs about 1.5% of a default thread. Best effort: a
  // failure leaves the priority as it was.
  if (background_) (void)setpriority(PRIO_PROCESS, 0, 19);
#endif
  for (;;) {
    Task task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      work_ready_.wait(lock, [&] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stopping_ and drained
      task = std::move(queue_.front());
      queue_.pop_front();
    }

    const double encode_start = ThreadCpuSeconds();
    task.encode(worker);
    worker_cpu_[worker] += ThreadCpuSeconds() - encode_start;

    // Ordered merge: park this chunk's merge, then — if the next-in-order
    // chunk is ready and nobody else is merging — drain every consecutive
    // ready merge. Merges run outside the lock (merging_ keeps them
    // mutually exclusive), so other workers keep encoding meanwhile.
    std::unique_lock<std::mutex> lock(mu_);
    ready_.emplace(task.seq, std::move(task.merge));
    while (!merging_ && !ready_.empty() &&
           ready_.begin()->first == next_merge_) {
      MergeFn merge = std::move(ready_.begin()->second);
      ready_.erase(ready_.begin());
      merging_ = true;
      lock.unlock();
      const double merge_start = ThreadCpuSeconds();
      merge();
      worker_cpu_[worker] += ThreadCpuSeconds() - merge_start;
      lock.lock();
      merging_ = false;
      ++next_merge_;
      --in_flight_;
      space_free_.notify_all();
      if (in_flight_ == 0) all_merged_.notify_all();
    }
  }
}

BuildPipelineStats BuildPipeline::Finish() {
  RLZ_CHECK(!finished_) << "Finish called twice";
  finished_ = true;
  if (!threads_.empty()) {
    {
      std::unique_lock<std::mutex> lock(mu_);
      all_merged_.wait(lock, [&] { return in_flight_ == 0; });
      stopping_ = true;
    }
    work_ready_.notify_all();
    for (std::thread& t : threads_) t.join();
    threads_.clear();
  }
  BuildPipelineStats stats;
  stats.chunks = chunks_submitted_;
  stats.num_threads = num_threads_;
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
