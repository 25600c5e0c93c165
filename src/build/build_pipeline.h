#ifndef RLZ_BUILD_BUILD_PIPELINE_H_
#define RLZ_BUILD_BUILD_PIPELINE_H_

/// \file
/// The build worker pool and the chunked ordered-merge runs over it
/// (DESIGN.md §7).

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace rlz {

/// A contiguous range of document ids: [begin, end).
struct DocRange {
  /// First document id of the range.
  size_t begin = 0;
  /// One past the last document id of the range.
  size_t end = 0;

  /// Number of documents in the range.
  size_t size() const { return end - begin; }
};

/// Accounting from one pipeline run (valid after Finish()).
struct BuildPipelineStats {
  /// Chunks submitted over the pipeline's lifetime.
  size_t chunks = 0;
  /// Worker count of the pool the run used (1 for an inline pool).
  int num_threads = 1;
  /// Thread-CPU seconds per worker (encode + the merges that worker ran).
  std::vector<double> worker_cpu_seconds;

  /// Sum of all workers' CPU seconds — the work a serial build would do.
  double total_cpu_seconds() const {
    double total = 0.0;
    for (double s : worker_cpu_seconds) total += s;
    return total;
  }
  /// The busiest worker's CPU seconds: the modeled build makespan on a
  /// machine with one core per worker (the simulated-wall-time doctrine
  /// of DESIGN.md §4/§6 applied to the build path, §7).
  double critical_path_seconds() const {
    double max = 0.0;
    for (double s : worker_cpu_seconds) max = max > s ? max : s;
    return max;
  }
};

/// CPUs this process may run on: the size of its affinity mask (which a
/// container or `taskset` pin shrinks), else hardware_concurrency(); >= 1.
int AvailableCpus();

/// Batch chunk size: ~4 chunks per worker, so one skewed range cannot
/// serialize the end of a build. >= 1; never changes output bytes.
size_t BalancedChunkDocs(size_t num_docs, int num_threads);

/// Long-lived build workers (DESIGN.md §7). BuildPipeline runs submit
/// their chunks here; any number of runs may share one pool at once.
/// With num_threads <= 1 the pool starts no thread and every chunk runs
/// inline on the submitting thread — the serial build, with identical
/// output by construction.
class BuildPool {
 public:
  /// Starts `num_threads` workers (none for num_threads <= 1). With
  /// `background` they run at the lowest CPU
  /// priority, nice 19 (Linux keeps nice per thread), so a build beside
  /// serving threads — a live store's seals and compactions — takes only
  /// the CPU they leave idle; and, since such a pool lives long and
  /// sleeps between builds, an idle worker waits pinned to a CPU of its
  /// own, so a build's wakes spread its workers over the CPUs.
  explicit BuildPool(int num_threads = 1, bool background = false);
  /// Stops and joins the workers. Every run on the pool must have
  /// finished.
  ~BuildPool();

  /// Not copyable: owns worker threads.
  BuildPool(const BuildPool&) = delete;
  /// Not assignable: owns worker threads.
  BuildPool& operator=(const BuildPool&) = delete;

  /// Worker count; an encode callback's worker index is below it.
  int num_threads() const { return num_threads_; }

 private:
  friend class BuildPipeline;
  using Task = std::function<void(int)>;

  /// Queues `task` for the next free worker, or runs task(0) inline when
  /// the pool has no thread.
  void Run(Task task);
  void WorkerLoop(int worker);

  const int num_threads_;
  const bool background_;
  std::mutex mu_;
  std::condition_variable work_ready_;  // queue_ gained a task / stopping
  std::deque<Task> queue_;
  bool stopping_ = false;
  std::vector<std::thread> threads_;
};

/// One chunked build run with ordered merges over a BuildPool (DESIGN.md
/// §7). Work is submitted as ordered chunks; each chunk's `encode` runs
/// concurrently on a pool worker, and its `merge` runs exactly once,
/// after the chunk's own encode AND the merges of all earlier chunks —
/// i.e. merges are serialized in submission order, on whichever worker
/// completed the ready chunk. Because chunks are merged in submission
/// order and encode work is chunk-local, the merged output is
/// byte-identical to running every (encode, merge) pair inline in order —
/// for ANY pool size, chunk size, or scheduling.
///
/// Submit is single-producer: call it (and Finish) from one thread, which
/// must not be one of the pool's workers. Encode callbacks receive the
/// worker index [0, pool->num_threads()) so callers can keep per-worker
/// state (e.g. one Factorizer per worker) without locking; merge
/// callbacks never run concurrently with each other.
class BuildPipeline {
 public:
  /// Encodes one chunk into chunk-local storage. The int argument is the
  /// executing worker's index.
  using EncodeFn = std::function<void(int)>;
  /// Appends one encoded chunk to the shared output. Runs serialized, in
  /// submission order.
  using MergeFn = std::function<void()>;

  /// A run on `pool`, which must outlive it.
  explicit BuildPipeline(BuildPool* pool);
  /// Waits for every submitted chunk; prefer calling Finish() explicitly
  /// for the stats.
  ~BuildPipeline();

  /// Not copyable: holds in-flight chunk state.
  BuildPipeline(const BuildPipeline&) = delete;
  /// Not assignable: holds in-flight chunk state.
  BuildPipeline& operator=(const BuildPipeline&) = delete;

  /// Enqueues one chunk. Blocks while 4 x num_threads chunks of this run
  /// are admitted but unmerged (backpressure, so a streaming producer
  /// cannot buffer an entire collection ahead of the workers). On an
  /// inline pool, runs encode(0) and merge() before returning.
  void Submit(EncodeFn encode, MergeFn merge);

  /// Waits until every submitted chunk has merged and returns the
  /// accounting. Submit must not be called afterwards.
  BuildPipelineStats Finish();

  /// Splits [0, num_docs) into successive ranges of `chunk_docs`
  /// documents (the last may be short). chunk_docs must be >= 1.
  static std::vector<DocRange> Partition(size_t num_docs, size_t chunk_docs);

  /// The chunk shape shared by the concrete builds: a byte payload plus
  /// one encoded size per item in the chunk's range.
  struct EncodedChunk {
    /// Concatenated encoded bytes for the range.
    std::string payload;
    /// Encoded size per item, in range order; sums to payload.size().
    std::vector<uint64_t> item_sizes;
  };

  /// Convenience over Submit for the payload+sizes chunk shape:
  /// partitions [0, num_items) into ranges of `chunk_items`, runs
  /// `encode(range, chunk, worker)` concurrently to fill each chunk, and
  /// hands the filled chunk to `merge(range, chunk)` serialized in range
  /// order. Call Finish() afterwards as usual.
  void SubmitChunkedEncode(
      size_t num_items, size_t chunk_items,
      std::function<void(DocRange, EncodedChunk*, int)> encode,
      std::function<void(DocRange, const EncodedChunk&)> merge);

 private:
  /// A pool task: encodes chunk `seq`, then runs every consecutive ready
  /// merge.
  void RunChunk(int worker, uint64_t seq, EncodeFn encode, MergeFn merge);

  BuildPool* pool_;
  size_t max_inflight_;

  std::mutex mu_;
  std::condition_variable space_free_;   // in_flight_ dropped below cap
  std::condition_variable all_merged_;   // in_flight_ reached zero
  std::map<uint64_t, MergeFn> ready_;    // encoded, awaiting ordered merge
  uint64_t next_seq_ = 0;                // next submission sequence number
  uint64_t next_merge_ = 0;              // next sequence allowed to merge
  size_t in_flight_ = 0;                 // admitted, not yet merged
  bool merging_ = false;                 // a worker is inside a merge
  bool finished_ = false;

  // Index w is written only by pool worker w (or, on an inline pool, by
  // the producer); Finish reads it once every chunk has merged.
  std::vector<double> worker_cpu_;
};

}  // namespace rlz

#endif  // RLZ_BUILD_BUILD_PIPELINE_H_
