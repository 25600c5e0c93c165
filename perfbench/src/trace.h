#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

// Tracing helpers for the per-layer run: a FileSystem wrapper that times
// the write-ahead log's appends and fsyncs, and self-time arithmetic over
// spans recorded at neighbouring layer boundaries.

#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "common.h"
#include "io/file_system.h"

namespace perfbench {

// What the WAL (segment files `wal-*.log`) cost, as seen at the
// FileSystem boundary.
struct WalTimings {
  std::vector<uint32_t> append_ns;  // per WritableFile::Append
  std::vector<uint32_t> sync_ns;    // per WritableFile::Sync
  uint64_t bytes = 0;               // bytes appended to WAL segments
};

// Wraps the real file system and times every call on a WAL segment file.
// Time spent on the calling thread is also added to a thread-local
// counter (ThreadWalNs) so an Append span can subtract its WAL children.
class TimingFileSystem final : public rlz::FileSystem {
 public:
  TimingFileSystem();

  rlz::StatusOr<std::string> Read(const std::string& path) const override;
  rlz::StatusOr<std::unique_ptr<rlz::WritableFile>> Create(
      const std::string& path) override;
  rlz::Status Rename(const std::string& from, const std::string& to) override;
  rlz::Status Remove(const std::string& path) override;
  rlz::StatusOr<std::vector<std::string>> List(
      const std::string& dir) const override;
  rlz::Status CreateDir(const std::string& dir) override;
  rlz::Status SyncDir(const std::string& dir) override;
  bool Exists(const std::string& path) const override;

  // Copy of the timings so far.
  WalTimings timings() const;

  // Records one timed WAL call (called by the wrapped files).
  void RecordAppend(uint64_t ns, uint64_t bytes);
  void RecordSync(uint64_t ns);

 private:
  std::shared_ptr<rlz::FileSystem> base_;
  mutable std::mutex mu_;
  WalTimings timings_;  // guarded by mu_
};

// Nanoseconds the calling thread has spent inside timed WAL calls.
uint64_t ThreadWalNs();

// Median over requests of the parent layer's self time: its spans' total
// duration minus that of their children (see Span). Leaf parents have
// no children; a request with no parent span is skipped.
double MedianSelfUs(const std::vector<Span>& parent,
                    const std::vector<Span>& children);

// Median span duration in microseconds.
double MedianSpanUs(const std::vector<Span>& spans);

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
