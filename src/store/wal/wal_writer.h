#ifndef RLZ_STORE_WAL_WAL_WRITER_H_
#define RLZ_STORE_WAL_WAL_WRITER_H_

/// \file
/// Appending side of the write-ahead log (DESIGN.md §12).
///
/// One WalWriter owns the live tail segment. Appends are framed
/// (wal_format.h) into one reused buffer, rolled into a new segment when
/// the current one reaches its size budget, and made durable under a
/// group-commit policy: `fsync_every_n` appends per fsync (1 = every
/// append is durable before it returns — the default and the crash-test
/// setting), or an `fsync_interval_ms` deadline for throughput-oriented
/// callers who accept a bounded loss window. Callers needing a hard
/// barrier at an arbitrary point (checkpoint) use Sync().
///
/// Group commit batches the write as well as the fsync: the buffer goes
/// to the file in one write at each sync point (the n-th record, the
/// interval deadline, Sync, Roll, Close), and without an fsync whenever
/// it reaches kMaxBufferedBytes. Under n > 1 the frames since the last
/// sync point live only in this process until then, so a process crash
/// (not only an OS crash) loses them — the same n-1 records the policy
/// already allows an OS crash to lose.
///
/// Fail-stop: the first error from a write, fsync or roll is latched, and
/// every later call returns it. A failed write may have left a partial
/// frame in the file; writing anything after it would put acked records
/// behind a frame replay reads as the torn end of the log.
///
/// Segment-roll protocol: the old segment is synced and closed, the new
/// one is created, its header written and synced, and the directory
/// synced — all before any record lands in it. This keeps the invariant
/// recovery depends on: only the *final* segment may end torn; every
/// earlier segment is durably complete.

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "io/file_system.h"
#include "store/wal/wal_format.h"
#include "util/status.h"

namespace rlz {
namespace wal {

/// Durability policy knobs. The defaults ack nothing that could be lost.
struct WalWriterOptions {
  /// Roll to a new segment once the current one exceeds this.
  uint64_t segment_bytes = 4ull << 20;
  /// Write and fsync after every n-th appended record. 1 = every append
  /// is written and synced before it returns (strict durability); larger
  /// values buffer appends in memory behind one write and one barrier and
  /// lose at most n-1 acked records on a process or OS crash. 0 = no
  /// count trigger (the interval, Sync, Roll and Close still apply).
  int fsync_every_n = 1;
  /// If > 0, also fsync whenever this many milliseconds have passed
  /// since the last barrier — bounds the loss *window* when
  /// fsync_every_n is large and traffic is slow.
  int fsync_interval_ms = 0;
};

/// See the file comment.
class WalWriter {
 public:
  /// Starts a fresh segment `seq` whose first record will carry
  /// `start_lsn`, stamped with `generation`. The segment (header
  /// included) and its directory entry are durable when this returns —
  /// recovery never has to guess whether the newest segment exists.
  static StatusOr<std::unique_ptr<WalWriter>> Create(
      std::shared_ptr<FileSystem> fs, std::string dir, uint64_t generation,
      uint64_t seq, uint64_t start_lsn, const WalWriterOptions& options);

  /// Frames one record into the buffer and applies the group-commit
  /// policy; returns the record's LSN. When this returns OK under
  /// fsync_every_n == 1 the record is durable.
  StatusOr<uint64_t> Append(RecordType type, std::string_view payload);

  /// Explicit durability barrier over everything appended so far: writes
  /// the buffer, then fsyncs.
  Status Sync();

  /// Closes the current segment (with a final Sync; after a latched
  /// error it writes nothing and returns that error). The writer is
  /// unusable afterwards.
  Status Close();

  /// Rolls to a fresh segment stamped `generation`, regardless of size.
  /// The checkpoint protocol calls this at the covered LSN so checkpoint
  /// coverage always lands on a segment boundary.
  Status Roll(uint64_t generation);

  /// The latched I/O error: OK until a write, fsync or roll fails, that
  /// error from then on.
  const Status& status() const { return status_; }

  /// Buffered bytes beyond which Append writes the buffer (without an
  /// fsync) even when no sync point is due, so fsync_every_n = 0 cannot
  /// grow it without bound.
  static constexpr size_t kMaxBufferedBytes = 1 << 20;

  /// LSN the next appended record will receive.
  uint64_t next_lsn() const { return next_lsn_; }
  /// Sequence number of the segment currently being written.
  uint64_t segment_seq() const { return seq_; }

  /// The segments this writer created, oldest first, less those dropped
  /// by ForgetSegmentsBefore: checkpoint GC takes their start LSNs from
  /// here instead of reading each segment's header back from disk.
  const std::vector<SegmentStart>& segment_starts() const {
    return segment_starts_;
  }
  /// Drops the entries of segments numbered below `seq` (those a GC has
  /// deleted).
  void ForgetSegmentsBefore(uint64_t seq);

 private:
  WalWriter(std::shared_ptr<FileSystem> fs, std::string dir,
            const WalWriterOptions& options)
      : fs_(std::move(fs)), dir_(std::move(dir)), options_(options) {}

  Status OpenSegmentLocked(uint64_t generation, uint64_t seq);
  // Writes the buffer to the segment in one Append and empties it.
  Status FlushLocked();
  Status SyncLocked();
  // Latches `status` if it is the first error; returns it.
  Status Latch(Status status);

  std::shared_ptr<FileSystem> fs_;
  std::string dir_;
  WalWriterOptions options_;
  std::unique_ptr<WritableFile> file_;
  uint64_t generation_ = 0;
  uint64_t seq_ = 0;
  uint64_t next_lsn_ = 0;
  uint64_t segment_bytes_ = 0;  // bytes framed into the current segment
  std::string buffer_;          // frames not yet written to file_
  std::vector<SegmentStart> segment_starts_;
  int unsynced_records_ = 0;
  Status status_;
  std::chrono::steady_clock::time_point last_sync_ =
      std::chrono::steady_clock::now();
};

}  // namespace wal
}  // namespace rlz

#endif  // RLZ_STORE_WAL_WAL_WRITER_H_
