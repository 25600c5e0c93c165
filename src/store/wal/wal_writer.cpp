#include "store/wal/wal_writer.h"

#include <algorithm>
#include <utility>

namespace rlz {
namespace wal {

StatusOr<std::unique_ptr<WalWriter>> WalWriter::Create(
    std::shared_ptr<FileSystem> fs, std::string dir, uint64_t generation,
    uint64_t seq, uint64_t start_lsn, const WalWriterOptions& options) {
  std::unique_ptr<WalWriter> writer(
      new WalWriter(std::move(fs), std::move(dir), options));
  writer->next_lsn_ = start_lsn;
  RLZ_RETURN_IF_ERROR(writer->OpenSegmentLocked(generation, seq));
  return writer;
}

Status WalWriter::OpenSegmentLocked(uint64_t generation, uint64_t seq) {
  const std::string path = dir_ + "/" + SegmentFileName(seq);
  RLZ_ASSIGN_OR_RETURN(std::unique_ptr<WritableFile> file,
                       fs_->Create(path));
  SegmentHeader header;
  header.generation = generation;
  header.start_lsn = next_lsn_;
  RLZ_RETURN_IF_ERROR(file->Append(EncodeSegmentHeader(header)));
  // The header and the directory entry must be durable before any record
  // in this segment is acked — see the roll protocol in the file comment.
  RLZ_RETURN_IF_ERROR(file->Sync());
  RLZ_RETURN_IF_ERROR(fs_->SyncDir(dir_));
  file_ = std::move(file);
  generation_ = generation;
  seq_ = seq;
  segment_starts_.push_back(SegmentStart{seq, next_lsn_});
  segment_bytes_ = kSegmentHeaderSize;
  unsynced_records_ = 0;
  last_sync_ = std::chrono::steady_clock::now();
  return Status::OK();
}

void WalWriter::ForgetSegmentsBefore(uint64_t seq) {
  auto first_kept = std::find_if(
      segment_starts_.begin(), segment_starts_.end(),
      [seq](const SegmentStart& start) { return start.seq >= seq; });
  segment_starts_.erase(segment_starts_.begin(), first_kept);
}

Status WalWriter::Latch(Status status) {
  if (!status.ok() && status_.ok()) status_ = status;
  return status;
}

StatusOr<uint64_t> WalWriter::Append(RecordType type,
                                     std::string_view payload) {
  RLZ_RETURN_IF_ERROR(status_);
  if (file_ == nullptr) {
    return Status::Internal("wal writer: append after close");
  }
  if (segment_bytes_ > kSegmentHeaderSize &&
      segment_bytes_ + kFrameOverhead + payload.size() >
          options_.segment_bytes) {
    RLZ_RETURN_IF_ERROR(Roll(generation_));
  }
  AppendRecord(&buffer_, type, payload);
  segment_bytes_ += kFrameOverhead + payload.size();
  const uint64_t lsn = next_lsn_++;
  ++unsynced_records_;
  bool due = options_.fsync_every_n > 0 &&
             unsynced_records_ >= options_.fsync_every_n;
  if (!due && options_.fsync_interval_ms > 0) {
    const auto elapsed = std::chrono::steady_clock::now() - last_sync_;
    due = elapsed >= std::chrono::milliseconds(options_.fsync_interval_ms);
  }
  if (due) {
    RLZ_RETURN_IF_ERROR(SyncLocked());
  } else if (buffer_.size() >= kMaxBufferedBytes) {
    RLZ_RETURN_IF_ERROR(FlushLocked());
  }
  return lsn;
}

Status WalWriter::FlushLocked() {
  if (buffer_.empty()) return Status::OK();
  const Status status = file_->Append(buffer_);
  buffer_.clear();
  // One huge record must not pin a huge buffer for the writer's life.
  if (buffer_.capacity() > 2 * kMaxBufferedBytes) std::string().swap(buffer_);
  return Latch(status);
}

Status WalWriter::SyncLocked() {
  RLZ_RETURN_IF_ERROR(FlushLocked());
  RLZ_RETURN_IF_ERROR(Latch(file_->Sync()));
  unsynced_records_ = 0;
  last_sync_ = std::chrono::steady_clock::now();
  return Status::OK();
}

Status WalWriter::Sync() {
  RLZ_RETURN_IF_ERROR(status_);
  if (file_ == nullptr) {
    return Status::Internal("wal writer: sync after close");
  }
  return SyncLocked();
}

Status WalWriter::Close() {
  if (file_ == nullptr) return status_;
  // After a latched error nothing more is written; the file still closes.
  Status status = status_.ok() ? SyncLocked() : status_;
  const Status closed = file_->Close();
  file_ = nullptr;
  if (status.ok()) status = Latch(closed);
  return status;
}

Status WalWriter::Roll(uint64_t generation) {
  RLZ_RETURN_IF_ERROR(status_);
  if (file_ == nullptr) {
    return Status::Internal("wal writer: roll after close");
  }
  // Seal the old segment durably first so recovery's invariant holds:
  // once a newer segment exists, every older one is complete.
  RLZ_RETURN_IF_ERROR(SyncLocked());
  RLZ_RETURN_IF_ERROR(Latch(file_->Close()));
  file_ = nullptr;
  return Latch(OpenSegmentLocked(generation, seq_ + 1));
}

}  // namespace wal
}  // namespace rlz
