#ifndef RLZ_STORE_WAL_CHECKPOINT_H_
#define RLZ_STORE_WAL_CHECKPOINT_H_

/// \file
/// The checkpoint side of the durability protocol (DESIGN.md §12).
///
/// A durable store directory holds, besides the WAL segments:
///
///   CURRENT                the generation pointer — a tiny envelope
///                          ("walcur") naming the live checkpoint
///   ckpt-<gen>.meta        per-checkpoint metadata ("walckpt"):
///                          generation, covered LSN, manifest file name
///   ckpt-<gen>.manifest    the ShardedStore manifest for that
///   ckpt-<gen>.manifest.shardNNNN
///                          checkpoint, plus the shard files it wrote
///
/// Publishing a checkpoint is write-new -> fsync -> rename: every new
/// file (shards, manifest, meta) is written and fsync'd under the *next*
/// generation number — never touching the live checkpoint — the
/// directory is synced, and only then is CURRENT atomically replaced
/// (CURRENT.tmp -> fsync -> rename -> syncdir). A crash anywhere before
/// the rename leaves CURRENT pointing at the old, complete checkpoint; a
/// crash after it leaves the new one live. A manifest may also name
/// shard files an older generation wrote (shards are immutable, so a
/// checkpoint writes only the new ones); those stay. Every other
/// old-generation file and every fully-covered WAL segment is deleted
/// only after the swap.
///
/// Recovery reads CURRENT; if it is missing or damaged, ListCheckpoints
/// scans ckpt-*.meta as a fallback and the store tries candidates newest
/// first.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "io/file_system.h"
#include "store/wal/wal_format.h"
#include "util/status.h"

namespace rlz {
namespace wal {

/// Name of the generation-pointer file.
inline constexpr char kCurrentFileName[] = "CURRENT";

/// One checkpoint's identity.
struct CheckpointInfo {
  uint64_t generation = 0;
  /// Every record with lsn < covered_lsn is baked into the manifest;
  /// recovery replays the WAL from this point.
  uint64_t covered_lsn = 0;
  /// Manifest file name, relative to the store directory.
  std::string manifest;
};

/// "ckpt-<gen>.meta" / "ckpt-<gen>.manifest" (relative names).
std::string CheckpointMetaFileName(uint64_t generation);
std::string CheckpointManifestFileName(uint64_t generation);

/// Durably writes `info` as ckpt-<gen>.meta. The caller is responsible
/// for SyncDir before the CURRENT swap.
Status WriteCheckpointMeta(FileSystem& fs, const std::string& dir,
                           const CheckpointInfo& info);

/// Reads and validates ckpt-<gen>.meta.
StatusOr<CheckpointInfo> ReadCheckpointMeta(FileSystem& fs,
                                            const std::string& dir,
                                            uint64_t generation);

/// Atomically points CURRENT at `generation` (tmp -> fsync -> rename ->
/// syncdir). This is the commit point of a checkpoint.
Status WriteCurrent(FileSystem& fs, const std::string& dir,
                    uint64_t generation);

/// Reads the generation CURRENT points at. NotFound if the file does not
/// exist, Corruption if it is damaged.
StatusOr<uint64_t> ReadCurrent(FileSystem& fs, const std::string& dir);

/// Every readable checkpoint meta in `dir`, newest generation first —
/// the fallback when CURRENT is missing or damaged.
StatusOr<std::vector<CheckpointInfo>> ListCheckpoints(FileSystem& fs,
                                                      const std::string& dir);

/// Deletes files superseded by checkpoint `keep`: ckpt files of other
/// generations that `keep_files` (the file names keep's manifest names,
/// relative to `dir`) does not list, and WAL segments every record of
/// which is covered (a segment is removable when its successor starts at
/// or below keep.covered_lsn). A segment's start LSN comes from
/// `known_segments` (the live WalWriter's segment_starts()) when listed
/// there; only the header of any other segment, one an earlier process
/// left, is read from disk. Best-effort by design — a crash mid-GC
/// leaves stale files that the next GC removes; correctness never
/// depends on deletion.
Status GarbageCollect(FileSystem& fs, const std::string& dir,
                      const CheckpointInfo& keep,
                      const std::vector<std::string>& keep_files,
                      const std::vector<SegmentStart>& known_segments = {});

}  // namespace wal
}  // namespace rlz

#endif  // RLZ_STORE_WAL_CHECKPOINT_H_
