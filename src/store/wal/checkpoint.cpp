#include "store/wal/checkpoint.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <vector>

#include "store/format.h"

namespace rlz {
namespace wal {
namespace {

constexpr char kCurrentFormatId[] = "walcur";
constexpr uint32_t kCurrentFormatVersion = 1;
constexpr char kCheckpointFormatId[] = "walckpt";
constexpr uint32_t kCheckpointFormatVersion = 1;

std::string CheckpointFilePrefix(uint64_t generation) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "ckpt-%016" PRIu64, generation);
  return buf;
}

// True if `name` is a checkpoint file ("ckpt-<gen16>.<suffix>");
// extracts the generation.
bool ParseCheckpointFileName(std::string_view name, uint64_t* generation) {
  constexpr std::string_view kPrefix = "ckpt-";
  if (name.size() < kPrefix.size() + 16 + 1) return false;
  if (name.substr(0, kPrefix.size()) != kPrefix) return false;
  uint64_t value = 0;
  for (size_t i = kPrefix.size(); i < kPrefix.size() + 16; ++i) {
    const char c = name[i];
    if (c < '0' || c > '9') return false;
    value = value * 10 + static_cast<uint64_t>(c - '0');
  }
  if (name[kPrefix.size() + 16] != '.') return false;
  *generation = value;
  return true;
}

}  // namespace

std::string CheckpointMetaFileName(uint64_t generation) {
  return CheckpointFilePrefix(generation) + ".meta";
}

std::string CheckpointManifestFileName(uint64_t generation) {
  return CheckpointFilePrefix(generation) + ".manifest";
}

Status WriteCheckpointMeta(FileSystem& fs, const std::string& dir,
                           const CheckpointInfo& info) {
  EnvelopeWriter writer(kCheckpointFormatId, kCheckpointFormatVersion);
  writer.PutVarint64(info.generation);
  writer.PutVarint64(info.covered_lsn);
  writer.PutLengthPrefixed(info.manifest);
  return fs.WriteFileSynced(dir + "/" + CheckpointMetaFileName(info.generation),
                            std::move(writer).Seal());
}

StatusOr<CheckpointInfo> ReadCheckpointMeta(FileSystem& fs,
                                            const std::string& dir,
                                            uint64_t generation) {
  const std::string path = dir + "/" + CheckpointMetaFileName(generation);
  RLZ_ASSIGN_OR_RETURN(std::string raw, fs.Read(path));
  RLZ_ASSIGN_OR_RETURN(ParsedEnvelope envelope,
                       ParsedEnvelope::FromBytes(std::move(raw), path));
  RLZ_RETURN_IF_ERROR(CheckEnvelopeFormat(envelope, kCheckpointFormatId,
                                          kCheckpointFormatVersion));
  EnvelopeReader reader = envelope.reader();
  CheckpointInfo info;
  RLZ_RETURN_IF_ERROR(reader.ReadVarint64(&info.generation));
  RLZ_RETURN_IF_ERROR(reader.ReadVarint64(&info.covered_lsn));
  std::string_view manifest;
  RLZ_RETURN_IF_ERROR(reader.ReadLengthPrefixed(&manifest));
  info.manifest = std::string(manifest);
  RLZ_RETURN_IF_ERROR(reader.ExpectConsumed());
  if (info.generation != generation) {
    return Status::Corruption(path + ": checkpoint meta names generation " +
                              std::to_string(info.generation));
  }
  return info;
}

Status WriteCurrent(FileSystem& fs, const std::string& dir,
                    uint64_t generation) {
  EnvelopeWriter writer(kCurrentFormatId, kCurrentFormatVersion);
  writer.PutVarint64(generation);
  const std::string current = dir + "/" + kCurrentFileName;
  const std::string tmp = current + ".tmp";
  RLZ_RETURN_IF_ERROR(fs.WriteFileSynced(tmp, std::move(writer).Seal()));
  RLZ_RETURN_IF_ERROR(fs.Rename(tmp, current));
  return fs.SyncDir(dir);
}

StatusOr<uint64_t> ReadCurrent(FileSystem& fs, const std::string& dir) {
  const std::string path = dir + "/" + kCurrentFileName;
  if (!fs.Exists(path)) {
    return Status::NotFound(path + ": no CURRENT file");
  }
  RLZ_ASSIGN_OR_RETURN(std::string raw, fs.Read(path));
  RLZ_ASSIGN_OR_RETURN(ParsedEnvelope envelope,
                       ParsedEnvelope::FromBytes(std::move(raw), path));
  RLZ_RETURN_IF_ERROR(
      CheckEnvelopeFormat(envelope, kCurrentFormatId, kCurrentFormatVersion));
  EnvelopeReader reader = envelope.reader();
  uint64_t generation = 0;
  RLZ_RETURN_IF_ERROR(reader.ReadVarint64(&generation));
  RLZ_RETURN_IF_ERROR(reader.ExpectConsumed());
  return generation;
}

StatusOr<std::vector<CheckpointInfo>> ListCheckpoints(FileSystem& fs,
                                                      const std::string& dir) {
  RLZ_ASSIGN_OR_RETURN(std::vector<std::string> names, fs.List(dir));
  std::vector<uint64_t> generations;
  for (const std::string& name : names) {
    uint64_t generation = 0;
    if (ParseCheckpointFileName(name, &generation) &&
        name == CheckpointMetaFileName(generation)) {
      generations.push_back(generation);
    }
  }
  std::sort(generations.rbegin(), generations.rend());
  std::vector<CheckpointInfo> checkpoints;
  for (uint64_t generation : generations) {
    StatusOr<CheckpointInfo> info = ReadCheckpointMeta(fs, dir, generation);
    // A damaged meta is a checkpoint that never completed (or was
    // half-deleted by GC) — skip it; the caller wants usable candidates.
    if (info.ok()) checkpoints.push_back(*std::move(info));
  }
  return checkpoints;
}

Status GarbageCollect(FileSystem& fs, const std::string& dir,
                      const CheckpointInfo& keep,
                      const std::vector<std::string>& keep_files,
                      const std::vector<SegmentStart>& known_segments) {
  RLZ_ASSIGN_OR_RETURN(std::vector<std::string> names, fs.List(dir));
  std::sort(names.begin(), names.end());

  // Segment seq -> start LSN, for the covered-segment rule.
  std::vector<std::pair<uint64_t, uint64_t>> segments;
  for (const std::string& name : names) {
    uint64_t seq = 0;
    if (!ParseSegmentFileName(name, &seq)) continue;
    auto known = std::find_if(
        known_segments.begin(), known_segments.end(),
        [seq](const SegmentStart& start) { return start.seq == seq; });
    if (known != known_segments.end()) {
      segments.emplace_back(seq, known->start_lsn);
      continue;
    }
    RLZ_ASSIGN_OR_RETURN(std::string raw, fs.Read(dir + "/" + name));
    StatusOr<SegmentHeader> header = DecodeSegmentHeader(raw, name);
    if (!header.ok()) continue;  // recovery's problem, not GC's
    segments.emplace_back(seq, header->start_lsn);
  }
  std::sort(segments.begin(), segments.end());

  bool removed_any = false;
  for (const std::string& name : names) {
    bool remove = false;
    uint64_t generation = 0;
    uint64_t seq = 0;
    if (ParseCheckpointFileName(name, &generation)) {
      remove = generation != keep.generation &&
               std::find(keep_files.begin(), keep_files.end(), name) ==
                   keep_files.end();
    } else if (ParseSegmentFileName(name, &seq)) {
      for (size_t i = 0; i + 1 < segments.size(); ++i) {
        if (segments[i].first == seq) {
          remove = segments[i + 1].second <= keep.covered_lsn;
          break;
        }
      }
    } else if (name.size() > 4 &&
               name.compare(name.size() - 4, 4, ".tmp") == 0) {
      remove = true;  // leftover from an interrupted write-new step
    }
    if (remove) {
      RLZ_RETURN_IF_ERROR(fs.Remove(dir + "/" + name));
      removed_any = true;
    }
  }
  if (removed_any) RLZ_RETURN_IF_ERROR(fs.SyncDir(dir));
  return Status::OK();
}

}  // namespace wal
}  // namespace rlz
