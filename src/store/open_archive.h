#ifndef RLZ_STORE_OPEN_ARCHIVE_H_
#define RLZ_STORE_OPEN_ARCHIVE_H_

/// \file
/// Format-agnostic archive opening: sniff a container's format id and
/// dispatch to the registered loader (DESIGN.md §8).

#include <memory>
#include <string>

#include "store/archive.h"
#include "store/format.h"
#include "util/status.h"

namespace rlz {

class FileSystem;
class MmapFile;

/// Knobs for opening a saved archive.
struct OpenOptions {
  /// Rebuild dictionary suffix arrays on open. Serving (Get/GetRange)
  /// never consults the suffix array — only factorizing *new* documents
  /// does — so a serving-only reopen should pass false and skip the
  /// dominant part of the open cost (see bench/recovery_bench's
  /// restart-cost table). ShardedStore never builds one for a shard: it
  /// reads this as "writable", building only its append dictionary's.
  bool build_suffix_array = true;
  /// Decode-cache budget in bytes for formats that serve through a block
  /// cache (BlockedArchive). 0 means auto-size to two maximum blocks —
  /// the same default the build constructor uses.
  uint64_t cache_bytes = 0;
  /// Open container files through mmap instead of reading them onto the
  /// heap. The archive's zero-copy views then point straight into the
  /// page cache: cold-start cost becomes demand paging plus one CRC
  /// validation scan, and warm restarts skip the copy entirely
  /// (EXPERIMENTS.md, "Durability cost"). Ignored when `fs` is set.
  bool use_mmap = false;
  /// File system to read through (null means direct POSIX I/O). The
  /// durable store's recovery path injects its FileSystem here so
  /// checkpoint shards written through a FaultFs can be reopened from
  /// the same (possibly simulated) disk.
  std::shared_ptr<FileSystem> fs;
};

/// A container file's raw bytes plus whatever keeps them alive.
struct RawContainerFile {
  std::string_view view;
  std::shared_ptr<const void> owner;
  /// Non-null on the mmap path: lets callers re-advise the access
  /// pattern after the sequential validation scan.
  const MmapFile* map = nullptr;
};

/// Reads `path` honoring `options.fs` (reads route through the injected
/// file system) and `options.use_mmap` (page-cache mapping, advised
/// sequential for the validation scan). The single read entry point for
/// every archive open — pair with ParsedEnvelope::FromView.
StatusOr<RawContainerFile> ReadContainerFile(const std::string& path,
                                             const OpenOptions& options);

/// What SniffArchiveFile learned from a container header.
struct ArchiveFormatInfo {
  /// The envelope's format id ("rlz", "ascii", "blocked", "semistatic",
  /// "sharded").
  std::string format_id;
  /// The format version.
  uint32_t version = 0;
};

/// Reads `path` and reports its container format id and version without
/// materializing the archive. The whole file is read and its envelope
/// (including the CRC trailer) validated, so a Corruption result means
/// the file is damaged, not merely unrecognized. A store's
/// dictionary-less shard ("rlzshard") is InvalidArgument: it is readable
/// only through the manifest that names its dictionary. To both sniff
/// and open in one read, pass OpenArchive's `sniffed` out-parameter
/// instead.
StatusOr<ArchiveFormatInfo> SniffArchiveFile(const std::string& path);

/// A format loader: materializes an archive from its parsed envelope.
/// `path` is the container's own path (formats whose payload spans several
/// files — the sharded manifest — resolve siblings relative to it).
using ArchiveLoader = StatusOr<std::unique_ptr<Archive>> (*)(
    const std::string& path, const ParsedEnvelope& envelope,
    const OpenOptions& options);

/// Registers `loader` for `format_id`, replacing any previous registration.
/// The built-in formats are pre-registered; this hook lets downstream code
/// plug new Archive implementations into OpenArchive. Thread-safe.
void RegisterArchiveFormat(const std::string& format_id, ArchiveLoader loader);

/// Opens any saved archive: sniffs the container's format id and
/// dispatches to the registered loader. Returns InvalidArgument for an
/// unregistered format id or a format version other than the current
/// one, Corruption for
/// structural damage, IOError if the file cannot be read. If `sniffed` is
/// non-null it receives the container's format id and version (the same
/// data SniffArchiveFile reports, without reading the file twice); it is
/// filled whenever the header parses, even if the loader then fails.
StatusOr<std::unique_ptr<Archive>> OpenArchive(const std::string& path,
                                               const OpenOptions& options = {},
                                               ArchiveFormatInfo* sniffed = nullptr);

}  // namespace rlz

#endif  // RLZ_STORE_OPEN_ARCHIVE_H_
