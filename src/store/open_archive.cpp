#include "store/open_archive.h"

#include <map>
#include <mutex>
#include <utility>

#include "core/rlz_archive.h"
#include "io/file.h"
#include "io/file_system.h"
#include "io/mmap_file.h"
#include "semistatic/semistatic_archive.h"
#include "serve/sharded_store.h"
#include "store/ascii_archive.h"
#include "store/blocked_archive.h"

namespace rlz {
namespace {

// Adapters narrow each format's typed loader to the common signature.
// They are plain functions (the registry stores function pointers), and
// the built-in table below references them directly, so the registrations
// cannot be dropped by static-library dead stripping.

StatusOr<std::unique_ptr<Archive>> LoadRlz(const std::string& /*path*/,
                                           const ParsedEnvelope& envelope,
                                           const OpenOptions& options) {
  RLZ_ASSIGN_OR_RETURN(std::unique_ptr<RlzArchive> archive,
                       RlzArchive::FromEnvelope(envelope, options));
  return std::unique_ptr<Archive>(std::move(archive));
}

StatusOr<std::unique_ptr<Archive>> LoadAscii(const std::string& /*path*/,
                                             const ParsedEnvelope& envelope,
                                             const OpenOptions& options) {
  RLZ_ASSIGN_OR_RETURN(std::unique_ptr<AsciiArchive> archive,
                       AsciiArchive::FromEnvelope(envelope, options));
  return std::unique_ptr<Archive>(std::move(archive));
}

StatusOr<std::unique_ptr<Archive>> LoadBlocked(const std::string& /*path*/,
                                               const ParsedEnvelope& envelope,
                                               const OpenOptions& options) {
  RLZ_ASSIGN_OR_RETURN(std::unique_ptr<BlockedArchive> archive,
                       BlockedArchive::FromEnvelope(envelope, options));
  return std::unique_ptr<Archive>(std::move(archive));
}

StatusOr<std::unique_ptr<Archive>> LoadSemiStatic(
    const std::string& /*path*/, const ParsedEnvelope& envelope,
    const OpenOptions& options) {
  RLZ_ASSIGN_OR_RETURN(std::unique_ptr<SemiStaticArchive> archive,
                       SemiStaticArchive::FromEnvelope(envelope, options));
  return std::unique_ptr<Archive>(std::move(archive));
}

StatusOr<std::unique_ptr<Archive>> LoadSharded(const std::string& path,
                                               const ParsedEnvelope& envelope,
                                               const OpenOptions& options) {
  RLZ_ASSIGN_OR_RETURN(std::unique_ptr<ShardedStore> store,
                       ShardedStore::FromEnvelope(envelope, path, options));
  return std::unique_ptr<Archive>(std::move(store));
}

std::mutex& RegistryMutex() {
  static std::mutex* mutex = new std::mutex;
  return *mutex;
}

std::map<std::string, ArchiveLoader>& Registry() {
  static std::map<std::string, ArchiveLoader>* registry =
      new std::map<std::string, ArchiveLoader>{
          {RlzArchive::kFormatId, &LoadRlz},
          // Refused with InvalidArgument: a store shard opens only
          // through its manifest, which supplies the dictionary.
          {RlzArchive::kShardFormatId, &LoadRlz},
          {AsciiArchive::kFormatId, &LoadAscii},
          {BlockedArchive::kFormatId, &LoadBlocked},
          {SemiStaticArchive::kFormatId, &LoadSemiStatic},
          {Manifest::kFormatId, &LoadSharded},
      };
  return *registry;
}

StatusOr<ArchiveLoader> FindLoader(const std::string& format_id,
                                   const std::string& path) {
  std::lock_guard<std::mutex> lock(RegistryMutex());
  auto it = Registry().find(format_id);
  if (it == Registry().end()) {
    return Status::InvalidArgument(path + ": no loader registered for format '" +
                                   format_id + "'");
  }
  return it->second;
}

}  // namespace

StatusOr<RawContainerFile> ReadContainerFile(const std::string& path,
                                             const OpenOptions& options) {
  RawContainerFile raw;
  if (options.fs != nullptr) {
    RLZ_ASSIGN_OR_RETURN(std::string bytes, options.fs->Read(path));
    auto owned = std::make_shared<const std::string>(std::move(bytes));
    raw.view = std::string_view(*owned);
    raw.owner = std::move(owned);
    return raw;
  }
  if (options.use_mmap) {
    RLZ_ASSIGN_OR_RETURN(MmapFile map, MmapFile::Open(path));
    auto shared = std::make_shared<const MmapFile>(std::move(map));
    // Every open starts with a front-to-back CRC validation scan.
    shared->Advise(MmapFile::Access::kSequential);
    raw.view = shared->view();
    raw.map = shared.get();
    raw.owner = std::move(shared);
    return raw;
  }
  RLZ_ASSIGN_OR_RETURN(std::string bytes, ReadFile(path));
  auto owned = std::make_shared<const std::string>(std::move(bytes));
  raw.view = std::string_view(*owned);
  raw.owner = std::move(owned);
  return raw;
}

void RegisterArchiveFormat(const std::string& format_id,
                           ArchiveLoader loader) {
  std::lock_guard<std::mutex> lock(RegistryMutex());
  Registry()[format_id] = loader;
}

StatusOr<ArchiveFormatInfo> SniffArchiveFile(const std::string& path) {
  RLZ_ASSIGN_OR_RETURN(RawContainerFile raw, ReadContainerFile(path, {}));
  RLZ_ASSIGN_OR_RETURN(
      ParsedEnvelope envelope,
      ParsedEnvelope::FromView(raw.view, std::move(raw.owner), path));
  if (envelope.format_id() == RlzArchive::kShardFormatId) {
    // Its header parses, but alone it is not a readable archive.
    return RlzArchive::FromEnvelope(envelope, {}).status();
  }
  ArchiveFormatInfo info;
  info.format_id = envelope.format_id();
  info.version = envelope.version();
  return info;
}

StatusOr<std::unique_ptr<Archive>> OpenArchive(const std::string& path,
                                               const OpenOptions& options,
                                               ArchiveFormatInfo* sniffed) {
  RLZ_ASSIGN_OR_RETURN(RawContainerFile raw, ReadContainerFile(path, options));
  RLZ_ASSIGN_OR_RETURN(
      ParsedEnvelope envelope,
      ParsedEnvelope::FromView(raw.view, raw.owner, path));
  if (sniffed != nullptr) {
    sniffed->format_id = envelope.format_id();
    sniffed->version = envelope.version();
  }
  // Validation scanned sequentially; serving reads point-access.
  if (raw.map != nullptr) raw.map->Advise(MmapFile::Access::kRandom);
  RLZ_ASSIGN_OR_RETURN(ArchiveLoader loader,
                       FindLoader(envelope.format_id(), path));
  return loader(path, envelope, options);
}

}  // namespace rlz
