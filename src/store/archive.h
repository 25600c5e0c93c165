#ifndef RLZ_STORE_ARCHIVE_H_
#define RLZ_STORE_ARCHIVE_H_

/// \file
/// The Archive interface: random-access document retrieval plus the
/// polymorphic Save every compressed store implements.

#include <cstdint>
#include <string>

#include "io/sim_disk.h"
#include "store/decode_scratch.h"
#include "util/status.h"

namespace rlz {

class ShardedStore;

/// A compressed document store supporting random access by document id —
/// the interface every system in the paper's evaluation implements
/// (raw ASCII, blocked zlib/lzma, and RLZ).
///
/// Archives keep their encoded payload in memory. The paper benches pass
/// an optional SimDisk, and the archive charges every payload read to it,
/// which models the disk-resident deployment the paper measures
/// (compressed collections larger than RAM, caches dropped; see
/// DESIGN.md §4). Memory-resident structures — the document map and, for
/// RLZ, the dictionary — are never charged, matching the paper's setup.
/// The serving stack passes nullptr: it is measured in wall-clock and
/// thread-CPU time, not through the model (DESIGN.md §6).
///
/// Thread-safety contract (DESIGN.md §6): archives are immutable once
/// built, and every implementation must support concurrent Get/GetRange
/// calls. SimDisk itself is unsynchronized accounting, so each concurrent
/// caller must pass its own SimDisk (or nullptr).
class Archive {
 public:
  virtual ~Archive() = default;

  /// Identifier used in benchmark tables (e.g. "rlz-ZV", "gzipx-64K").
  virtual std::string name() const = 0;

  /// Number of stored documents.
  virtual size_t num_docs() const = 0;

  /// Retrieves document `id` into `*doc` (cleared first). Charges simulated
  /// I/O to `disk` if non-null. Convenience overload of the scratch-aware
  /// virtual below, for one-off callers with no scratch to reuse.
  Status Get(size_t id, std::string* doc, SimDisk* disk = nullptr) const {
    return Get(id, doc, disk, nullptr);
  }

  /// The implementation point every archive overrides: as above, but a
  /// non-null `scratch` lends the decode reusable buffers so steady-state
  /// serving allocates nothing per request (DESIGN.md §9). Backends whose
  /// decode needs no scratch simply ignore it. `scratch` is borrowed for
  /// the duration of the call only and must not be shared by concurrent
  /// callers (one per serving worker).
  virtual Status Get(size_t id, std::string* doc, SimDisk* disk,
                     DecodeScratch* scratch) const = 0;

  /// Retrieves bytes [offset, offset+length) of document `id` into `*text`
  /// (cleared first), clamped to the document end — the snippet path (§1).
  /// Convenience overload of the scratch-aware virtual below.
  Status GetRange(size_t id, size_t offset, size_t length, std::string* text,
                  SimDisk* disk = nullptr) const {
    return GetRange(id, offset, length, text, disk, nullptr);
  }

  /// As above with optional scratch buffers. The default decodes the whole
  /// document (into scratch->doc when lent) and slices it; backends with a
  /// cheaper partial decode (RLZ factor-stream skipping) override this.
  virtual Status GetRange(size_t id, size_t offset, size_t length,
                          std::string* text, SimDisk* disk,
                          DecodeScratch* scratch) const {
    std::string local;
    std::string* doc = scratch != nullptr ? &scratch->doc : &local;
    RLZ_RETURN_IF_ERROR(Get(id, doc, disk, scratch));
    text->clear();
    if (offset < doc->size()) {
      text->assign(*doc, offset,
                   length < doc->size() - offset ? length
                                                 : doc->size() - offset);
    }
    return Status::OK();
  }

  /// Total encoded size in bytes, including the document map and any
  /// dictionary — the numerator of the paper's "Enc. %" columns.
  virtual uint64_t stored_bytes() const = 0;

  /// Serializes the archive to `path` inside the versioned container
  /// format (store/format.h): every implementation writes a
  /// self-describing, CRC-protected envelope that OpenArchive() can
  /// reopen without knowing the concrete type. Multi-file formats (the
  /// sharded store) write `path` as a manifest plus sibling files derived
  /// from it. Returns InvalidArgument if the archive holds state the
  /// format cannot represent (e.g. an unregistered compressor).
  virtual Status Save(const std::string& path) const = 0;

  /// The live store this archive reads from, or null (the default). A
  /// DocService over a live store routes from its epochs and keeps its
  /// decode cache honest across deletes (DESIGN.md §11); an archive that
  /// forwards its reads to a live store forwards this too.
  virtual const ShardedStore* live_store() const { return nullptr; }
};

}  // namespace rlz

#endif  // RLZ_STORE_ARCHIVE_H_
