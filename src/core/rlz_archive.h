#ifndef RLZ_CORE_RLZ_ARCHIVE_H_
#define RLZ_CORE_RLZ_ARCHIVE_H_

/// \file
/// The RLZ document store: build options, the archive, and its file format.

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "core/dictionary.h"
#include "core/factor_coder.h"
#include "core/factorizer.h"
#include "corpus/collection.h"
#include "store/archive.h"
#include "store/doc_map.h"
#include "store/open_archive.h"
#include "util/bitmap.h"
#include "util/logging.h"

namespace rlz {

/// Build-time knobs for RlzArchive::Build and RlzArchiveBuilder.
struct RlzBuildOptions {
  /// Position/length coding pair for the factor streams (§3.4).
  PairCoding coding = kZV;
  /// Track per-byte dictionary usage while encoding (needed for the
  /// Unused % statistic and for dictionary pruning; small CPU overhead).
  bool track_coverage = false;
  /// Worker threads of RlzArchive::Build's pool; an RlzArchiveBuilder
  /// uses the pool it is given instead. Documents are partitioned into
  /// contiguous chunks fed through the build pipeline (DESIGN.md §7);
  /// output is byte-identical for any thread count or chunk size (the
  /// dictionary is immutable, factorization is per-document, and chunks
  /// merge in document order).
  int num_threads = 1;
  /// Documents per pipeline chunk; 0 picks a balanced default in
  /// RlzArchive::Build and 64 in an RlzArchiveBuilder. Affects load
  /// balancing and merge overhead only, never the output bytes.
  size_t chunk_docs = 0;
};

/// Build-time results that the evaluation tables report, filled by
/// RlzArchiveBuilder::Finish.
struct RlzBuildInfo {
  /// Factor statistics summed over all documents (Tables 2/3).
  FactorStats stats;
  /// Fraction of dictionary bytes no factor used; valid if track_coverage.
  double unused_dictionary_fraction = 0.0;
  /// Per-dictionary-byte usage bitmap (BuildPruned's input); valid if
  /// track_coverage. Identical for any thread count.
  Bitmap coverage;
  /// Thread-CPU seconds summed over the build's workers — the work a
  /// serial build performs.
  double build_cpu_seconds = 0.0;
  /// The busiest worker's thread-CPU seconds: the modeled parallel build
  /// makespan under the one-core-per-worker doctrine (DESIGN.md §7).
  double build_critical_path_seconds = 0.0;
  /// Pipeline chunks the build was partitioned into.
  size_t build_chunks = 0;
};

/// The rlz document store (§3.1): an in-memory dictionary plus one encoded
/// factor stream per document and a document map. Random access decodes
/// only the requested document against the memory-resident dictionary.
class RlzArchive final : public Archive {
 public:
  /// Factorizes every document of `collection` against `dict` and encodes
  /// the factor streams with `options.coding`. `dict` is shared (it may be
  /// reused across archives with different codings). If `info` is non-null
  /// it receives the build statistics. Runs on a BuildPool of
  /// options.num_threads workers (implemented in src/build/, DESIGN.md
  /// §7); the output is byte-identical for any worker count.
  static std::unique_ptr<RlzArchive> Build(const Collection& collection,
                                           std::shared_ptr<const Dictionary> dict,
                                           const RlzBuildOptions& options = {},
                                           RlzBuildInfo* info = nullptr);

  /// Encodes precomputed per-document factor lists (one vector per
  /// document, as produced by Factorizer). Lets callers factorize once and
  /// encode under several codings — how the evaluation builds its
  /// ZZ/ZV/UZ/UV rows from a single parsing pass.
  static std::unique_ptr<RlzArchive> BuildFromFactors(
      std::shared_ptr<const Dictionary> dict,
      const std::vector<std::vector<Factor>>& docs, PairCoding coding);

  /// The scratch-less convenience overloads stay visible alongside the
  /// scratch-aware overrides below.
  using Archive::Get;
  using Archive::GetRange;

  /// "rlz-" plus the coding name (e.g. "rlz-ZV").
  std::string name() const override { return "rlz-" + coder_.coding().name(); }
  /// Number of stored documents.
  size_t num_docs() const override { return map_.num_docs(); }
  /// Decodes document `id` against the memory-resident dictionary,
  /// reading (and charging to `disk`) only that document's factor stream.
  /// With `scratch` the decode reuses the caller's buffers and performs no
  /// heap allocation beyond the output itself (DESIGN.md §9).
  Status Get(size_t id, std::string* doc, SimDisk* disk,
             DecodeScratch* scratch) const override;

  /// Decodes only bytes [offset, offset+length) of document `id` — the
  /// snippet-generation fast path (§1): factor streams are skipped, not
  /// expanded, outside the range. Clamps to the document end.
  Status GetRange(size_t id, size_t offset, size_t length, std::string* text,
                  SimDisk* disk, DecodeScratch* scratch) const override;

  /// Encoded payload + document map + dictionary text (the dictionary is
  /// part of the stored output, as in the paper's Enc. % figures).
  uint64_t stored_bytes() const override {
    return payload().size() + map_.serialized_bytes() + dict_->size();
  }

  /// The shared dictionary the archive decodes against.
  const Dictionary& dictionary() const { return *dict_; }
  /// True if this archive decodes against `dict` itself (the same object,
  /// not merely equal text).
  bool SharesDictionary(const Dictionary& dict) const {
    return dict_.get() == &dict;
  }
  /// The position/length factor coder.
  const FactorCoder& coder() const { return coder_; }
  /// Total encoded factor-stream bytes (excluding map and dictionary).
  uint64_t payload_bytes() const { return payload().size(); }
  /// Payload extents per document — lets a router (ShardedStore) charge
  /// simulated I/O for a shard-local read without decoding twice.
  const DocMap& doc_map() const { return map_; }

  /// On-disk format id inside the container envelope ("rlz").
  static constexpr char kFormatId[] = "rlz";
  /// The format version Save writes and the only one Load reads.
  static constexpr uint32_t kFormatVersion = 2;
  /// Format id of a store shard that references a dictionary the store
  /// keeps in its own file ("rlzshard"; DESIGN.md §8).
  static constexpr char kShardFormatId[] = "rlzshard";
  /// The "rlzshard" version SerializeShard writes and the only one read.
  static constexpr uint32_t kShardFormatVersion = 1;

  /// Serializes the archive (coding, dictionary text, document map,
  /// payload) as a container envelope (store/format.h). The suffix array
  /// is derived data and rebuilt on load.
  Status Save(const std::string& path) const override;

  /// The complete container bytes Save would write — for callers that
  /// need to route the write through their own FileSystem (the durable
  /// store's checkpoint path writes shards behind explicit fsync
  /// barriers; DESIGN.md §12).
  std::string Serialize() const;

  /// The "rlzshard" container: Serialize's body with the dictionary text
  /// replaced by a binding to it (its length and CRC-32). The document
  /// map and payload bytes are the same as Serialize's. Opens only
  /// against the dictionary it was encoded with (Load's `dict`).
  std::string SerializeShard() const;

  /// Opens an archive written by Save, or by SerializeShard when `dict`
  /// is the dictionary the shard was encoded against (ignored for an
  /// "rlz" file, which carries its own). Returns Corruption on format or
  /// checksum errors and on a shard whose binding does not match `dict`,
  /// and InvalidArgument for another format or version, or for an
  /// "rlzshard" file opened without a dictionary. No open builds the
  /// dictionary's suffix array: Get/GetRange never use it, and
  /// factorizing a new document builds it on first use.
  static StatusOr<std::unique_ptr<RlzArchive>> Load(
      const std::string& path, const OpenOptions& options = {},
      std::shared_ptr<const Dictionary> dict = nullptr);

  /// Materializes an archive from a parsed envelope, as Load does — the
  /// OpenArchive registry hook, which passes no dictionary.
  static StatusOr<std::unique_ptr<RlzArchive>> FromEnvelope(
      const ParsedEnvelope& envelope, const OpenOptions& options,
      std::shared_ptr<const Dictionary> dict = nullptr);

 private:
  /// The streaming builder (src/build/) appends merged pipeline chunks
  /// through the private hooks below.
  friend class RlzArchiveBuilder;

  RlzArchive(std::shared_ptr<const Dictionary> dict, PairCoding coding)
      : dict_(std::move(dict)), coder_(coding) {}

  /// The one body writer of both formats: the dictionary text ("rlz") or
  /// its binding ("rlzshard") between the coding and the size table.
  std::string Encode(bool embed_dictionary) const;

  /// For RlzArchiveBuilder: an archive with no documents yet.
  static std::unique_ptr<RlzArchive> NewEmpty(
      std::shared_ptr<const Dictionary> dict, PairCoding coding) {
    return std::unique_ptr<RlzArchive>(
        new RlzArchive(std::move(dict), coding));
  }

  /// For BuildFromFactors: encodes `factors` as the next document.
  /// Aborts on a document beyond the z-stream format limits; callers
  /// that need the Status use FactorCoder::EncodeDoc directly.
  void AppendEncodedDoc(const std::vector<Factor>& factors) {
    const size_t before = owned_payload_.size();
    const Status status = coder_.EncodeDoc(factors, &owned_payload_);
    RLZ_CHECK(status.ok()) << status.ToString();
    map_.Add(owned_payload_.size() - before);
  }

  /// For RlzArchiveBuilder's pipeline merge: appends a chunk of
  /// already-encoded documents (their concatenated factor streams plus
  /// per-document sizes summing to payload.size()).
  void AppendEncodedChunk(std::string_view payload,
                          const std::vector<uint64_t>& doc_sizes) {
    owned_payload_.append(payload);
    for (uint64_t size : doc_sizes) map_.Add(size);
  }

  /// The encoded factor streams: the build path appends into
  /// owned_payload_; the open path aliases the loaded file bytes
  /// (backing_) without copying them (DESIGN.md §9).
  std::string_view payload() const {
    return backing_ != nullptr ? payload_view_
                               : std::string_view(owned_payload_);
  }

  std::shared_ptr<const Dictionary> dict_;
  FactorCoder coder_;
  std::string owned_payload_;           // build path
  std::shared_ptr<const void> backing_;  // open path: keeps file bytes alive
  std::string_view payload_view_;        // into the backed bytes
  DocMap map_;
};

}  // namespace rlz

#endif  // RLZ_CORE_RLZ_ARCHIVE_H_
