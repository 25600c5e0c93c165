#ifndef RLZ_SERVE_MANIFEST_H_
#define RLZ_SERVE_MANIFEST_H_

/// \file
/// The sharded store's manifest: a value type that encodes to, and parses
/// from, the "sharded" container envelope (DESIGN.md §8, §11). It does no
/// file I/O and knows nothing of the store; ShardedStore builds one from
/// its current epoch to save, and opens the shard files a parsed one
/// names.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/factorizer.h"
#include "serve/shard_router.h"
#include "store/format.h"
#include "util/status.h"

namespace rlz {

/// Mutation-path knobs of a live ShardedStore (DESIGN.md §11). The
/// manifest persists them, so a reopened or recovered store seals and
/// compacts as the store that wrote it did.
struct LiveStoreOptions {
  /// Raw tail bytes that trigger an automatic seal: once the open tail
  /// segment holds at least this much appended text, the Append that
  /// crossed the threshold seals it into a new compressed shard (paying
  /// the whole tail's encode, and on a durable store the checkpoint that
  /// makes the new shard durable) before returning. 0 disables auto-seal
  /// (callers seal explicitly).
  size_t tail_seal_bytes = 1 << 20;
  /// Compaction trigger: a shard whose tombstoned-but-still-stored
  /// payload fraction reaches this is tombstone-heavy.
  double compact_tombstone_fraction = 0.25;
  /// Compaction trigger: a shard whose dictionary has at least this
  /// fraction of never-referenced bytes (coverage decay, §3.6) is
  /// stale-dictionary.
  double compact_stale_unused_fraction = 0.5;
  /// Compaction trigger: a shard whose average factor length decayed by
  /// at least this fraction against the store's build-time baseline
  /// (FactorStats::avg_factor_decay) is stale-dictionary. The seal's
  /// refresh rule reads it too: once the newest shard bound to the
  /// current append dictionary has decayed this far, the next seal of at
  /// least a shard dictionary's worth of text samples a new one.
  double compact_stale_decay = 0.5;
};

/// Health and provenance of one sealed shard — the compactor's scoring
/// input (ShardedStore::shard_health), persisted in the manifest.
struct ShardHealth {
  /// Rewrite generation (0 = as first sealed; +1 per compaction swap).
  uint64_t generation = 0;
  /// Encoded payload bytes owned by tombstoned ids that a rewrite has not
  /// yet reclaimed.
  uint64_t tombstoned_payload_bytes = 0;
  /// Fraction of the shard's dictionary never referenced by any factor
  /// (coverage decay; 1.0 - Bitmap::FractionSet of the build coverage).
  double unused_dict_fraction = 0.0;
  /// Factor statistics of the shard's most recent (re)build.
  FactorStats stats;
};

/// Everything a sharded store persists besides its shard files: the
/// sealed-shard layout of one epoch and its mutation state. Built from an
/// epoch it shares the epoch's router and tail documents, so encoding a
/// live store copies no document bytes.
struct Manifest {
  /// On-disk format id of the manifest envelope.
  static constexpr char kFormatId[] = "sharded";
  /// The one manifest version written and read. Versions 1 (boundaries
  /// and shard names only), 2 (no live options), 3 (the append
  /// dictionary's text inline) and 4 (one append dictionary) are no
  /// longer read (DESIGN.md §8).
  static constexpr uint32_t kFormatVersion = 5;
  /// A `shard_dicts` entry: the shard carries its own dictionary ("rlz").
  static constexpr uint64_t kOwnDictionary = ~uint64_t{0};

  /// The epoch's publication sequence number.
  uint64_t sequence = 0;
  /// Shard boundaries: shard s owns doc ids [start(s), start(s + 1)).
  std::shared_ptr<const ShardRouter> router;
  /// Per shard, its file name relative to the manifest (no '/').
  std::vector<std::string> shard_names;
  /// Per shard, its health record.
  std::vector<ShardHealth> health;
  /// The store-wide build-time factor statistics.
  FactorStats baseline;
  /// Per shard, the ascending shard-local ids of its tombstoned documents.
  /// Ids rather than bitmaps: a parsed manifest allocates no more than its
  /// body's size, whatever shard sizes its boundaries claim.
  std::vector<std::vector<uint64_t>> tombstones;
  /// The ascending tail positions of tombstoned open-tail documents.
  std::vector<uint64_t> tail_tombstones;
  /// The raw open-tail documents, in id order.
  std::vector<std::shared_ptr<const std::string>> tail_docs;
  /// The files holding the append dictionaries ("dict" containers),
  /// relative to the manifest (no '/'): each retired one some shard binds
  /// to, then the current one, which tail seals encode against. At least
  /// one.
  std::vector<std::string> dict_names;
  /// Per shard, the index in `dict_names` of the dictionary its
  /// "rlzshard" file is bound to, or kOwnDictionary for an "rlz" file
  /// that carries its own.
  std::vector<uint64_t> shard_dicts;
  /// The store's seal and compaction knobs.
  LiveStoreOptions live;
  /// The size of compaction's re-sampled dictionaries.
  uint64_t shard_dict_bytes = 0;

  /// The complete envelope bytes. `router` must be set, and every
  /// per-shard vector must have one entry per shard (checked).
  std::string Encode() const;

  /// Parses and validates a manifest envelope. InvalidArgument for another
  /// format id or version; Corruption for a malformed body (a shard count,
  /// boundary, file name, dictionary count or id, tombstone id or tail
  /// count that cannot hold, or trailing bytes). Allocates at most in
  /// proportion to the body size.
  static StatusOr<Manifest> Parse(const ParsedEnvelope& envelope);
};

}  // namespace rlz

#endif  // RLZ_SERVE_MANIFEST_H_
