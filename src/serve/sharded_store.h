#ifndef RLZ_SERVE_SHARDED_STORE_H_
#define RLZ_SERVE_SHARDED_STORE_H_

/// \file
/// The live sharded corpus: N independent RLZ shards plus an appendable
/// tail segment behind one Archive interface, published to readers as
/// immutable epoch snapshots (DESIGN.md §6, §11).

#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "build/build_pipeline.h"
#include "core/factor_coder.h"
#include "core/factorizer.h"
#include "core/rlz_archive.h"
#include "corpus/collection.h"
#include "io/file_system.h"
#include "serve/corpus_epoch.h"
#include "serve/manifest.h"
#include "serve/shard_router.h"
#include "store/archive.h"
#include "store/open_archive.h"
#include "store/wal/checkpoint.h"
#include "store/wal/wal_writer.h"

namespace rlz {

/// Build-time knobs for ShardedStore::Build.
struct ShardedStoreOptions {
  /// Number of partitions. Clamped to [1, num_docs]. Shards are contiguous
  /// document ranges balanced by text bytes, so crawl locality (and URL
  /// ordering, §3.5) survives partitioning.
  int num_shards = 4;
  /// Total dictionary budget, split evenly across shards — a 4-shard store
  /// and an unsharded archive with the same `dict_bytes` are comparable in
  /// the paper's Enc. % terms.
  size_t dict_bytes = 1 << 20;
  /// Position/length coding pair used by every shard.
  PairCoding coding = kZV;
  /// Mutation-path knobs (tail sealing, compaction triggers).
  LiveStoreOptions live;
};

/// What one compaction pass did (ShardedStore::CompactOnce).
struct CompactionReport {
  /// Why a shard was rewritten (or kNone when no shard crossed a
  /// threshold).
  enum class Reason {
    kNone,             ///< no shard needed compaction
    kTombstones,       ///< tombstoned payload fraction crossed the trigger
    kStaleDictionary,  ///< dictionary coverage/factor-length decay trigger
  };

  /// True when a shard was rewritten and swapped into a new epoch.
  bool compacted = false;
  /// The rewritten shard's index (-1 when not compacted).
  int shard = -1;
  /// The rewritten shard's new generation.
  uint64_t generation = 0;
  /// Which trigger fired.
  Reason reason = Reason::kNone;
  /// The shard's stored bytes before the rewrite.
  uint64_t bytes_before = 0;
  /// The shard's stored bytes after the rewrite.
  uint64_t bytes_after = 0;
  /// Live documents re-encoded into the rewrite.
  size_t live_docs = 0;
  /// Tombstoned ids whose payload the rewrite reclaimed.
  size_t dead_docs = 0;
};

/// Partitions a collection into independent RlzArchive shards behind the
/// Archive interface — the scale-out unit of the serving layer (DESIGN.md
/// §6) — and keeps the corpus *live*: documents can be appended (to a raw
/// open tail segment that is encoded once, when it seals, on the build
/// pipeline), deleted (tombstoned), and compacted (CompactOnce rewrites a
/// tombstone-heavy or stale-dictionary shard off the writer lock and swaps
/// it into the next epoch).
///
/// Concurrency model (DESIGN.md §11): all reads resolve against an
/// immutable CorpusEpoch published through an atomically swapped
/// shared_ptr. Get/GetRange pin the current epoch for the duration of the
/// call, so decode never races a mutation; writers (Append/Delete/seal/
/// compaction publish) serialize on an internal mutex and never block
/// readers. Any number of threads may read concurrently with any number
/// of mutators.
class ShardedStore final : public Archive {
 public:
  /// Signature of the cache-invalidation hook (see SetEvictionListener).
  using EvictionListener = std::function<void(size_t id)>;

  /// Partitions `collection`, samples one dictionary per shard (1 KB
  /// samples, the paper's default), and builds the shards concurrently,
  /// one build pipeline worker per shard, each shard byte-identical to a
  /// serial RlzArchive::Build of its documents. Also samples the first
  /// append dictionary, which tail seals encode against until one
  /// refreshes it (SealTail), and publishes epoch 0.
  static std::unique_ptr<ShardedStore> Build(
      const Collection& collection, const ShardedStoreOptions& options = {});

  /// Closes the WAL, if durable.
  ~ShardedStore() override;

  /// The scratch-less convenience overloads stay visible alongside the
  /// scratch-aware overrides below.
  using Archive::Get;
  using Archive::GetRange;

  /// "sharded-<shard coding>/<N>".
  std::string name() const override;
  /// Total documents across sealed shards and the open tail, including
  /// tombstoned ids (ids are permanent; see CorpusEpoch).
  size_t num_docs() const override { return epoch()->num_docs(); }
  /// Pins the current epoch and decodes the document from that snapshot.
  /// Returns NotFound for a tombstoned id. `disk` is ignored: the disk
  /// model belongs to the paper benches, not the serving stack (DESIGN.md
  /// §6).
  Status Get(size_t id, std::string* doc, SimDisk* disk,
             DecodeScratch* scratch) const override;
  /// Pins the current epoch and decodes only the requested range; `disk`
  /// is ignored, as for Get.
  Status GetRange(size_t id, size_t offset, size_t length, std::string* text,
                  SimDisk* disk, DecodeScratch* scratch) const override;
  /// Sum of every sealed shard's stored bytes plus the raw open tail.
  uint64_t stored_bytes() const override { return epoch()->stored_bytes(); }
  /// This store.
  const ShardedStore* live_store() const override { return this; }

  // --- Mutation API (DESIGN.md §11) -------------------------------------

  /// Appends one document to the open tail segment and publishes the
  /// epoch that contains it. Returns the new document's permanent id,
  /// also when the seal it triggers fails (that error is latched by the
  /// WAL and returned by the next mutation).
  /// The document is stored raw, not encoded, and serves reads until the
  /// tail seals. Crossing LiveStoreOptions::tail_seal_bytes seals the
  /// tail before returning, and on a durable store checkpoints the new
  /// shard (SealTail). Thread-safe against concurrent readers and other
  /// mutators. Fails with InvalidArgument on a store whose append
  /// dictionary has no matcher (a serving-only open).
  StatusOr<size_t> Append(std::string_view doc);

  /// Tombstones document `id` and publishes the epoch that hides it:
  /// after Delete returns, new Gets return NotFound (readers pinned to an
  /// earlier epoch still see the document — snapshot isolation). The
  /// payload bytes are reclaimed by a later compaction, not here.
  /// Returns OutOfRange for an unknown id, NotFound if already deleted.
  Status Delete(size_t id);

  /// True if `id` resolves to a non-tombstoned document in the current
  /// epoch (the serving layer's post-insert cache check).
  bool IsLive(size_t id) const;

  /// Seals the open tail into a new compressed shard (growing the router
  /// by one range) and publishes the epoch containing it. The tail is
  /// encoded here, in one batch on the build pipeline, byte-identical to
  /// a serial RlzArchive::Build against the current append dictionary.
  /// When the newest shard bound to that dictionary has decayed past
  /// LiveStoreOptions::compact_stale_decay and the tail holds at least a
  /// shard dictionary's worth of text, the seal first samples a new
  /// current append dictionary from the tail (DESIGN.md §11). No-op when
  /// the tail is empty. Called automatically when an Append crosses
  /// LiveStoreOptions::tail_seal_bytes. On a durable store the seal is
  /// then made durable as a shard by an incremental Checkpoint, which
  /// writes the new shard and rolls the WAL past the seal, so recovery
  /// replays at most the open tail's raw appends (DESIGN.md §12). A
  /// failure of that checkpoint does not fail the seal, whose record is
  /// already logged: the first such error is kept and returned by the
  /// next Checkpoint(). Fails with InvalidArgument, as Append does, when
  /// the append dictionary has no matcher (a serving-only open).
  Status SealTail();

  /// One compaction pass: scores every sealed shard (tombstoned-payload
  /// fraction, dictionary staleness), rewrites the worst shard that
  /// crossed a trigger — re-encoding its live documents, reclaiming
  /// tombstoned payload — and swaps it into the next epoch. A stale shard
  /// bound to a retired append dictionary re-encodes against the current
  /// one; every other victim against a dictionary re-sampled from its
  /// live documents. The rebuild runs against a pinned epoch without blocking
  /// mutators; only the final swap takes the writer lock. Readers pinned
  /// to older epochs keep decoding from the pre-compaction shard until
  /// they drain. Returns a report (compacted == false when no shard
  /// crossed a trigger).
  StatusOr<CompactionReport> CompactOnce();

  /// Registers (or, with nullptr, clears) the invalidation hook the
  /// mutation path calls with each tombstoned id — after the tombstoning
  /// epoch is published — and with each id whose payload a compaction
  /// reclaimed. The serving layer uses it to erase stale decode-cache
  /// entries (LruCache::Erase). At most one listener; clearing blocks
  /// until any in-flight callback returns, so the previous listener's
  /// captures can be destroyed safely after this returns. Registration is
  /// const: observers do not mutate corpus state.
  void SetEvictionListener(EvictionListener listener) const;

  // --- Epoch and introspection ------------------------------------------

  /// Pins the current epoch: the returned snapshot (and every document in
  /// it) stays byte-identical and decodable for as long as the pointer is
  /// held, regardless of later appends, deletes, seals, or compactions.
  std::shared_ptr<const CorpusEpoch> epoch() const;

  /// The current epoch's publication sequence number.
  uint64_t epoch_sequence() const { return epoch()->sequence(); }

  /// Number of sealed shards in the current epoch.
  int num_shards() const { return epoch()->num_shards(); }
  /// The shard holding doc `id` in the current epoch (id must be <
  /// sealed docs).
  size_t shard_of(size_t id) const { return epoch()->router().shard_of(id); }
  /// Shard `s` of the current epoch (s must be < num_shards()). The
  /// reference stays valid while the store lives (shards are replaced,
  /// never destroyed, while any epoch can reach them) — but prefer
  /// epoch() for multi-call consistency.
  const RlzArchive& shard(int s) const { return epoch()->shard(s); }
  /// First doc id owned by shard `s` in the current epoch.
  size_t starts(int s) const {
    return epoch()->router().start(static_cast<size_t>(s));
  }
  /// Shared doc-id → shard routing snapshot of the current epoch. The
  /// serving layer refreshes this per submission: routing from a stale
  /// snapshot is a locality miss, never an error (DESIGN.md §10).
  std::shared_ptr<const ShardRouter> router_snapshot() const {
    return epoch()->router_ptr();
  }
  /// Health counters of sealed shard `s` in the current epoch — the
  /// compaction triggers' inputs.
  ShardHealth shard_health(int s) const;
  /// The store-wide build-time factor statistics the staleness trigger
  /// compares against (FactorStats::avg_factor_decay).
  FactorStats baseline_stats() const;

  /// Serializes the current epoch as one file per shard, the append
  /// dictionaries and a manifest: each sealed shard is written at
  /// `path + ".shardNNNN"` (a shard bound to an append dictionary as an
  /// "rlzshard" container, any other as an "rlz" container with its
  /// own), each append dictionary once at `path + ".dict"`,
  /// `path + ".dict0001"`, ..., then the Manifest (epoch sequence, shard
  /// boundaries, relative file names, dictionary bindings, health,
  /// tombstones, raw tail documents) at `path` — last, so a crash
  /// mid-save never leaves a manifest pointing at missing files. The
  /// directory can be moved as a unit: file names are stored relative to
  /// the manifest.
  Status Save(const std::string& path) const override;

  /// Opens a store written by Save: reads the manifest and the append
  /// dictionaries, then loads every shard file in parallel (one worker
  /// per shard, capped at the process's CPUs, AvailableCpus), restoring
  /// the full epoch: tombstones, generations and the raw open tail. Every
  /// "rlzshard" shard decodes against the append dictionary object the
  /// manifest binds it to. No open builds a suffix array: the store only
  /// factorizes against its current append dictionary, whose matcher the
  /// first seal builds. A serving-only reopen
  /// (OpenOptions::build_suffix_array = false) disables Append and
  /// SealTail (InvalidArgument), so it never builds one. Fails with
  /// IOError if a file named by the manifest is missing, Corruption if a
  /// shard's document count or dictionary binding disagrees with the
  /// manifest. The reopened
  /// store seals and compacts with the saved store's LiveStoreOptions,
  /// which the manifest carries.
  static StatusOr<std::unique_ptr<ShardedStore>> Open(
      const std::string& path, const OpenOptions& options = {});

  /// Materializes a store from a parsed manifest envelope — the
  /// OpenArchive registry hook. `path` locates the sibling shard files.
  static StatusOr<std::unique_ptr<ShardedStore>> FromEnvelope(
      const ParsedEnvelope& envelope, const std::string& path,
      const OpenOptions& options);

  // --- Durability (DESIGN.md §12) ---------------------------------------

  /// What OpenDurable's recovery found.
  struct RecoveryReport {
    /// Generation of the checkpoint recovery started from.
    uint64_t generation = 0;
    /// WAL records replayed over the checkpoint.
    uint64_t replayed_records = 0;
    /// LSN the recovered writer resumes at.
    uint64_t next_lsn = 0;
    /// True if the final WAL segment ended in a torn frame (truncated).
    bool torn_tail = false;
  };

  /// Attaches crash-safe persistence to this store: creates `dir`,
  /// starts a write-ahead log, and writes checkpoint generation 1 of the
  /// current state. From then on every Append/Delete/SealTail is logged
  /// before its epoch publishes — under the default
  /// wal::WalWriterOptions (fsync_every_n = 1) an acknowledged mutation
  /// is written and synced before it returns and survives any crash.
  /// Under fsync_every_n = n > 1 up to n-1 acknowledged mutations sit in
  /// the writer's buffer, and a process crash as well as an OS crash
  /// loses them; SyncWal bounds that window. The first WAL I/O error is
  /// fail-stop: every later mutation, Checkpoint and SyncWal returns it.
  /// A seal and a compaction each trigger a fresh checkpoint after they
  /// publish. `fs` null
  /// means the real file system.
  Status MakeDurable(const std::string& dir,
                     const wal::WalWriterOptions& wal_options = {},
                     std::shared_ptr<FileSystem> fs = nullptr);

  /// Opens (and auto-recovers) a durable store directory: finds the most
  /// recent complete checkpoint (CURRENT, with a scan fallback when
  /// CURRENT itself is damaged), loads its manifest and shards as Open
  /// does, replays the WAL over it — tolerating a torn final segment —
  /// and resumes logging. Replayed appends re-enter the raw tail; a
  /// replayed seal encodes it as SealTail does, so recovered shards are
  /// byte-identical to the crashed store's. A serving-only open
  /// (options.build_suffix_array = false) skips re-sealing (WAL'd tail
  /// documents stay raw), writes nothing, and disables every mutation
  /// (read_only() becomes true). `fs` non-null routes ALL I/O —
  /// checkpoint, shards, WAL — through it (the crash-injection tests'
  /// hook), as options.fs does for the checkpoint files; with neither,
  /// shard and dictionary files are mapped (MmapFile), not copied, and
  /// the WAL uses the real file system. As with Open, the recovered
  /// store runs with the checkpointed store's LiveStoreOptions. Replay
  /// itself writes no checkpoint.
  static StatusOr<std::unique_ptr<ShardedStore>> OpenDurable(
      const std::string& dir, const OpenOptions& options = {},
      const wal::WalWriterOptions& wal_options = {},
      std::shared_ptr<FileSystem> fs = nullptr,
      RecoveryReport* report = nullptr);

  /// Writes a new checkpoint of the current epoch (write-new -> fsync ->
  /// rename; see store/wal/checkpoint.h) and prunes the WAL it covers.
  /// Only shards and append dictionaries no committed checkpoint holds
  /// yet (sealed, compacted or refreshed since, or all of them after
  /// MakeDurable) are written; the manifest names the existing files of
  /// the rest, and garbage collection keeps them. A retired append
  /// dictionary's file goes with the first checkpoint after no shard
  /// binds to it. Mutators are blocked only while the WAL is synced and rolled,
  /// not while shards are written. InvalidArgument when not durable.
  /// Returns the first error of a post-seal checkpoint (SealTail) since
  /// the last call, if there was one, even when this checkpoint
  /// committed.
  Status Checkpoint();

  /// Explicit WAL durability barrier — makes every acknowledged mutation
  /// durable now regardless of the group-commit policy.
  Status SyncWal();

  /// True once MakeDurable/OpenDurable attached a WAL to this store.
  bool durable() const;
  /// True for a serving-only durable open: every mutation is disabled.
  bool read_only() const;
  /// Generation of the live checkpoint (0 when not durable).
  uint64_t checkpoint_generation() const;

 private:
  ShardedStore() = default;

  /// Builds the epoch that reflects the current writer state and swaps it
  /// in. Requires writer_mu_.
  void PublishLocked();
  /// Logs (when durable) and seals the non-empty open tail into a new
  /// shard. Requires writer_mu_.
  Status SealTailLocked();
  /// Checkpoint's work without the post-seal error: takes checkpoint_mu_,
  /// then writer_mu_.
  Status WriteCheckpoint();
  /// The checkpoint that follows a seal on a durable store; keeps its
  /// first error for the next Checkpoint(). Called without writer_mu_.
  void CheckpointAfterSeal();

  // The non-logging mutation cores, shared by the live path (which logs
  // first) and WAL replay (which must not log, publish per record, or
  // notify evictions). All require writer_mu_. ApplyAppendLocked returns
  // the new document's id.
  size_t ApplyAppendLocked(std::string_view doc);
  Status ApplyDeleteLocked(size_t id);
  Status ApplySealLocked(bool refresh);

  /// InvalidArgument on a read-only (serving-only durable) open.
  Status CheckWritableLocked() const;
  /// InvalidArgument on a serving-only open: it encodes nothing.
  Status CheckAppendDictionaryLocked() const;
  /// Appends one WAL record under the group-commit policy. Requires
  /// writer_mu_ and wal_ != nullptr.
  Status LogLocked(wal::RecordType type, std::string_view payload);
  /// The manifest of the published epoch, which it pins in `snapshot`;
  /// shard names are left to the caller. Shared by Save and Checkpoint.
  /// Requires writer_mu_.
  Manifest ManifestLocked(std::shared_ptr<const CorpusEpoch>* snapshot) const;
  /// Opens the shard files `manifest` names next to `path` and installs
  /// the manifest's state in a new store.
  static StatusOr<std::unique_ptr<ShardedStore>> FromManifest(
      Manifest manifest, const std::string& path, const OpenOptions& options);
  /// Loads checkpoint `info` from `dir` and replays the WAL over it.
  static StatusOr<std::unique_ptr<ShardedStore>> OpenFromCheckpoint(
      const std::string& dir, const wal::CheckpointInfo& info,
      const OpenOptions& options, const wal::WalWriterOptions& wal_options,
      const std::shared_ptr<FileSystem>& fs, RecoveryReport* report);
  /// Invokes the eviction listener (if any) for `id`, outside writer_mu_.
  void NotifyEviction(size_t id) const;
  /// Scores sealed shards against the compaction triggers; fills the
  /// reason and returns the victim index, or -1. Requires writer_mu_.
  int PickCompactionVictimLocked(CompactionReport::Reason* reason) const;
  /// The refresh rule, read at each seal: true when the tail holds at
  /// least a dictionary's worth of text and the newest shard bound to the
  /// current append dictionary has decayed past the staleness trigger.
  /// Requires writer_mu_.
  bool RefreshDueLocked() const;

  ShardedStoreOptions options_;  // build-time + live knobs

  // The published epoch: readers pin it with a shared_ptr copy under
  // epoch_mu_ (held for the copy only); PublishLocked swaps it under the
  // same mutex. All other members below are writer state.
  mutable std::mutex epoch_mu_;
  std::shared_ptr<const CorpusEpoch> epoch_;

  // Writer state, guarded by writer_mu_: the mutable mirror of the
  // current epoch that the next PublishLocked snapshots.
  mutable std::mutex writer_mu_;
  uint64_t next_sequence_ = 1;
  // The sealed shard set of the next epoch. Mutations replace it with a
  // modified copy (the published one is shared and immutable).
  std::shared_ptr<const ShardSet> sealed_;
  // Per shard, the file in durable_dir_ that a committed checkpoint wrote
  // its bytes to, or empty when no checkpoint holds it yet (DESIGN.md
  // §12). Set after a CURRENT flip; cleared by seal, compaction swap and
  // MakeDurable. The next checkpoint rewrites only the unnamed shards.
  std::vector<std::string> shard_files_;
  // The same for each append dictionary, parallel to
  // sealed_->append_dicts: written by the first checkpoint that holds it,
  // then named again by every later one while a shard binds to it.
  std::vector<std::string> dict_files_;
  // The open tail; only this copy appends (TailSegment).
  TailSegment tail_;
  std::shared_ptr<const Bitmap> tail_tombstones_;
  uint64_t deleted_docs_ = 0;
  FactorStats baseline_stats_;
  // Per-shard dictionary budget (dict_bytes / initial shard count): the
  // size of compaction's re-sampled dictionaries.
  size_t shard_dict_bytes_ = 1 << 20;

  // Durability state (DESIGN.md §12). wal_ non-null once
  // MakeDurable/OpenDurable attached a log; all guarded by writer_mu_
  // except checkpoint_mu_, which serializes whole checkpoints.
  std::shared_ptr<FileSystem> fs_;
  std::string durable_dir_;
  std::unique_ptr<wal::WalWriter> wal_;
  uint64_t checkpoint_generation_ = 0;
  // Opened with OpenOptions::build_suffix_array = false: appends and
  // seals are refused and compaction re-samples every victim, so nothing
  // builds the append dictionary's matcher. A durable serving-only open
  // is also read_only_ and refuses every mutation.
  bool serving_only_ = false;
  bool read_only_ = false;
  std::mutex checkpoint_mu_;
  // The first failed post-seal checkpoint's error, until Checkpoint()
  // returns it. Guarded by checkpoint_mu_.
  Status post_seal_error_;

  // One compaction rebuild at a time; the rebuild holds compact_mu_ but
  // not writer_mu_, so mutators keep running while it decodes/re-encodes.
  std::mutex compact_mu_;

  // The workers of every tail seal (live or replayed) and compaction
  // rebuild, started with the store: one per CPU, at background
  // priority, since at default priority a saturating writer's seals took
  // every CPU from the readers (EXPERIMENTS.md "Sustained ingest vs
  // serving"). A seal and a compaction may run on it at once.
  BuildPool build_pool_{AvailableCpus(), /*background=*/true};

  // Eviction listener: registration and every invocation hold
  // listener_mu_, so clearing the listener synchronizes with in-flight
  // callbacks. Mutable: observers register through a const store.
  mutable std::mutex listener_mu_;
  mutable EvictionListener listener_;
};

}  // namespace rlz

#endif  // RLZ_SERVE_SHARDED_STORE_H_
