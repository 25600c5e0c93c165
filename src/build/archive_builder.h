#ifndef RLZ_BUILD_ARCHIVE_BUILDER_H_
#define RLZ_BUILD_ARCHIVE_BUILDER_H_

/// \file
/// Streaming archive construction on the parallel build pipeline (DESIGN.md §7).

#include <deque>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "build/build_pipeline.h"
#include "core/rlz_archive.h"
#include "util/bitmap.h"

namespace rlz {

/// Knobs for RlzArchiveBuilder.
struct ArchiveBuilderOptions {
  /// Position/length coding pair for the factor streams (§3.4).
  PairCoding coding = kZV;
  /// Track per-byte dictionary usage (one bitmap per worker, merged with
  /// Bitmap::OrWith at Finish).
  bool track_coverage = false;
  /// Factorization workers. 1 encodes each document synchronously inside
  /// AddDocument (the §3.6 dynamic setting — stats are live); > 1 batches
  /// documents into chunks and encodes them on the build pipeline
  /// (DESIGN.md §7). Output bytes are identical either way.
  int num_threads = 1;
  /// Documents per pipeline chunk when num_threads > 1; 0 picks 64 (a
  /// streaming default — batch builds pass a balanced value). Never
  /// affects output bytes.
  size_t chunk_docs = 0;
  /// Run the pipeline workers at background priority
  /// (BuildPipelineOptions::background). Never affects output bytes.
  bool background = false;
};

/// What a finished build did (Finish's out-param; the basis of
/// RlzBuildInfo and the build-throughput bench).
struct ArchiveBuildReport {
  /// Factor statistics merged over all workers (FactorStats::Merge).
  FactorStats stats;
  /// Merged per-dictionary-byte coverage (empty unless track_coverage).
  Bitmap coverage;
  /// Fraction of dictionary bytes never used (0 unless track_coverage).
  double unused_dictionary_fraction = 0.0;
  /// Thread-CPU seconds summed over workers (serial-equivalent work).
  double cpu_seconds = 0.0;
  /// Busiest worker's thread-CPU seconds (modeled parallel makespan).
  double critical_path_seconds = 0.0;
  /// Pipeline chunks the documents were partitioned into.
  size_t chunks = 0;
  /// Worker count the build ran with.
  int num_threads = 1;
};

/// Incremental archive construction (the §3.6 dynamic setting), rebuilt on
/// the parallel build pipeline: documents are appended one at a time and
/// the finished archive is byte-identical to RlzArchive::Build over the
/// same sequence — for any worker count or chunk size.
///
///   RlzArchiveBuilder builder(dict, {.num_threads = 8});
///   while (crawler.HasNext()) builder.AddDocument(crawler.Next());
///   auto archive = std::move(builder).Finish();
///
/// With one worker each AddDocument factorizes and encodes synchronously
/// (no buffering, live stats). With several, documents accumulate into
/// chunks of chunk_docs; each chunk is factorized by one of the per-worker
/// Factorizers against the shared immutable Dictionary and merged into the
/// archive in submission order. AddDocument applies backpressure once
/// 4 x num_threads chunks are unmerged, so memory stays bounded while
/// streaming. Not thread-safe: one producer thread calls
/// AddDocument/Finish.
class RlzArchiveBuilder {
 public:
  /// Serial builder (one worker), matching the historical constructor.
  RlzArchiveBuilder(std::shared_ptr<const Dictionary> dict, PairCoding coding,
                    bool track_coverage = false);

  /// Builder with explicit options (worker count, chunking, coverage).
  RlzArchiveBuilder(std::shared_ptr<const Dictionary> dict,
                    const ArchiveBuilderOptions& options);

  /// Factorizes and encodes one document at the next document id. The
  /// bytes are copied if they must outlive the call (parallel mode).
  void AddDocument(std::string_view doc);

  /// Like AddDocument, but the caller guarantees `doc`'s bytes stay valid
  /// until Finish returns — the zero-copy path for collections already
  /// held in memory (RlzArchive::Build, ShardedStore shard builds).
  void AddBorrowedDocument(std::string_view doc);

  /// Documents added so far (including ones still in unmerged chunks).
  size_t num_docs() const { return docs_added_; }

  /// Factor statistics: live and exact with one worker. With several
  /// workers the totals are merged by Finish — until then this returns
  /// zeros (per-worker counters are not safely readable mid-build).
  const FactorStats& stats() const { return stats_; }

  /// Fraction of dictionary bytes unused so far. Live with one worker;
  /// with several, exact after Finish.
  double UnusedDictionaryFraction() const;

  /// Drains the pipeline, merges worker stats/coverage, and returns the
  /// archive. The builder is consumed. If `report` is non-null it
  /// receives the build accounting.
  std::unique_ptr<RlzArchive> Finish(ArchiveBuildReport* report = nullptr) &&;

 private:
  /// Text accumulated for one pipeline chunk. Borrowed documents are
  /// referenced in place; owned ones live in `owned` (a deque, so views
  /// stay stable as more documents arrive).
  struct Chunk {
    std::vector<std::string_view> docs;
    std::deque<std::string> owned;
    std::string payload;
    std::vector<uint64_t> doc_sizes;
  };

  void Append(std::string_view doc, bool copy);
  void FlushChunk();
  void MergeWorkerState();

  ArchiveBuilderOptions options_;
  std::unique_ptr<RlzArchive> archive_;
  // One factorizer per worker: index w is touched only by pipeline worker
  // w (serial mode uses index 0 from the producer thread).
  std::vector<std::unique_ptr<Factorizer>> factorizers_;
  std::vector<std::vector<Factor>> scratch_;  // per-worker factor buffer
  std::shared_ptr<Chunk> open_;               // chunk being filled
  size_t docs_added_ = 0;
  FactorStats stats_;          // serial: live; parallel: set by Finish
  Bitmap merged_coverage_;     // set by Finish (parallel, track_coverage)
  double serial_cpu_seconds_ = 0.0;
  // Declared last so its destructor drains in-flight chunks while the
  // members their callbacks touch are still alive.
  std::unique_ptr<BuildPipeline> pipeline_;
};

}  // namespace rlz

#endif  // RLZ_BUILD_ARCHIVE_BUILDER_H_
