#ifndef RLZ_BUILD_ARCHIVE_BUILDER_H_
#define RLZ_BUILD_ARCHIVE_BUILDER_H_

/// \file
/// Streaming archive construction on the build pool (DESIGN.md §7).

#include <deque>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "build/build_pipeline.h"
#include "core/rlz_archive.h"

namespace rlz {

/// Incremental archive construction (the §3.6 dynamic setting) on a
/// BuildPool: documents are appended one at a time and the finished
/// archive is byte-identical to RlzArchive::Build over the same sequence —
/// for any pool size or chunk size.
///
///   rlz::BuildPool pool(8);
///   RlzArchiveBuilder builder(dict, &pool);
///   while (crawler.HasNext()) builder.AddDocument(crawler.Next());
///   auto archive = std::move(builder).Finish();
///
/// Documents accumulate into chunks of options.chunk_docs; each chunk is
/// factorized by one of the per-worker Factorizers against the shared
/// immutable Dictionary and merged into the archive in submission order
/// (on an inline pool, when the chunk fills). AddDocument applies
/// backpressure once 4 x num_threads chunks are unmerged, so memory stays
/// bounded while streaming. Not thread-safe: one producer thread, not a
/// worker of `pool`, calls AddDocument/Finish.
class RlzArchiveBuilder {
 public:
  /// A builder that encodes on `pool` (which must outlive it) with
  /// `options`' coding, coverage tracking and chunk size; 0 chunk_docs
  /// picks 64, a streaming default. options.num_threads is unused: the
  /// pool's worker count applies.
  RlzArchiveBuilder(std::shared_ptr<const Dictionary> dict, BuildPool* pool,
                    const RlzBuildOptions& options = {});

  /// Queues one document at the next document id. The bytes are copied.
  void AddDocument(std::string_view doc);

  /// Like AddDocument, but the caller guarantees `doc`'s bytes stay valid
  /// until Finish returns — the zero-copy path for collections already
  /// held in memory (RlzArchive::Build, ShardedStore shard builds).
  void AddBorrowedDocument(std::string_view doc);

  /// Documents added so far (including ones still in unmerged chunks).
  size_t num_docs() const { return docs_added_; }

  /// Drains the run, merges worker stats/coverage, and returns the
  /// archive. The builder is consumed. If `info` is non-null it receives
  /// the build statistics and accounting.
  std::unique_ptr<RlzArchive> Finish(RlzBuildInfo* info = nullptr) &&;

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

  RlzBuildOptions options_;
  std::unique_ptr<RlzArchive> archive_;
  // One factorizer per pool worker: index w is touched only by worker w
  // (an inline pool uses index 0 from the producer thread).
  std::vector<std::unique_ptr<Factorizer>> factorizers_;
  std::vector<std::vector<Factor>> scratch_;  // per-worker factor buffer
  std::shared_ptr<Chunk> open_;               // chunk being filled
  size_t docs_added_ = 0;
  // Declared last so its destructor drains in-flight chunks while the
  // members their callbacks touch are still alive.
  BuildPipeline pipeline_;
};

}  // namespace rlz

#endif  // RLZ_BUILD_ARCHIVE_BUILDER_H_
