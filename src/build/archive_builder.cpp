#include "build/archive_builder.h"

#include <algorithm>
#include <utility>

#include "util/logging.h"

namespace rlz {
namespace {

// Streaming default: small enough to keep AddDocument latency and
// buffered text low, large enough to amortize per-chunk overhead.
constexpr size_t kDefaultStreamChunkDocs = 64;

}  // namespace

RlzArchiveBuilder::RlzArchiveBuilder(std::shared_ptr<const Dictionary> dict,
                                     BuildPool* pool,
                                     const RlzBuildOptions& options)
    : options_(options),
      archive_(RlzArchive::NewEmpty(std::move(dict), options.coding)),
      open_(std::make_shared<Chunk>()),
      pipeline_(pool) {
  if (options_.chunk_docs == 0) options_.chunk_docs = kDefaultStreamChunkDocs;
  const int workers = pool->num_threads();
  factorizers_.reserve(workers);
  for (int w = 0; w < workers; ++w) {
    factorizers_.push_back(std::make_unique<Factorizer>(
        &archive_->dictionary(), options_.track_coverage));
  }
  scratch_.resize(workers);
}

void RlzArchiveBuilder::AddDocument(std::string_view doc) {
  Append(doc, /*copy=*/true);
}

void RlzArchiveBuilder::AddBorrowedDocument(std::string_view doc) {
  Append(doc, /*copy=*/false);
}

void RlzArchiveBuilder::Append(std::string_view doc, bool copy) {
  RLZ_CHECK(archive_ != nullptr) << "AddDocument after Finish";
  ++docs_added_;
  if (copy) {
    open_->owned.emplace_back(doc);
    open_->docs.push_back(open_->owned.back());
  } else {
    open_->docs.push_back(doc);
  }
  if (open_->docs.size() >= options_.chunk_docs) FlushChunk();
}

void RlzArchiveBuilder::FlushChunk() {
  std::shared_ptr<Chunk> chunk = std::move(open_);
  open_ = std::make_shared<Chunk>();
  RlzArchive* archive = archive_.get();
  pipeline_.Submit(
      [this, chunk](int worker) {
        Factorizer& factorizer = *factorizers_[worker];
        std::vector<Factor>& factors = scratch_[worker];
        chunk->doc_sizes.reserve(chunk->docs.size());
        for (std::string_view doc : chunk->docs) {
          factors.clear();
          factorizer.Factorize(doc, &factors);
          const size_t before = chunk->payload.size();
          // The pipeline has no error channel; a document beyond the
          // z-stream format limits (>4 GiB of factor stream) aborts.
          const Status status =
              archive_->coder().EncodeDoc(factors, &chunk->payload);
          RLZ_CHECK(status.ok()) << status.ToString();
          chunk->doc_sizes.push_back(chunk->payload.size() - before);
        }
        // The text is dead once encoded; release it before the chunk
        // waits (possibly behind slower predecessors) to merge.
        chunk->docs.clear();
        chunk->docs.shrink_to_fit();
        chunk->owned.clear();
      },
      [archive, chunk]() {
        archive->AppendEncodedChunk(chunk->payload, chunk->doc_sizes);
      });
}

std::unique_ptr<RlzArchive> RlzArchiveBuilder::Finish(RlzBuildInfo* info) && {
  RLZ_CHECK(archive_ != nullptr) << "Finish() called twice";
  if (!open_->docs.empty()) FlushChunk();
  const BuildPipelineStats pipeline_stats = pipeline_.Finish();
  if (info != nullptr) {
    info->stats = FactorStats();
    for (const auto& factorizer : factorizers_) {
      info->stats.Merge(factorizer->stats());
    }
    info->coverage = Bitmap();
    if (options_.track_coverage) {
      info->coverage.Assign(archive_->dictionary().size());
      for (const auto& factorizer : factorizers_) {
        info->coverage.OrWith(factorizer->coverage());
      }
    }
    info->unused_dictionary_fraction =
        info->coverage.empty() ? 0.0 : 1.0 - info->coverage.FractionSet();
    info->build_cpu_seconds = pipeline_stats.total_cpu_seconds();
    info->build_critical_path_seconds =
        pipeline_stats.critical_path_seconds();
    info->build_chunks = pipeline_stats.chunks;
  }
  return std::move(archive_);
}

std::unique_ptr<RlzArchive> RlzArchive::Build(
    const Collection& collection, std::shared_ptr<const Dictionary> dict,
    const RlzBuildOptions& options, RlzBuildInfo* info) {
  RLZ_CHECK(dict != nullptr);
  const size_t ndocs = collection.num_docs();
  BuildPool pool(options.num_threads);
  RlzBuildOptions builder_options = options;
  if (builder_options.chunk_docs == 0) {
    builder_options.chunk_docs = BalancedChunkDocs(ndocs, pool.num_threads());
  }
  RlzArchiveBuilder builder(std::move(dict), &pool, builder_options);
  for (size_t i = 0; i < ndocs; ++i) {
    builder.AddBorrowedDocument(collection.doc(i));
  }
  return std::move(builder).Finish(info);
}

}  // namespace rlz
