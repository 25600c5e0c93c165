#include "build/archive_builder.h"

#include <algorithm>
#include <utility>

#include "util/logging.h"
#include "util/timer.h"

namespace rlz {
namespace {

// Streaming default: small enough to keep AddDocument latency and
// buffered text low, large enough to amortize per-chunk overhead.
constexpr size_t kDefaultStreamChunkDocs = 64;

}  // namespace

RlzArchiveBuilder::RlzArchiveBuilder(std::shared_ptr<const Dictionary> dict,
                                     PairCoding coding, bool track_coverage)
    : RlzArchiveBuilder(std::move(dict),
                        ArchiveBuilderOptions{coding, track_coverage,
                                              /*num_threads=*/1,
                                              /*chunk_docs=*/0,
                                              /*background=*/false}) {}

RlzArchiveBuilder::RlzArchiveBuilder(std::shared_ptr<const Dictionary> dict,
                                     const ArchiveBuilderOptions& options)
    : options_(options),
      archive_(RlzArchive::NewEmpty(std::move(dict), options.coding)) {
  options_.num_threads = std::max(1, options_.num_threads);
  if (options_.chunk_docs == 0) options_.chunk_docs = kDefaultStreamChunkDocs;
  const int workers = options_.num_threads;
  factorizers_.reserve(workers);
  for (int w = 0; w < workers; ++w) {
    factorizers_.push_back(std::make_unique<Factorizer>(
        &archive_->dictionary(), options_.track_coverage));
  }
  scratch_.resize(workers);
  if (workers > 1) {
    BuildPipelineOptions pipeline_options;
    pipeline_options.num_threads = workers;
    pipeline_options.background = options_.background;
    pipeline_ = std::make_unique<BuildPipeline>(pipeline_options);
    open_ = std::make_shared<Chunk>();
  }
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
  if (pipeline_ == nullptr) {
    // Serial: factorize and encode in place — no buffering, live stats.
    const double start = ThreadCpuSeconds();
    std::vector<Factor>& factors = scratch_[0];
    factors.clear();
    factorizers_[0]->Factorize(doc, &factors);
    archive_->AppendEncodedDoc(factors);
    serial_cpu_seconds_ += ThreadCpuSeconds() - start;
    stats_ = factorizers_[0]->stats();
    return;
  }
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
  pipeline_->Submit(
      [this, chunk](int worker) {
        Factorizer& factorizer = *factorizers_[worker];
        std::vector<Factor>& factors = scratch_[worker];
        chunk->doc_sizes.reserve(chunk->docs.size());
        for (std::string_view doc : chunk->docs) {
          factors.clear();
          factorizer.Factorize(doc, &factors);
          const size_t before = chunk->payload.size();
          // The pipeline has no error channel; a document beyond the
          // z-stream format limits (>4 GiB of factor stream) aborts, as
          // AppendEncodedDoc does on the serial path.
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

double RlzArchiveBuilder::UnusedDictionaryFraction() const {
  if (pipeline_ == nullptr && archive_ != nullptr) {
    return factorizers_[0]->UnusedFraction();
  }
  if (merged_coverage_.empty()) return 0.0;
  return 1.0 - static_cast<double>(merged_coverage_.CountSet()) /
                   merged_coverage_.size();
}

void RlzArchiveBuilder::MergeWorkerState() {
  stats_ = FactorStats();
  for (const auto& factorizer : factorizers_) {
    stats_.Merge(factorizer->stats());
  }
  if (options_.track_coverage) {
    merged_coverage_.Assign(archive_->dictionary().size());
    for (const auto& factorizer : factorizers_) {
      merged_coverage_.OrWith(factorizer->coverage());
    }
  }
}

std::unique_ptr<RlzArchive> RlzArchiveBuilder::Finish(
    ArchiveBuildReport* report) && {
  RLZ_CHECK(archive_ != nullptr) << "Finish() called twice";
  if (pipeline_ != nullptr) {
    if (!open_->docs.empty()) FlushChunk();
    const BuildPipelineStats pipeline_stats = pipeline_->Finish();
    MergeWorkerState();
    if (report != nullptr) {
      report->cpu_seconds = pipeline_stats.total_cpu_seconds();
      report->critical_path_seconds = pipeline_stats.critical_path_seconds();
      report->chunks = pipeline_stats.chunks;
      report->num_threads = pipeline_stats.num_threads;
    }
  } else {
    if (options_.track_coverage) {
      merged_coverage_ = factorizers_[0]->coverage();
    }
    if (report != nullptr) {
      report->cpu_seconds = serial_cpu_seconds_;
      report->critical_path_seconds = serial_cpu_seconds_;
      report->chunks = 0;
      report->num_threads = 1;
    }
  }
  if (report != nullptr) {
    report->stats = stats_;
    report->coverage = merged_coverage_;
    report->unused_dictionary_fraction = UnusedDictionaryFraction();
  }
  return std::move(archive_);
}

std::unique_ptr<RlzArchive> RlzArchive::Build(
    const Collection& collection, std::shared_ptr<const Dictionary> dict,
    const RlzBuildOptions& options, RlzBuildInfo* info) {
  RLZ_CHECK(dict != nullptr);
  const size_t ndocs = collection.num_docs();
  ArchiveBuilderOptions builder_options;
  builder_options.coding = options.coding;
  builder_options.track_coverage = options.track_coverage;
  builder_options.num_threads = std::max(1, options.num_threads);
  builder_options.chunk_docs =
      options.chunk_docs != 0
          ? options.chunk_docs
          : BalancedChunkDocs(ndocs, builder_options.num_threads);
  RlzArchiveBuilder builder(std::move(dict), builder_options);
  for (size_t i = 0; i < ndocs; ++i) {
    builder.AddBorrowedDocument(collection.doc(i));
  }
  ArchiveBuildReport report;
  std::unique_ptr<RlzArchive> archive = std::move(builder).Finish(&report);
  if (info != nullptr) {
    info->stats = report.stats;
    info->unused_dictionary_fraction = report.unused_dictionary_fraction;
    info->coverage = std::move(report.coverage);
    info->build_cpu_seconds = report.cpu_seconds;
    info->build_critical_path_seconds = report.critical_path_seconds;
    info->build_chunks = report.chunks;
  }
  return archive;
}

}  // namespace rlz
