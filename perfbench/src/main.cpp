// perfbench: the repository benchmark. One run drives one workload
// through the whole stack — corpus generation, a sharded RLZ store built
// and made durable, DocService behind a DocServer on loopback, reads over
// the wire, appends and deletes through the write-ahead log, a checkpoint
// and a cold recovery — and checks every byte it gets back against the
// generated corpus.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             --dir <scratch dir>
//
// --trace 0 prints the end-to-end metrics, --trace 1 the per-layer ones
// (spans timed around calls into each layer from this file). The last
// stdout line is the result as one JSON object; earlier lines are a
// human-readable report. perfbench/README.md describes the workloads.

#include <malloc.h>
#include <sched.h>

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common.h"
#include "core/factorizer.h"
#include "corpus/generator.h"
#include "load.h"
#include "net/doc_server.h"
#include "serve/doc_service.h"
#include "serve/sharded_store.h"
#include "store/decode_scratch.h"
#include "trace.h"
#include "util/logging.h"
#include "util/random.h"

namespace perfbench {
namespace {

// --- Workloads ------------------------------------------------------------

// Both workloads read over one connection into a DocService with one
// worker. The load client runs on one CPU and the whole server (loop,
// batcher and worker threads) on another (see ReadCpus).
struct WorkloadConfig {
  const char* name;
  size_t corpus_bytes;     // base collection
  uint64_t cache_bytes;    // DocService decode cache
  int depth;               // requests in flight on the connection
  bool page;               // MultiGet pages, else 400 B GetRange snippets
};

// snippet_hot: the corpus fits the cache and ids are Zipf(0.99), so reads
//   stress net framing, batching and the serve queue, not decode.
// page_cold: the corpus is 8x the cache and ids are uniform, so most
//   documents run the full ZV decode.
constexpr WorkloadConfig kWorkloads[] = {
    {"snippet_hot", 16u << 20, 32u << 20, 32, false},
    {"page_cold", 64u << 20, 8u << 20, 8, true},
};
constexpr int kWorkers = 1;

constexpr uint64_t kSnippetBytes = 400;
constexpr int kPageDocs = 4;
constexpr double kZipfTheta = 0.99;
constexpr int kNumShards = 4;
// The flush policy: fsync the WAL after every 8th record. Stated in every
// result; a comparison is valid only between runs with the same policy.
constexpr int kFsyncEveryN = 8;
constexpr int kDeleteEvery = 50;        // one delete per 50 appends
constexpr int kCompactEverySeals = 8;   // CompactOnce after every 8th seal
// Appended documents cycle through a second corpus of this size.
constexpr size_t kAppendCorpusBytes = 32u << 20;
// Write phase length, a count, so stored_ratio is a function of the seed.
constexpr size_t kWriteAppends = 4000;
// The read phase runs in this many parts, each against a fresh DocService
// and DocServer over the same store, so the read metrics do not rest on
// one server instance (parts of one run differ by up to 15%).
constexpr int kReadParts = 5;
// The read windows kept for the metrics: the quarter of all windows of
// the read phase that ran with the least steal on the run's CPUs (see
// Quietest). Pooled over parts, so a part spent under a busy neighbour
// adds none. The write phase is not split: its work differs from one
// stretch to the next (compactions, document sizes).
constexpr double kQuietShare = 0.25;
// Appends after the checkpoint: the fixed WAL suffix recovery replays.
constexpr size_t kSuffixAppends = 200;
// Repetitions whose median over the quieter half is reported (untraced
// runs).
constexpr int kSetupReps = 3;
constexpr int kRecoverReps = 9;
// Requests of each stream the traced run replays at every layer.
constexpr size_t kReplayRequests = 4000;
constexpr size_t kReplayPages = 800;
constexpr size_t kStreamsShareDocs = 200;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string dir;
};

// --- Result output --------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void PrintResult(bool correct, uint64_t attempted, uint64_t failed,
                 const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::printf("# %-28s %14.4f %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  char buf[128];
  for (size_t i = 0; i < metrics.size(); ++i) {
    std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.17g, ",
                  i == 0 ? "" : ", ", metrics[i].name.c_str(),
                  metrics[i].value);
    json += buf;
    json += "\"unit\": \"" + metrics[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

// A field of /proc/self/status ("VmRSS", "VmHWM") in MB; 0 when unknown.
double ProcStatusMb(const std::string& field) {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.compare(0, field.size() + 1, field + ":") == 0) {
      return std::strtod(line.c_str() + field.size() + 1, nullptr) / 1024.0;
    }
  }
  return 0;
}

// Returns freed heap to the system and restarts the peak-RSS mark (VmHWM)
// at the current RSS, which it returns in MB: the baseline the program's
// peak is measured above.
double ResetPeakRss() {
  ::malloc_trim(0);
  std::ofstream("/proc/self/clear_refs") << "5";
  return ProcStatusMb("VmRSS");
}

double Seconds(uint64_t start_ns, uint64_t end_ns) {
  return static_cast<double>(end_ns - start_ns) / 1e9;
}

// --- CPU placement ----------------------------------------------------------

// The run uses two CPUs, the last two the process may use at start (one
// when it may use only one). In the read phase the load client runs on
// one and every server thread on the other; everything else may use
// both. Left to the scheduler, the read phase's four threads spread over
// the four vCPUs of a shared host; the hypervisor then stole 15-20% of
// their time and one run's read_rps fell from 170k to 30-90k, while the
// pinned layout, in the same minutes, kept 150-175k at 0-3% steal.
struct ReadCpus {
  int client = -1;
  int server = -1;

  // Both, for StealMeter; empty (all CPUs) when unknown.
  std::vector<int> list() const {
    if (server < 0) return {};
    if (client == server) return {server};
    return {client, server};
  }
};

ReadCpus ChooseReadCpus() {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  ReadCpus cpus;
  if (::sched_getaffinity(0, sizeof(allowed), &allowed) != 0) return cpus;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (!CPU_ISSET(cpu, &allowed)) continue;
    cpus.client = cpus.server;
    cpus.server = cpu;
  }
  if (cpus.client < 0) cpus.client = cpus.server;
  return cpus;
}

// Confines the calling thread, and every thread it starts, to both CPUs.
void UseOnly(const ReadCpus& cpus) {
  if (cpus.server < 0) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpus.client, &set);
  CPU_SET(cpus.server, &set);
  ::sched_setaffinity(0, sizeof(set), &set);
}

// Runs `fn` with the calling thread, and every thread it starts, on `cpu`
// (anywhere when -1), then restores the calling thread's CPUs.
template <typename Fn>
void OnCpu(int cpu, Fn fn) {
  cpu_set_t before;
  const bool pin =
      cpu >= 0 && ::sched_getaffinity(0, sizeof(before), &before) == 0;
  if (pin) {
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    ::sched_setaffinity(0, sizeof(one), &one);
  }
  fn();
  if (pin) ::sched_setaffinity(0, sizeof(before), &before);
}

// --- The stack under test -------------------------------------------------

struct Stack {
  rlz::Corpus base;
  rlz::Collection appends;
  std::unique_ptr<rlz::ShardedStore> store;
  std::unique_ptr<rlz::DocService> service;
  std::unique_ptr<rlz::net::DocServer> server;
  ReadCpus cpus;
  double gen_s = 0, build_s = 0, total_s = 0;
  double rss_baseline_mb = 0;  // after the inputs exist, before Build

  // Stops serving; the store stays.
  void StopServing() {
    if (server) server->Shutdown();
    server.reset();
    service.reset();
  }
  ~Stack() { StopServing(); }
};

rlz::wal::WalWriterOptions WalOptions() {
  rlz::wal::WalWriterOptions options;
  options.fsync_every_n = kFsyncEveryN;
  return options;
}

// Starts a DocService and a DocServer over the store and warms the decode
// cache with one Get per base document.
void StartServingHere(const WorkloadConfig& cfg, Stack* stack) {
  rlz::DocServiceOptions service_options;
  service_options.num_threads = kWorkers;
  service_options.cache_bytes = cfg.cache_bytes;
  stack->service =
      std::make_unique<rlz::DocService>(stack->store.get(), service_options);
  stack->server = std::make_unique<rlz::net::DocServer>(stack->service.get());
  const rlz::Status started = stack->server->Start();
  RLZ_CHECK(started.ok()) << started.ToString();
  // Small batches, so the warm-up adds no queueing outliers to the
  // service's latency histogram.
  const size_t docs = stack->base.collection.num_docs();
  rlz::ServeBatch batch;
  std::vector<size_t> ids;
  for (size_t first = 0; first < docs; first += 8) {
    ids.clear();
    for (size_t i = first; i < std::min(first + 8, docs); ++i) ids.push_back(i);
    stack->service->SubmitBatch(ids, &batch);
    for (const rlz::GetResult& r : batch.Wait()) {
      RLZ_CHECK(r.ok()) << r.status.ToString();
    }
  }
}

// StartServingHere with every server thread on the server CPU.
void StartServing(const WorkloadConfig& cfg, Stack* stack) {
  OnCpu(stack->cpus.server, [&] { StartServingHere(cfg, stack); });
}

// Corpus generation, store build, MakeDurable, service and server start,
// and a cache warm-up of one Get per document.
std::unique_ptr<Stack> Setup(const WorkloadConfig& cfg, uint64_t seed,
                             const std::string& dir, const ReadCpus& cpus,
                             std::shared_ptr<rlz::FileSystem> fs) {
  auto stack = std::make_unique<Stack>();
  stack->cpus = cpus;
  const uint64_t t0 = NowNs();
  rlz::CorpusOptions base_options;
  base_options.seed = seed;
  base_options.target_bytes = cfg.corpus_bytes;
  stack->base = rlz::GenerateCorpus(base_options);
  rlz::CorpusOptions append_options;
  append_options.seed = seed ^ 0x9E3779B97F4A7C15ULL;
  append_options.target_bytes = kAppendCorpusBytes;
  stack->appends = rlz::GenerateCorpus(append_options).collection;
  const uint64_t t1 = NowNs();
  // Not part of set-up: the benchmark's own bookkeeping.
  stack->rss_baseline_mb = ResetPeakRss();
  const uint64_t build_start = NowNs();

  const rlz::Collection& collection = stack->base.collection;
  rlz::ShardedStoreOptions store_options;
  store_options.num_shards = kNumShards;
  store_options.dict_bytes = collection.size_bytes() / 100;
  stack->store = rlz::ShardedStore::Build(collection, store_options);
  const uint64_t t2 = NowNs();
  const rlz::Status durable = stack->store->MakeDurable(dir, WalOptions(), fs);
  RLZ_CHECK(durable.ok()) << durable.ToString();
  StartServing(cfg, stack.get());
  const uint64_t t3 = NowNs();
  stack->gen_s = Seconds(t0, t1);
  stack->build_s = Seconds(build_start, t2);
  stack->total_s = Seconds(t0, t1) + Seconds(build_start, t3);
  return stack;
}

// The expected bytes of every id the run creates: the base corpus, then
// the write phase's appends and the WAL suffix, cycling through the
// append corpus. Also picks the base ids the writer deletes.
DocTable MakeDocTable(const Stack& stack, size_t write_appends,
                      uint64_t seed) {
  DocTable table;
  const rlz::Collection& base = stack.base.collection;
  for (size_t i = 0; i < base.num_docs(); ++i) {
    table.docs.push_back(base.doc(i));
  }
  const size_t total = write_appends + kSuffixAppends;
  for (size_t k = 0; k < total; ++k) {
    table.docs.push_back(stack.appends.doc(k % stack.appends.num_docs()));
  }
  table.deleted.assign(table.docs.size(), 0);
  rlz::Rng rng(seed * 31 + 7);
  // At most half the base is deleted; later delete slots are skipped.
  const size_t deletes =
      std::min(write_appends / kDeleteEvery, base.num_docs() / 2);
  for (size_t d = 0; d < deletes;) {
    const size_t id = rng.Uniform(base.num_docs());
    if (!table.deleted[id]) {
      table.deleted[id] = 1;
      ++d;
    }
  }
  return table;
}

std::vector<size_t> DeleteOrder(const DocTable& table) {
  std::vector<size_t> ids;
  for (size_t i = 0; i < table.deleted.size(); ++i) {
    if (table.deleted[i]) ids.push_back(i);
  }
  return ids;
}

// A GetRange of kSnippetBytes at a seeded offset inside document `id`.
Request Snippet(const DocTable& table, uint64_t id, rlz::Rng& rng) {
  Request r;
  r.is_range = true;
  r.ids[0] = id;
  const uint64_t size = table.docs[id].size();
  r.offset = size > kSnippetBytes ? rng.Uniform(size - kSnippetBytes + 1) : 0;
  r.length = kSnippetBytes;
  return r;
}

// --- Write phase ----------------------------------------------------------

struct WriteResult {
  std::vector<uint32_t> append_ns;       // every acknowledged Append
  std::vector<uint32_t> append_self_ns;  // non-sealing: minus WAL children
  std::vector<uint32_t> seal_ns;         // Appends that sealed the tail
  double tail_docs_sum = 0;              // epoch tail size after appends
  uint64_t bytes = 0;
  double span_s = 0;  // appends + deletes + compaction + final SyncWal
  uint64_t attempted = 0;
  uint64_t failed = 0;
  double compact_s = 0;
  uint64_t compact_bytes_written = 0;
};

// Appends table.docs[first, first + count) in order, deleting the next
// id of `deletes` after every kDeleteEvery appends and compacting after
// every kCompactEverySeals seals, then syncs the WAL.
WriteResult RunWriter(rlz::ShardedStore* store, const DocTable& table,
                      size_t first, size_t count,
                      const std::vector<size_t>& deletes) {
  WriteResult w;
  w.append_ns.reserve(count);
  size_t next_delete = 0;
  int seals = 0;
  const uint64_t t0 = NowNs();
  for (size_t k = 0; k < count; ++k) {
    const size_t expect_id = first + k;
    const std::string_view doc = table.docs[expect_id];
    const int shards_before = store->num_shards();
    const uint64_t wal_before = ThreadWalNs();
    const uint64_t start = NowNs();
    const rlz::StatusOr<size_t> id = store->Append(doc);
    const uint64_t ns = NowNs() - start;
    const uint64_t wal_ns = ThreadWalNs() - wal_before;
    ++w.attempted;
    if (!id.ok() || *id != expect_id) {
      ++w.failed;
      continue;
    }
    w.bytes += doc.size();
    w.append_ns.push_back(static_cast<uint32_t>(ns));
    w.tail_docs_sum += static_cast<double>(store->epoch()->tail_docs());
    if (store->num_shards() > shards_before) {
      w.seal_ns.push_back(static_cast<uint32_t>(ns));
      if (++seals % kCompactEverySeals == 0) {
        const uint64_t c0 = NowNs();
        const auto report = store->CompactOnce();
        w.compact_s += Seconds(c0, NowNs());
        ++w.attempted;
        if (!report.ok()) {
          ++w.failed;
        } else if (report->compacted) {
          w.compact_bytes_written += report->bytes_after;
        }
      }
    } else {
      w.append_self_ns.push_back(static_cast<uint32_t>(ns - wal_ns));
    }
    if ((k + 1) % kDeleteEvery == 0 && next_delete < deletes.size()) {
      const size_t victim = deletes[next_delete++];
      ++w.attempted;
      std::string text;
      if (!store->Delete(victim).ok() ||
          store->Get(victim, &text).code() != rlz::StatusCode::kNotFound) {
        ++w.failed;
      }
    }
  }
  ++w.attempted;
  if (!store->SyncWal().ok()) ++w.failed;
  w.span_s = Seconds(t0, NowNs());
  return w;
}

// Every id below `num_ids` reads back as the table says: deleted ids are
// NotFound, the rest byte-identical. Returns mismatches.
uint64_t VerifyStore(const rlz::ShardedStore& store, const DocTable& table,
                     size_t num_ids, uint64_t* attempted) {
  uint64_t failed = 0;
  ++*attempted;
  if (store.num_docs() != num_ids) ++failed;
  rlz::DecodeScratch scratch;
  std::string text;
  for (size_t id = 0; id < num_ids; ++id) {
    ++*attempted;
    const rlz::Status s = store.Get(id, &text, nullptr, &scratch);
    if (table.deleted[id]) {
      if (s.code() != rlz::StatusCode::kNotFound) ++failed;
    } else if (!s.ok() || text != table.docs[id]) {
      ++failed;
    }
  }
  return failed;
}

// --- Layer replays (traced runs) ------------------------------------------

struct ReplaySpans {
  std::vector<Span> net, serve_request, serve, store_get, store_range,
      core_get, core_range;
  double core_doc_bytes = 0;
  uint64_t failed = 0;
};

// Offset of the range replayed for an item of a whole-document request.
uint64_t ItemRangeOffset(const DocTable& table, uint64_t id) {
  const uint64_t size = table.docs[id].size();
  return size > kSnippetBytes ? (id * 7919) % (size - kSnippetBytes + 1) : 0;
}

rlz::BatchItem ToItem(const Request& r, int k) {
  rlz::BatchItem item;
  item.id = r.ids[k];
  item.is_range = r.is_range;
  item.offset = r.offset;
  item.length = r.length;
  return item;
}

bool ServedCorrectly(const DocTable& table, const Request& r, int k,
                     const rlz::GetResult& result) {
  if (!result.ok()) return false;
  return r.is_range ? RangeMatches(table, r, *result.text)
                    : *result.text == table.docs[r.ids[k]];
}

void ReplayLayers(const Stack& stack, const DocTable& table,
                  const std::vector<Request>& requests, ReplaySpans* out) {
  out->failed += ReplayNet(stack.server->port(), requests, table, &out->net);

  // serve, two passes. First one SubmitBatch + Wait per request, the
  // shape the server submits: the child of the net span. Then one per
  // document, where the cache-hit counter tells whether the worker called
  // down into the store: the parent of the store span.
  rlz::ServeBatch batch;
  std::vector<rlz::BatchItem> items;
  for (size_t i = 0; i < requests.size(); ++i) {
    const Request& r = requests[i];
    items.clear();
    for (int k = 0; k < r.count; ++k) items.push_back(ToItem(r, k));
    const uint64_t start = NowNs();
    stack.service->SubmitBatch(items.data(), items.size(), &batch);
    const std::vector<rlz::GetResult>& results = batch.Wait();
    out->serve_request.push_back({i, -1, kServe, false, start, NowNs()});
    for (int k = 0; k < r.count; ++k) {
      if (!ServedCorrectly(table, r, k, results[k])) ++out->failed;
    }
  }
  for (size_t i = 0; i < requests.size(); ++i) {
    const Request& r = requests[i];
    for (int k = 0; k < r.count; ++k) {
      const rlz::BatchItem item = ToItem(r, k);
      const uint64_t hits = stack.service->Stats().cache.hits;
      const uint64_t start = NowNs();
      stack.service->SubmitBatch(&item, 1, &batch);
      const rlz::GetResult& result = batch.Wait()[0];
      const uint64_t end = NowNs();
      const bool hit = stack.service->Stats().cache.hits > hits;
      if (!ServedCorrectly(table, r, k, result)) ++out->failed;
      out->serve.push_back({i, k, kServe, hit, start, end});
    }
  }

  // store and core: both calls for every document, single thread, with a
  // reused DecodeScratch as the serving workers use.
  const auto epoch = stack.store->epoch();
  rlz::DecodeScratch scratch;
  std::string text;
  for (size_t i = 0; i < requests.size(); ++i) {
    const Request& r = requests[i];
    for (int k = 0; k < r.count; ++k) {
      const uint64_t id = r.ids[k];
      const uint64_t offset = r.is_range ? r.offset : ItemRangeOffset(table, id);
      const std::string_view want_range =
          table.docs[id].substr(offset, kSnippetBytes);
      uint64_t start = NowNs();
      rlz::Status s = stack.store->Get(id, &text, nullptr, &scratch);
      out->store_get.push_back({i, k, kStore, false, start, NowNs()});
      if (!s.ok() || text != table.docs[id]) ++out->failed;
      start = NowNs();
      s = stack.store->GetRange(id, offset, kSnippetBytes, &text, nullptr,
                                &scratch);
      out->store_range.push_back({i, k, kStore, false, start, NowNs()});
      if (!s.ok() || text != want_range) ++out->failed;

      if (id >= epoch->sealed_docs()) continue;  // raw tail: no decode
      const size_t shard = epoch->router().shard_of(id);
      const size_t local = id - epoch->router().start(shard);
      const rlz::RlzArchive& archive = epoch->shard(static_cast<int>(shard));
      start = NowNs();
      s = archive.Get(local, &text, nullptr, &scratch);
      out->core_get.push_back({i, k, kCore, false, start, NowNs()});
      out->core_doc_bytes += static_cast<double>(text.size());
      if (!s.ok() || text != table.docs[id]) ++out->failed;
      start = NowNs();
      s = archive.GetRange(local, offset, kSnippetBytes, &text, nullptr,
                           &scratch);
      out->core_range.push_back({i, k, kCore, false, start, NowNs()});
      if (!s.ok() || text != want_range) ++out->failed;
    }
  }
}

// Writes the replay spans, one per line: layer, request id, item, leaf
// (cache hit), start and end in steady-clock nanoseconds.
void WriteSpans(const std::string& path, const ReplaySpans& replay) {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return;
  static const char* const kLayerNames[] = {"net", "serve", "store", "core"};
  std::fprintf(f, "layer\tcall\tid\titem\tleaf\tstart_ns\tend_ns\n");
  const std::pair<const char*, const std::vector<Span>*> sets[] = {
      {"request", &replay.net},       {"request", &replay.serve_request},
      {"item", &replay.serve},        {"get", &replay.store_get},
      {"range", &replay.store_range}, {"get", &replay.core_get},
      {"range", &replay.core_range}};
  for (const auto& set : sets) {
    for (const Span& sp : *set.second) {
      std::fprintf(f, "%s\t%s\t%" PRIu64 "\t%d\t%d\t%" PRIu64 "\t%" PRIu64
                      "\n",
                   kLayerNames[sp.layer], set.first, sp.id, sp.item,
                   sp.leaf ? 1 : 0, sp.start_ns, sp.end_ns);
    }
  }
  std::fclose(f);
}

// Share of a document decode spent decoding the factor streams (gzipx
// positions, vbyte lengths) rather than expanding copies: documents are
// re-factorized against their shard's dictionary and re-encoded with the
// shard's coder; the fused DecodeDoc is timed against expanding the same
// factors alone (Factorizer::Decode), and the share is 1 - copy / whole.
double DecodeStreamsShare(const rlz::ShardedStore& store,
                          const DocTable& table,
                          const std::vector<Request>& requests,
                          uint64_t* failed) {
  const auto epoch = store.epoch();
  double copy_ns = 0, doc_ns = 0;
  size_t sampled = 0;
  rlz::DecodeScratch scratch;
  std::vector<rlz::Factor> factors;
  std::string stream, text;
  for (const Request& r : requests) {
    if (sampled >= kStreamsShareDocs) break;
    const uint64_t id = r.ids[0];
    if (id >= epoch->sealed_docs() || table.docs[id].empty()) continue;
    const rlz::RlzArchive& archive =
        epoch->shard(static_cast<int>(epoch->router().shard_of(id)));
    const rlz::FactorCoder& coder = archive.coder();
    rlz::Factorizer factorizer(&archive.dictionary());
    factors.clear();
    factorizer.Factorize(table.docs[id], &factors);
    stream.clear();
    if (!coder.EncodeDoc(factors, &stream).ok()) {
      ++*failed;
      continue;
    }
    constexpr int kReps = 5;
    uint64_t start = NowNs();
    for (int rep = 0; rep < kReps; ++rep) {
      text.clear();
      if (!rlz::Factorizer::Decode(factors, archive.dictionary(), &text)
               .ok()) {
        ++*failed;
      }
    }
    copy_ns += static_cast<double>(NowNs() - start);
    start = NowNs();
    for (int rep = 0; rep < kReps; ++rep) {
      text.clear();  // DecodeDoc appends
      if (!coder.DecodeDoc(stream, archive.dictionary(), &text, &scratch)
               .ok()) {
        ++*failed;
      }
    }
    doc_ns += static_cast<double>(NowNs() - start);
    if (text != table.docs[id]) ++*failed;
    ++sampled;
  }
  return doc_ns > 0 ? std::max(0.0, 1.0 - copy_ns / doc_ns) : 0.0;
}

// --- Reporting helpers ----------------------------------------------------

struct ReadSummary {
  double rps = 0, p50_us = 0, p99_us = 0;
  uint64_t samples = 0;
  size_t windows = 0;
  double steal_share = 0;  // the most stolen of the windows used
};

// Each window's throughput and percentiles, medians over the quietest
// windows of all parts together. `parity` selects even (0) or odd (1)
// windows, -1 all.
ReadSummary SummarizeReads(const std::vector<LoadResult>& parts,
                           int parity = -1) {
  std::vector<const Histogram*> windows;
  std::vector<double> steal;
  double window_seconds = 0;
  for (const LoadResult& load : parts) {
    window_seconds = load.window_seconds;
    for (size_t w = 0; w < load.latency.size(); ++w) {
      if (parity < 0 || static_cast<int>(w % 2) == parity) {
        windows.push_back(&load.latency[w]);
        steal.push_back(load.steal_share[w]);
      }
    }
  }
  std::vector<size_t> all(windows.size());
  for (size_t i = 0; i < all.size(); ++i) all[i] = i;
  ReadSummary s;
  std::vector<double> rps, p50, p99;
  for (size_t i : Quietest(all, steal, kQuietShare)) {
    const Histogram& h = *windows[i];
    s.samples += h.total;
    s.steal_share = std::max(s.steal_share, steal[i]);
    if (h.total == 0) continue;
    rps.push_back(static_cast<double>(h.total) / window_seconds);
    p50.push_back(h.ValueAtQuantile(0.50) / 1e3);
    p99.push_back(h.ValueAtQuantile(0.99) / 1e3);
  }
  s.windows = rps.size();
  s.rps = Median(rps);
  s.p50_us = Median(p50);
  s.p99_us = Median(p99);
  return s;
}

const WorkloadConfig* FindWorkload(const std::string& name) {
  for (const WorkloadConfig& cfg : kWorkloads) {
    if (name == cfg.name) return &cfg;
  }
  return nullptr;
}

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      args->trace = value == "1";
    } else if (flag == "--dir") {
      args->dir = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !args->workload.empty() && !args->dir.empty() &&
         args->seconds > 0;
}

// --- The run --------------------------------------------------------------

// Draws the requests of the workload's read stream.
struct RequestSource {
  const WorkloadConfig* cfg;
  const DocTable* table;
  size_t base_docs;
  std::vector<size_t> zipf_ids;  // Zipf rank -> document id
  rlz::ZipfSampler zipf;

  Request operator()(rlz::Rng& rng) const {
    if (!cfg->page) return Snippet(*table, zipf_ids[zipf.Sample(rng)], rng);
    Request r;
    r.count = kPageDocs;
    for (int k = 0; k < kPageDocs; ++k) r.ids[k] = rng.Uniform(base_docs);
    return r;
  }
};

RequestGen MakeRequestGen(const WorkloadConfig& cfg, const DocTable& table,
                          size_t base_docs, uint64_t seed) {
  // Zipf ranks map to a seeded permutation of the ids, so the hot
  // documents spread over every shard.
  std::vector<size_t> ids(base_docs);
  for (size_t i = 0; i < base_docs; ++i) ids[i] = i;
  rlz::Rng shuffle(seed * 17 + 3);
  for (size_t i = base_docs; i > 1; --i) {
    std::swap(ids[i - 1], ids[shuffle.Uniform(i)]);
  }
  return RequestSource{&cfg, &table, base_docs, std::move(ids),
                       rlz::ZipfSampler(base_docs, kZipfTheta)};
}

// Everything one run measured, filled phase by phase.
struct Measurements {
  std::vector<double> setup_s, setup_steal;
  std::vector<LoadResult> reads;  // one per part of the read phase
  WriteResult writes;  // the write phase
  WriteResult suffix;  // the WAL suffix after the checkpoint
  rlz::ServiceStats serve0, serve1;  // around the last part of the reads
  rlz::net::NetServerStats net0, net1;
  double stored_ratio = 0;
  ReplaySpans replay;
  double streams_share = 0;
  double factorize_mb_s = 0;
  double avg_factor_len = 0;
  int shards_after_writes = 0;
  double checkpoint_s = 0;
  WalTimings wal;  // WAL calls from the start of the read phase on
  double rss_baseline_mb = 0, rss_peak_mb = 0;
  std::vector<double> recover_s, recover_steal;
  uint64_t replayed = 0;
  uint64_t attempted = 0;
  uint64_t failed = 0;
};

// Factorizer speed on the appended documents against the append
// dictionary (the dictionary of a never-compacted appended shard), and
// the factor length of the appended shards.
void MeasureFactorizer(const rlz::ShardedStore& store, const DocTable& table,
                       size_t base_docs, size_t appends, Measurements* m) {
  int dict_shard = 0;
  rlz::FactorStats appended;
  for (int s = kNumShards; s < store.num_shards(); ++s) {
    const rlz::ShardHealth health = store.shard_health(s);
    appended.Merge(health.stats);
    if (health.generation == 0) dict_shard = s;
  }
  m->avg_factor_len = appended.avg_factor_length();
  rlz::Factorizer factorizer(&store.shard(dict_shard).dictionary());
  std::vector<rlz::Factor> factors;
  uint64_t bytes = 0;
  const uint64_t start = NowNs();
  for (size_t k = 0; k < std::min<size_t>(appends, 300); ++k) {
    factors.clear();
    factorizer.Factorize(table.docs[base_docs + k], &factors);
    bytes += table.docs[base_docs + k].size();
  }
  m->factorize_mb_s = bytes / 1e6 / Seconds(start, NowNs());
}

// Cold recoveries of `dir`, each replaying the same WAL, with the steal
// on `cpus` during each; the last recovered store is checked against the
// table.
void Recover(const std::string& dir, int reps,
             const std::shared_ptr<rlz::FileSystem>& fs,
             const std::vector<int>& cpus, const DocTable& table,
             size_t num_ids, Measurements* m) {
  std::unique_ptr<rlz::ShardedStore> recovered;
  for (int rep = 0; rep < reps; ++rep) {
    recovered.reset();
    rlz::ShardedStore::RecoveryReport report;
    StealMeter steal(cpus);
    const uint64_t start = NowNs();
    auto opened =
        rlz::ShardedStore::OpenDurable(dir, {}, WalOptions(), fs, &report);
    m->recover_s.push_back(Seconds(start, NowNs()));
    m->recover_steal.push_back(steal.Lap());
    ++m->attempted;
    if (!opened.ok() || (rep > 0 && report.replayed_records != m->replayed)) {
      ++m->failed;
      return;
    }
    m->replayed = report.replayed_records;
    recovered = std::move(opened).value();
  }
  m->failed += VerifyStore(*recovered, table, num_ids, &m->attempted);
}

double TotalSpanSeconds(const std::vector<Span>& spans) {
  double ns = 0;
  for (const Span& s : spans) ns += static_cast<double>(s.end_ns - s.start_ns);
  return ns / 1e9;
}

template <typename T>
std::vector<T> Since(const std::vector<T>& v, size_t first) {
  return std::vector<T>(v.begin() + std::min(first, v.size()), v.end());
}

std::vector<Metric> EndToEndMetrics(const Measurements& m) {
  const ReadSummary reads = SummarizeReads(m.reads);
  const WriteResult& w = m.writes;
  return {
      {"setup_s", QuietMedian(m.setup_s, m.setup_steal), "s"},
      {"read_rps", reads.rps, "1/s"},
      {"read_p50_us", reads.p50_us, "us"},
      {"append_mb_s", w.bytes / 1e6 / w.span_s, "MB/s"},
      {"append_p50_us", Median(w.append_ns) / 1e3, "us"},
      {"recover_s", QuietMedian(m.recover_s, m.recover_steal), "s"},
      {"stored_ratio", m.stored_ratio, "ratio"},
      {"peak_rss_mb", m.rss_peak_mb - m.rss_baseline_mb, "MB"},
  };
}

std::vector<Metric> LayerMetrics(const Measurements& m, const Stack& stack,
                                 bool page, const WalTimings& wal_before) {
  const ReadSummary untraced = SummarizeReads(m.reads, 0);
  const ReadSummary traced = SummarizeReads(m.reads, 1);
  const auto ratio = [](double num, double den) {
    return den > 0 ? num / den : 0.0;
  };
  const rlz::net::NetServerStats& n0 = m.net0;
  const rlz::net::NetServerStats& n1 = m.net1;
  const rlz::ServiceStats& s0 = m.serve0;
  const rlz::ServiceStats& s1 = m.serve1;
  const double hits = double(s1.cache.hits - s0.cache.hits);
  const double misses = double(s1.cache.misses - s0.cache.misses);
  const std::vector<uint32_t> wal_sync =
      Since(m.wal.sync_ns, wal_before.sync_ns.size());
  const std::vector<Span>& store_child =
      page ? m.replay.store_get : m.replay.store_range;
  return {
      {"net.batch_size",
       ratio(double(n1.coalesced_requests - n0.coalesced_requests),
             double(n1.batches - n0.batches)),
       "requests"},
      {"net.reads_paused", double(n1.reads_paused - n0.reads_paused),
       "count"},
      {"net.bytes_per_response",
       ratio(double(n1.bytes_sent - n0.bytes_sent),
             double(n1.frames_sent - n0.frames_sent)),
       "B"},
      {"net.self_us", MedianSelfUs(m.replay.net, m.replay.serve_request),
       "us"},
      {"serve.queue_p50_us", s1.latency_p50_us, "us"},
      {"serve.queue_p99_us", s1.latency_p99_us, "us"},
      {"serve.cpu_us_per_req",
       ratio((s1.cpu_seconds - s0.cpu_seconds) * 1e6,
             double(s1.requests - s0.requests)),
       "us"},
      {"serve.steals", double(s1.steals - s0.steals), "count"},
      {"serve.shed", double(s1.shed - s0.shed), "count"},
      {"serve.expired", double(s1.expired - s0.expired), "count"},
      {"serve.cache_hit_ratio", ratio(hits, hits + misses), "ratio"},
      {"serve.cache_evictions",
       double(s1.cache.evictions - s0.cache.evictions), "count"},
      {"serve.self_us", MedianSelfUs(m.replay.serve, store_child), "us"},
      {"store.get_us", MedianSpanUs(m.replay.store_get), "us"},
      {"store.getrange_us", MedianSpanUs(m.replay.store_range), "us"},
      {"core.decode_doc_mb_s",
       ratio(m.replay.core_doc_bytes / 1e6,
             TotalSpanSeconds(m.replay.core_get)),
       "MB/s"},
      {"core.decode_streams_share", m.streams_share, "ratio"},
      {"core.decode_range_us", MedianSpanUs(m.replay.core_range), "us"},
      {"core.factorize_mb_s", m.factorize_mb_s, "MB/s"},
      {"core.avg_factor_len", m.avg_factor_len, "B"},
      {"store.append_self_us", Median(m.writes.append_self_ns) / 1e3, "us"},
      {"store.tail_docs",
       ratio(m.writes.tail_docs_sum, double(m.writes.append_ns.size())),
       "docs"},
      {"store.seal_us", Median(m.writes.seal_ns) / 1e3, "us"},
      {"store.compact_s", m.writes.compact_s, "s"},
      {"store.compact_bytes_written", double(m.writes.compact_bytes_written),
       "B"},
      {"store.checkpoint_s", m.checkpoint_s, "s"},
      {"store.shards", double(m.shards_after_writes), "count"},
      {"wal.append_us",
       Median(Since(m.wal.append_ns, wal_before.append_ns.size())) / 1e3,
       "us"},
      {"wal.sync_us", Median(wal_sync) / 1e3, "us"},
      {"wal.syncs", double(wal_sync.size()), "count"},
      {"wal.bytes_per_user_byte",
       ratio(double(m.wal.bytes - wal_before.bytes),
             double(m.writes.bytes + m.suffix.bytes)),
       "ratio"},
      {"wal.replay_records_per_s",
       ratio(double(m.replayed), m.recover_s.front()), "1/s"},
      {"build.s", stack.build_s, "s"},
      {"corpus.gen_s", stack.gen_s, "s"},
      {"trace.overhead_pct",
       ratio(traced.p50_us, untraced.p50_us) * 100 - 100, "%"},
  };
}

// The human-readable part of the output: what ran, on what, and the
// sample counts behind every percentile.
void PrintReport(const WorkloadConfig& cfg, const Args& args,
                 const ReadCpus& cpus, const Measurements& m,
                 double steal_share) {
  const ReadSummary reads = SummarizeReads(m.reads);
  std::printf("# workload %s seed %" PRIu64 " seconds %g trace %d\n",
              cfg.name, args.seed, args.seconds, args.trace ? 1 : 0);
  std::printf("# stamp compiler \"%s\" build_type %s flags \"%s\" nproc %u "
              "flush_policy fsync_every_n=%d\n",
              __VERSION__, PERFBENCH_BUILD_TYPE, PERFBENCH_CXX_FLAGS,
              std::thread::hardware_concurrency(), kFsyncEveryN);
  std::printf("# host: %.1f%% of the run's CPU time stolen by the "
              "hypervisor\n",
              100 * steal_share);
  std::printf("# reads: closed loop, 1 connection with up to %d in flight "
              "(refilled %d at a time), %d worker, %d parts of %zu windows "
              "of %.2f s; %" PRIu64 " samples in the %zu "
              "quietest windows of all parts (at most %.1f%% stolen; each "
              "metric is the median over these windows)\n",
              cfg.depth, RefillBurst(cfg.depth), kWorkers, kReadParts,
              m.reads[0].latency.size(),
              m.reads[0].window_seconds, reads.samples, reads.windows,
              100 * reads.steal_share);
  std::printf("# reads: client on CPU %d, server threads on CPU %d; "
              "read_rps by part:",
              cpus.client, cpus.server);
  for (const LoadResult& part : m.reads) {
    std::printf(" %.0f", SummarizeReads({part}).rps);
  }
  std::printf("\n");
  std::printf("# appends: %zu samples, %" PRIu64 " bytes in %.3f s, %zu "
              "seals; recovery replayed %" PRIu64 " records\n",
              m.writes.append_ns.size(), m.writes.bytes, m.writes.span_s,
              m.writes.seal_ns.size(), m.replayed);
  // The p99s are reported, not gated: on a shared host they follow the
  // neighbours' load more than the program (perfbench/README.md).
  std::printf("# read_p99_us %.1f us, append_p99_us %.1f us (not gated)\n",
              reads.p99_us, Quantile(m.writes.append_ns, 0.99) / 1e3);
  std::printf("# rss: %.1f MB once the inputs exist, peak %.1f MB up to "
              "teardown\n",
              m.rss_baseline_mb, m.rss_peak_mb);
  if (args.trace) {
    size_t spans = 0;
    for (const LoadResult& part : m.reads) spans += part.spans.size();
    std::printf("# traced read windows recorded %zu net spans\n", spans);
  }
  std::printf("# error_rate %.6f (%" PRIu64 " failed of %" PRIu64
              " attempted)\n",
              m.attempted ? static_cast<double>(m.failed) / m.attempted : 0.0,
              m.failed, m.attempted);
}

// Stored bytes of the documents Get would serve over their raw bytes.
// Tombstoned payload that compaction has not reclaimed yet is not counted
// on either side (deletes only hit the sealed base shards).
double LiveStoredRatio(const rlz::ShardedStore& store, const DocTable& table) {
  uint64_t stored = store.stored_bytes();
  for (int s = 0; s < store.num_shards(); ++s) {
    stored -= store.shard_health(s).tombstoned_payload_bytes;
  }
  uint64_t raw = 0;
  for (size_t id = 0; id < store.num_docs(); ++id) {
    if (!table.deleted[id]) raw += table.docs[id].size();
  }
  return static_cast<double>(stored) / static_cast<double>(raw);
}

// Reads in kReadParts parts, every part replaying the same seeded stream
// against a fresh server; then, when tracing, the layer replays of the
// same stream.
void ReadPhase(const WorkloadConfig& cfg, const Args& args,
               const RequestGen& gen, const DocTable& table, Stack* stack,
               Measurements* m) {
  for (int part = 0; part < kReadParts; ++part) {
    if (part > 0) {
      stack->StopServing();
      ::malloc_trim(0);  // so the next instance does not add to peak RSS
      StartServing(cfg, stack);
    }
    m->serve0 = stack->service->Stats();
    m->net0 = stack->server->stats();
    m->reads.push_back(RunClosedLoop(stack->server->port(), cfg.depth,
                                     args.seconds / kReadParts, args.seed,
                                     gen, table, stack->cpus.list(),
                                     args.trace));
    m->serve1 = stack->service->Stats();
    m->net1 = stack->server->stats();
    m->attempted += m->reads.back().attempted;
    m->failed += m->reads.back().failed;
  }
  if (!args.trace) return;
  std::vector<Request> requests;
  rlz::Rng rng(args.seed);  // the read phase's stream
  const size_t n = cfg.page ? kReplayPages : kReplayRequests;
  for (size_t i = 0; i < n; ++i) requests.push_back(gen(rng));
  ReplayLayers(*stack, table, requests, &m->replay);
  m->streams_share =
      DecodeStreamsShare(*stack->store, table, requests, &m->replay.failed);
  WriteSpans(args.dir + "/spans.tsv", m->replay);
}

int Run(const WorkloadConfig& cfg, const Args& args) {
  const bool trace = args.trace;
  std::filesystem::create_directories(args.dir);
  const ReadCpus cpus = ChooseReadCpus();
  UseOnly(cpus);
  StealMeter run_steal(cpus.list());
  std::shared_ptr<TimingFileSystem> timing_fs;
  if (trace) timing_fs = std::make_shared<TimingFileSystem>();
  Measurements m;

  // Set-up, in a fresh process, so the peak RSS is that of one stack.
  // Untraced runs repeat it at the end so its median is reported.
  const std::string store_dir = args.dir + "/store";
  StealMeter setup_steal(cpus.list());
  std::unique_ptr<Stack> stack =
      Setup(cfg, args.seed, store_dir, cpus, timing_fs);
  m.setup_s.push_back(stack->total_s);
  m.setup_steal.push_back(setup_steal.Lap());
  m.rss_baseline_mb = stack->rss_baseline_mb;
  rlz::ShardedStore* store = stack->store.get();
  const size_t base_docs = stack->base.collection.num_docs();
  const size_t written_ids = base_docs + kWriteAppends;
  const DocTable table = MakeDocTable(*stack, kWriteAppends, args.seed);
  const std::vector<size_t> deletes = DeleteOrder(table);
  const RequestGen gen = MakeRequestGen(cfg, table, base_docs, args.seed);
  const WalTimings wal_before = trace ? timing_fs->timings() : WalTimings{};

  // Read phase, and the layer replays when tracing, with the client on
  // its own CPU.
  OnCpu(stack->cpus.client,
        [&] { ReadPhase(cfg, args, gen, table, stack.get(), &m); });

  // Write phase, then every id is checked.
  m.writes = RunWriter(store, table, base_docs, kWriteAppends, deletes);
  m.attempted += m.writes.attempted;
  m.failed += m.writes.failed + m.replay.failed;
  m.failed += VerifyStore(*store, table, written_ids, &m.attempted);
  m.stored_ratio = LiveStoredRatio(*store, table);
  m.shards_after_writes = store->num_shards();
  if (trace) MeasureFactorizer(*store, table, base_docs, kWriteAppends, &m);

  // Checkpoint, then a fixed WAL suffix that only recovery can restore.
  const uint64_t checkpoint_start = NowNs();
  ++m.attempted;
  if (!store->Checkpoint().ok()) ++m.failed;
  m.checkpoint_s = Seconds(checkpoint_start, NowNs());
  m.suffix = RunWriter(store, table, written_ids, kSuffixAppends, {});
  m.attempted += m.suffix.attempted;
  m.failed += m.suffix.failed;
  if (trace) m.wal = timing_fs->timings();
  // The serving process's peak: recovery below runs after the store is
  // torn down, as it would in a fresh process, and is not counted.
  m.rss_peak_mb = ProcStatusMb("VmHWM");
  stack->StopServing();
  stack->store.reset();
  Recover(store_dir, trace ? 1 : kRecoverReps, timing_fs, cpus.list(), table,
          written_ids + kSuffixAppends, &m);
  if (!trace) {
    stack.reset();
    for (int rep = 1; rep < kSetupReps; ++rep) {
      const std::string dir = args.dir + "/setup" + std::to_string(rep);
      setup_steal.Lap();
      m.setup_s.push_back(Setup(cfg, args.seed, dir, cpus, nullptr)->total_s);
      m.setup_steal.push_back(setup_steal.Lap());
      std::filesystem::remove_all(dir);
    }
  }

  PrintReport(cfg, args, cpus, m, run_steal.Lap());
  const std::vector<Metric> metrics =
      trace ? LayerMetrics(m, *stack, cfg.page, wal_before)
            : EndToEndMetrics(m);
  PrintResult(m.failed == 0, m.attempted, m.failed, metrics);
  return m.failed == 0 ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!perfbench::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload <name> --seed <n> --seconds <s> "
                 "--trace <0|1> --dir <scratch dir>\n");
    return 2;
  }
  const perfbench::WorkloadConfig* cfg =
      perfbench::FindWorkload(args.workload);
  if (cfg == nullptr) {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                 args.workload.c_str());
    return 2;
  }
  return perfbench::Run(*cfg, args);
}
