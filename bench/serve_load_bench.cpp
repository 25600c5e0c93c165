// Closed-loop serving load bench (DESIGN.md §10): N producer threads, each
// keeping K requests in flight through DocService::SubmitBatch over a
// 4-shard ShardedStore (rlz-ZV, cache off, so every request decodes), under
// uniform and Zipfian(theta=0.99) document popularity. Reports wall-clock
// and CPU docs/s plus p50/p99/p999 request latency per row, and writes
// machine-readable JSON (default BENCH_serve.json).
//
// Two throughput columns (DESIGN.md §6): "wall" is requests divided by
// real elapsed time on this host — meaningful only when the process has a
// CPU per worker; "cpu" is requests divided by the busiest worker's
// thread-CPU seconds (ServiceStats::critical_path_seconds), the makespan
// of a host with one core per worker. The scaling gate therefore picks
// its basis from the CPUs the process may run on (AvailableCpus, which
// honours a taskset pin): wall with 4 or more (the 4-worker row can
// actually run 4-wide, as on the 4-vCPU CI runners), cpu otherwise,
// where wall scaling is physically impossible. The JSON records which
// basis gated.
//
// Ingest mode (--ingest) measures the live-corpus story instead
// (DESIGN.md §11): Zipfian readers through DocService while a writer
// thread Appends fresh documents into the store's open tail (sealing into
// new shards as it crosses the seal threshold). The row pair is read-only
// vs mixed; the gate asserts that sustained ingest costs at most 30% of
// read throughput (read docs/s under ingest >= kMinReadRetention x the
// read-only baseline, best of kGateRepeats). Writes BENCH_ingest.json.
//
//   ./build/bench/serve_load_bench              full run
//   ./build/bench/serve_load_bench --smoke      small corpus + gate:
//         4-worker docs/s must be >= kMinScaleRatio x 1-worker docs/s on
//         the uniform rows (best of kGateRepeats measurements each), else
//         exit 1 (run by the perf-smoke CI job)
//   ./build/bench/serve_load_bench --ingest     mixed read/append mode
//         (with --smoke: small corpus + the read-retention gate; default
//         output BENCH_ingest.json)
//   ./build/bench/serve_load_bench --ingest-fraction F   appends per read
//         request issued in mixed mode (default 0.10)
//   ./build/bench/serve_load_bench --out FILE   JSON destination
#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench_common.h"
#include "build/build_pipeline.h"
#include "corpus/generator.h"
#include "serve/doc_service.h"
#include "serve/sharded_store.h"
#include "util/logging.h"
#include "util/random.h"
#include "util/timer.h"

namespace rlz {
namespace bench {
namespace {

// The perf-smoke CI gate: 4 workers must beat 1 worker by this factor on
// docs/s (uniform skew), on the basis chosen for the host (see header).
constexpr double kMinScaleRatio = 2.5;
// Gated rows are measured this many times; the best run gates (absorbs
// scheduler noise on shared CI runners).
constexpr int kGateRepeats = 2;
// In-flight window per producer (the K of the closed loop).
constexpr size_t kInFlight = 64;
constexpr double kZipfTheta = 0.99;
// Ingest-mode gate: read docs/s under mixed read/append load must retain
// at least this fraction of the read-only baseline (same basis rules).
constexpr double kMinReadRetention = 0.70;
// The store's open tail seals into a new shard at this size.
constexpr size_t kTailSealBytes = 1 << 20;

struct LoadResult {
  double wall_dps = 0.0;
  double cpu_dps = 0.0;
  double p50_us = 0.0;
  double p99_us = 0.0;
  double p999_us = 0.0;
  uint64_t steals = 0;
  uint64_t requests = 0;
};

// A run's figures from the service's counters after Drain().
LoadResult ResultOf(const ServiceStats& stats, double wall_seconds) {
  LoadResult result;
  result.requests = stats.requests;
  result.wall_dps = stats.requests / wall_seconds;
  result.cpu_dps = stats.critical_path_seconds > 0
                       ? stats.requests / stats.critical_path_seconds
                       : 0.0;
  result.p50_us = stats.latency_p50_us;
  result.p99_us = stats.latency_p99_us;
  result.p999_us = stats.latency_p999_us;
  result.steals = stats.steals;
  return result;
}

// Orders runs by docs/s on the gate's basis (see header), fastest first.
auto FasterOn(const Gates& gates) {
  return [&gates](const LoadResult& a, const LoadResult& b) {
    return gates.Pick(a.wall_dps, a.cpu_dps) >
           gates.Pick(b.wall_dps, b.cpu_dps);
  };
}

// One closed-loop run: `producers` threads, each submitting kInFlight-id
// batches and waiting for completion, until `total_rounds` batches have
// been issued service-wide. Document ids are uniform or Zipfian(theta)
// ranks over the collection, drawn from per-producer generators.
LoadResult RunLoad(const Archive& archive, int workers, int producers,
                   bool zipfian, size_t total_rounds) {
  DocServiceOptions options;
  options.num_threads = workers;
  options.cache_bytes = 0;  // every request decodes
  const size_t ndocs = archive.num_docs();
  const ZipfSampler zipf(ndocs, kZipfTheta);
  {
    DocService service(&archive, options);
    std::atomic<size_t> rounds{0};
    Timer wall;
    std::vector<std::thread> threads;
    threads.reserve(producers);
    for (int p = 0; p < producers; ++p) {
      threads.emplace_back([&, p] {
        Rng rng(0x5eed5eed + 977 * static_cast<uint64_t>(p));
        std::vector<size_t> ids(kInFlight);
        ServeBatch batch;
        while (rounds.fetch_add(1) < total_rounds) {
          for (size_t i = 0; i < kInFlight; ++i) {
            ids[i] = zipfian ? zipf.Sample(rng)
                             : static_cast<size_t>(rng.Uniform(ndocs));
          }
          service.SubmitBatch(ids, &batch);
          for (const GetResult& r : batch.Wait()) {
            RLZ_CHECK(r.ok()) << r.status.ToString();
          }
        }
      });
    }
    for (std::thread& t : threads) t.join();
    service.Drain();
    const double wall_seconds = wall.ElapsedSeconds();
    return ResultOf(service.Stats(), wall_seconds);
  }
}

// What the ingest writer accomplished during one mixed run.
struct IngestStats {
  uint64_t docs = 0;
  uint64_t bytes = 0;
  double mb_per_s = 0.0;
};

// One mixed read/append run: `producers` reader threads drive the same
// closed Zipfian loop as RunLoad over the store's *initial* `read_docs`
// documents, while a single writer thread Appends documents from `fresh`
// into the open tail, paced so the store has absorbed ~`fraction` appends
// per completed read request (the configurable ingest fraction). The
// writer cycles through `fresh` if readers outlast it, and stops when the
// readers finish. Read throughput/latency land in the returned
// LoadResult; writer volume and MB/s in the IngestStats.
std::pair<LoadResult, IngestStats> RunMixed(ShardedStore* store, int workers,
                                            int producers, size_t read_docs,
                                            size_t total_rounds,
                                            const Collection& fresh,
                                            double fraction) {
  DocServiceOptions options;
  options.num_threads = workers;
  options.cache_bytes = 0;  // every request decodes
  const ZipfSampler zipf(read_docs, kZipfTheta);
  {
    DocService service(store, options);
    std::atomic<size_t> rounds{0};
    std::atomic<size_t> rounds_done{0};
    std::atomic<bool> readers_done{false};
    IngestStats ingest;
    Timer wall;
    std::thread writer([&] {
      Timer ingest_wall;
      size_t next = 0;
      uint64_t appended = 0;
      uint64_t bytes = 0;
      while (!readers_done.load(std::memory_order_acquire)) {
        const uint64_t budget = static_cast<uint64_t>(
            fraction *
            static_cast<double>(
                rounds_done.load(std::memory_order_relaxed) * kInFlight));
        if (appended >= budget) {
          std::this_thread::yield();
          continue;
        }
        const std::string_view doc = fresh.doc(next);
        next = (next + 1) % fresh.num_docs();
        const auto id = store->Append(doc);
        RLZ_CHECK(id.ok()) << id.status().ToString();
        ++appended;
        bytes += doc.size();
      }
      const double seconds = ingest_wall.ElapsedSeconds();
      ingest.docs = appended;
      ingest.bytes = bytes;
      ingest.mb_per_s =
          seconds > 0 ? bytes / (1048576.0 * seconds) : 0.0;
    });
    std::vector<std::thread> threads;
    threads.reserve(producers);
    for (int p = 0; p < producers; ++p) {
      threads.emplace_back([&, p] {
        Rng rng(0x1275e5ed + 977 * static_cast<uint64_t>(p));
        std::vector<size_t> ids(kInFlight);
        ServeBatch batch;
        while (rounds.fetch_add(1) < total_rounds) {
          for (size_t i = 0; i < kInFlight; ++i) ids[i] = zipf.Sample(rng);
          service.SubmitBatch(ids, &batch);
          for (const GetResult& r : batch.Wait()) {
            RLZ_CHECK(r.ok()) << r.status.ToString();
          }
          rounds_done.fetch_add(1, std::memory_order_relaxed);
        }
      });
    }
    for (std::thread& t : threads) t.join();
    readers_done.store(true, std::memory_order_release);
    writer.join();
    service.Drain();
    const double wall_seconds = wall.ElapsedSeconds();
    return {ResultOf(service.Stats(), wall_seconds), ingest};
  }
}

// The figures every row records, into the row's open JSON object.
JsonWriter& LoadJson(JsonWriter& json, const LoadResult& r) {
  return json.Int("requests", r.requests)
      .Num("wall_dps", r.wall_dps, 0)
      .Num("cpu_dps", r.cpu_dps, 0)
      .Num("p50_us", r.p50_us, 1)
      .Num("p99_us", r.p99_us, 1)
      .Num("p999_us", r.p999_us, 1)
      .Int("steals", r.steals);
}

// Prints one row; with `json`, also records it in json's open rows array.
void Row(JsonWriter* json, int workers, int producers, const char* skew,
         const LoadResult& r) {
  std::printf("%-8d %-10d %-8s %12.0f %14.0f %9.1f %9.1f %9.1f %8llu\n",
              workers, producers, skew, r.wall_dps, r.cpu_dps, r.p50_us,
              r.p99_us, r.p999_us,
              static_cast<unsigned long long>(r.steals));
  if (json == nullptr) return;
  json->Object()
      .Int("workers", workers)
      .Int("producers", producers)
      .Str("skew", skew);
  LoadJson(*json, r).End();
}

// What both modes serve: a generated corpus in a 4-shard store whose
// open tail seals at kTailSealBytes, and the closed loop's length.
struct Setup {
  CorpusOptions corpus_options;
  Collection collection;
  std::unique_ptr<ShardedStore> store;
  size_t total_rounds = 0;

  explicit Setup(bool smoke) {
    corpus_options.target_bytes = smoke ? (4u << 20) : (16u << 20);
    corpus_options.seed = 20110613;
    collection = GenerateCorpus(corpus_options).collection;
    ShardedStoreOptions store_options;
    store_options.num_shards = 4;
    store_options.dict_bytes = collection.size_bytes() / 100;
    store_options.live.tail_seal_bytes = kTailSealBytes;
    store = ShardedStore::Build(collection, store_options);
    total_rounds = (smoke ? 16000 : 64000) / kInFlight;
  }

  // Both modes' JSON header: corpus, store, host, and an open config.
  JsonWriter& Json(JsonWriter& json) const {
    json.Object("corpus")
        .Int("docs", collection.num_docs())
        .Int("bytes", collection.size_bytes())
        .Int("seed", corpus_options.seed)
        .End();
    return json.Str("store", store->name())
        .Host()
        .Object("config")
        .Int("in_flight_per_producer", kInFlight)
        .Num("zipf_theta", kZipfTheta, 2)
        .Int("requests_per_row", total_rounds * kInFlight);
  }
};

int Run(bool smoke, const std::string& out_path) {
  const Setup setup(smoke);
  const Collection& collection = setup.collection;
  const ShardedStore* store = setup.store.get();
  const size_t total_rounds = setup.total_rounds;
  Gates gates(smoke);

  std::printf("serve_load_bench (%s): %zu docs, %.1f MB, %s, cpus=%d\n",
              smoke ? "smoke" : "full", collection.num_docs(),
              collection.size_bytes() / (1024.0 * 1024.0),
              store->name().c_str(), AvailableCpus());
  std::printf("%-8s %-10s %-8s %12s %14s %9s %9s %9s %8s\n", "workers",
              "producers", "skew", "wall dps", "cpu dps", "p50 us",
              "p99 us", "p999 us", "steals");

  JsonWriter json("serve_load", smoke);
  setup.Json(json).End();
  // The one-time "before" record: the pre-PR DocService (single
  // mutex/deque funnel, promise-per-request) measured from a pristine
  // build of commit 6be0460 via hot_path_bench's serve rows (rlz-ZV,
  // cache off, 20k MultiGet requests) on the 1-core reference host.
  // Emitted as constants so regenerating this file cannot lose the
  // trajectory's origin.
  json.Object("pre_pr_baseline", JsonWriter::kLines)
      .Str("comment",
           "Pre-PR funnel DocService measured once at commit 6be0460 on the "
           "1-core reference host (hot_path_bench serve rows: rlz-ZV, cache "
           "off). Wall scaling 1->4 threads was 1.02x through the "
           "single-queue funnel.")
      .Object("threads_1").Int("wall_dps", 24098).End()
      .Object("threads_4").Int("wall_dps", 24513).End()
      .End();
  json.Array("rows", JsonWriter::kLines);

  // The gated pair: uniform skew, 4 producers, 1 worker vs 4 workers;
  // best of kGateRepeats runs each, the two rows taking turns (BestOf
  // would run each row's repeats back to back).
  std::vector<LoadResult> ones, fours;
  for (int rep = 0; rep < (smoke ? kGateRepeats : 1); ++rep) {
    ones.push_back(RunLoad(*store, 1, 4, /*zipfian=*/false, total_rounds));
    fours.push_back(RunLoad(*store, 4, 4, /*zipfian=*/false, total_rounds));
  }
  const LoadResult one = *std::min_element(ones.begin(), ones.end(),
                                           FasterOn(gates));
  const LoadResult four = *std::min_element(fours.begin(), fours.end(),
                                            FasterOn(gates));
  Row(&json, 1, 4, "uniform", one);
  Row(&json, 4, 4, "uniform", four);

  // Ungated context rows: producer scaling and Zipfian skew (where the
  // router concentrates hot documents on few workers and stealing levels
  // the load).
  const struct {
    int workers;
    int producers;
    bool zipfian;
  } extra_rows[] = {
      {4, 1, false}, {1, 4, true}, {4, 4, true}};
  for (const auto& extra : extra_rows) {
    Row(&json, extra.workers, extra.producers,
        extra.zipfian ? "zipfian" : "uniform",
        RunLoad(*store, extra.workers, extra.producers, extra.zipfian,
                total_rounds));
  }
  json.End();

  const double dps1 = gates.Pick(one.wall_dps, one.cpu_dps);
  const double dps4 = gates.Pick(four.wall_dps, four.cpu_dps);
  const double ratio = dps1 > 0 ? dps4 / dps1 : 0.0;
  const bool gate_pass = gates.Check(
      ratio >= kMinScaleRatio,
      "smoke gate (%s basis): 4 workers >= %.2fx 1 worker (%.2fx)",
      gates.basis(), kMinScaleRatio, ratio);
  json.Object("gate")
      .Str("basis", gates.basis())
      .Num("min_ratio_required", kMinScaleRatio, 2)
      .Num("workers_1_dps", dps1, 0)
      .Num("workers_4_dps", dps4, 0)
      .Num("ratio", ratio, 2)
      .Bool("pass", gate_pass)
      .End();
  json.Write(out_path);
  return gates.ExitCode();
}

// The --ingest mode: sustained ingest vs serving (DESIGN.md §11,
// EXPERIMENTS.md). Builds a *live* 4-shard store, measures a read-only
// Zipfian baseline (4 workers, 4 producers), then the same read load with
// a writer appending `fraction` documents per read request from a
// fresh-content corpus (different seed — the §3.6 drift setting), tail
// auto-sealing as it fills. Both rows are best-of-kGateRepeats in smoke
// mode. The gate: mixed-row read docs/s must retain kMinReadRetention of
// the read-only row on the host-chosen basis.
int RunIngest(bool smoke, const std::string& out_path, double fraction) {
  const Setup setup(smoke);
  const Collection& collection = setup.collection;
  ShardedStore* store = setup.store.get();
  const size_t total_rounds = setup.total_rounds;

  // Fresh content the writer streams in (drifted seed: the first seals
  // encode against the build-time append dictionary, as in §3.6, until a
  // seal refreshes it).
  CorpusOptions fresh_options;
  fresh_options.target_bytes = smoke ? (2u << 20) : (8u << 20);
  fresh_options.seed = 40227;
  const Collection fresh = GenerateCorpus(fresh_options).collection;

  Gates gates(smoke);
  const size_t read_docs = collection.num_docs();
  const int shards_before = store->num_shards();
  const int repeats = smoke ? kGateRepeats : 1;

  std::printf(
      "serve_load_bench --ingest (%s): %zu docs, %.1f MB, %s, cpus=%d, "
      "ingest fraction %.2f\n",
      smoke ? "smoke" : "full", collection.num_docs(),
      collection.size_bytes() / (1024.0 * 1024.0), store->name().c_str(),
      AvailableCpus(), fraction);
  std::printf("%-10s %12s %14s %9s %9s %9s %8s\n", "row", "wall dps",
              "cpu dps", "p50 us", "p99 us", "p999 us", "steals");

  // Read-only baseline first (repeats before any append mutates the
  // store, so every baseline run reads the same frozen corpus).
  const LoadResult read_only = BestOf(
      repeats,
      [&] { return RunLoad(*store, 4, 4, /*zipfian=*/true, total_rounds); },
      FasterOn(gates));
  Row(nullptr, 4, 4, "zipfian", read_only);

  // Mixed rows: the store keeps growing across repeats (appends are
  // permanent), but readers always sample the initial `read_docs` range,
  // so the read workload stays identical.
  const auto faster = FasterOn(gates);
  const auto [mixed, ingest] = BestOf(
      repeats,
      [&] {
        return RunMixed(store, 4, 4, read_docs, total_rounds, fresh,
                        fraction);
      },
      [&](const auto& a, const auto& b) { return faster(a.first, b.first); });
  Row(nullptr, 4, 4, "zipfian", mixed);
  std::printf(
      "ingest: %llu docs, %.1f MB appended at %.1f MB/s; shards %d -> %d, "
      "epoch %llu\n",
      static_cast<unsigned long long>(ingest.docs),
      ingest.bytes / 1048576.0, ingest.mb_per_s, shards_before,
      store->num_shards(),
      static_cast<unsigned long long>(store->epoch_sequence()));

  JsonWriter json("serve_ingest", smoke);
  setup.Json(json)
      .Num("ingest_fraction", fraction, 2)
      .Int("tail_seal_bytes", kTailSealBytes)
      .Int("fresh_seed", fresh_options.seed)
      .End();
  json.Array("rows", JsonWriter::kLines);
  LoadJson(json.Object().Str("row", "read_only"), read_only).End();
  LoadJson(json.Object().Str("row", "mixed"), mixed).End();
  json.End();
  json.Object("ingest")
      .Int("docs", ingest.docs)
      .Int("bytes", ingest.bytes)
      .Num("mb_per_s", ingest.mb_per_s, 1)
      .Int("shards_before", shards_before)
      .Int("shards_after", store->num_shards())
      .Int("final_epoch", store->epoch_sequence())
      .End();

  const double dps_ro = gates.Pick(read_only.wall_dps, read_only.cpu_dps);
  const double dps_mx = gates.Pick(mixed.wall_dps, mixed.cpu_dps);
  const double retention = dps_ro > 0 ? dps_mx / dps_ro : 0.0;
  const bool gate_pass = gates.Check(
      retention >= kMinReadRetention,
      "smoke gate (%s basis): mixed reads >= %.0f%% of read-only (%.0f%%)",
      gates.basis(), 100.0 * kMinReadRetention, 100.0 * retention);
  json.Object("gate")
      .Str("basis", gates.basis())
      .Num("min_read_retention", kMinReadRetention, 2)
      .Num("read_only_dps", dps_ro, 0)
      .Num("mixed_dps", dps_mx, 0)
      .Num("retention", retention, 2)
      .Bool("pass", gate_pass)
      .End();
  json.Write(out_path);
  return gates.ExitCode();
}

}  // namespace
}  // namespace bench
}  // namespace rlz

int main(int argc, char** argv) {
  bool smoke = false;
  bool ingest = false;
  double ingest_fraction = 0.10;
  std::string out_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (std::strcmp(argv[i], "--ingest") == 0) {
      ingest = true;
    } else if (std::strcmp(argv[i], "--ingest-fraction") == 0 &&
               i + 1 < argc) {
      ingest_fraction = std::atof(argv[++i]);
    } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_path = argv[++i];
    } else {
      std::fprintf(stderr,
                   "usage: %s [--smoke] [--ingest] [--ingest-fraction F] "
                   "[--out FILE]\n",
                   argv[0]);
      return 2;
    }
  }
  if (out_path.empty()) {
    out_path = ingest ? "BENCH_ingest.json" : "BENCH_serve.json";
  }
  return ingest ? rlz::bench::RunIngest(smoke, out_path, ingest_fraction)
                : rlz::bench::Run(smoke, out_path);
}
