// Build-throughput sweep (DESIGN.md §7): threads x chunk-size against the
// synthetic web crawl, reporting encode MB/s and speedup vs the serial
// build.
//
// Two speed columns are printed per configuration:
//   wall MB/s — collection bytes / elapsed wall time on THIS host. Only
//               meaningful on a multi-core machine; on a 1-core CI
//               container every thread count collapses to the same number.
//   modeled   — serial build CPU / the busiest worker's thread-CPU time
//               (the pipeline's critical path). This is the speedup of a
//               machine with one core per worker — the simulated-wall-time
//               doctrine of DESIGN.md §4/§6 applied to the build path,
//               and what EXPERIMENTS.md quotes for build scaling.
//
// Every configuration is checked against the serial baseline (payload
// bytes and factor counts must match exactly; full byte-identity is
// property-tested in tests/build_test.cpp).
//
//   ./build/bench/build_throughput            (RLZ_BENCH_SCALE shrinks/grows)
//   ./build/bench/build_throughput --smoke    (8 MB corpus, best of 3 per
//                                              row; CI smoke test)

#include <cstdio>
#include <cstring>
#include <memory>
#include <vector>

#include "bench_common.h"
#include "core/rlz.h"
#include "util/logging.h"
#include "util/timer.h"

namespace rlz {
namespace bench {
namespace {

// The gate, in every mode: the modeled 4-thread speedup must reach this.
constexpr double kMinSpeedupAt4 = 2.5;

struct BuildRun {
  double wall_mbps = 0.0;
  double modeled_speedup = 0.0;
  double cpu_seconds = 0.0;
  size_t chunks = 0;
  uint64_t payload_bytes = 0;
  uint64_t num_factors = 0;
};

BuildRun RunOne(const Collection& collection,
                const std::shared_ptr<const Dictionary>& dict, int threads,
                size_t chunk_docs, double serial_cpu_seconds) {
  RlzBuildOptions options;
  options.coding = kZV;
  options.num_threads = threads;
  options.chunk_docs = chunk_docs;
  RlzBuildInfo info;
  Timer wall;
  const auto archive = RlzArchive::Build(collection, dict, options, &info);
  const double wall_seconds = wall.ElapsedSeconds();
  BuildRun run;
  run.wall_mbps = collection.size_bytes() / (1024.0 * 1024.0) / wall_seconds;
  run.modeled_speedup =
      info.build_critical_path_seconds > 0.0
          ? serial_cpu_seconds / info.build_critical_path_seconds
          : 0.0;
  run.cpu_seconds = info.build_cpu_seconds;
  run.chunks = info.build_chunks;
  run.payload_bytes = archive->payload_bytes();
  run.num_factors = info.stats.num_factors;
  return run;
}

int Run(bool smoke) {
  // A smoke serial build of 2 MB took 0.06 s, and one noisy chunk moved
  // its modeled 4-thread speedup across the gate: 8 MB and the best of 3
  // runs per row (the serial baseline's lowest CPU time) keep host noise
  // out of the gate.
  const int repeats = smoke ? 3 : 1;
  Collection smoke_collection;
  const Collection* collection = nullptr;
  if (smoke) {
    CorpusOptions options;
    options.target_bytes = 8 << 20;
    options.seed = 20110613;
    smoke_collection = GenerateCorpus(options).collection;
    collection = &smoke_collection;
  } else {
    collection = &Gov2Crawl().collection;
  }

  std::printf("build_throughput%s: %zu docs, %.1f MB, ZV, dict 1%%\n",
              smoke ? " (smoke)" : "", collection->num_docs(),
              collection->size_bytes() / (1024.0 * 1024.0));

  const std::shared_ptr<const Dictionary> dict =
      DictionaryBuilder::BuildSampled(collection->data(),
                                      collection->size_bytes() / 100, 1024);

  // Serial baseline (one thread, no chunking): its CPU time is the
  // numerator of every modeled speedup, and its output is the identity
  // reference. Its best run is the one with the least CPU time.
  const BuildRun serial = BestOf(
      repeats, [&] { return RunOne(*collection, dict, 1, 0, 0.0); },
      [](const BuildRun& a, const BuildRun& b) {
        return a.cpu_seconds < b.cpu_seconds;
      });
  const double serial_cpu = serial.cpu_seconds;
  std::printf("serial baseline: %.2fs wall, %.2fs cpu, %.1f MB/s\n\n",
              collection->size_bytes() / (1024.0 * 1024.0) / serial.wall_mbps,
              serial_cpu, serial.wall_mbps);
  std::printf("%-8s %-11s %8s %12s %10s %10s\n", "threads", "chunk_docs",
              "chunks", "wall MB/s", "modeled", "payload=");

  const std::vector<int> thread_rows =
      smoke ? std::vector<int>{1, 2, 4} : std::vector<int>{1, 2, 4, 8};
  // Smoke corpora have ~400 docs, so the smoke chunk must be small enough
  // to give every worker several chunks.
  const std::vector<size_t> chunk_rows =
      smoke ? std::vector<size_t>{8} : std::vector<size_t>{16, 64, 256};

  double speedup_at_4 = 0.0;
  bool all_identical = true;
  for (const int threads : thread_rows) {
    for (const size_t chunk_docs : chunk_rows) {
      const BuildRun run = BestOf(
          repeats,
          [&] {
            return RunOne(*collection, dict, threads, chunk_docs, serial_cpu);
          },
          [](const BuildRun& a, const BuildRun& b) {
            return a.modeled_speedup > b.modeled_speedup;
          });
      const bool identical = run.payload_bytes == serial.payload_bytes &&
                             run.num_factors == serial.num_factors;
      all_identical = all_identical && identical;
      std::printf("%-8d %-11zu %8zu %12.1f %9.2fx %10s\n", threads,
                  chunk_docs, run.chunks, run.wall_mbps, run.modeled_speedup,
                  identical ? "yes" : "NO");
      if (threads == 4 && chunk_docs == (smoke ? 8u : 64u)) {
        speedup_at_4 = run.modeled_speedup;
      }
    }
  }

  RLZ_CHECK(all_identical) << "a parallel build diverged from serial";
  Gates gates(/*enforced=*/true);
  gates.Check(speedup_at_4 >= kMinSpeedupAt4,
              "\ngate: modeled speedup at 4 threads (chunk %u) >= %.2fx "
              "(%.2fx)",
              smoke ? 8u : 64u, kMinSpeedupAt4, speedup_at_4);
  return gates.ExitCode();
}

}  // namespace
}  // namespace bench
}  // namespace rlz

int main(int argc, char** argv) {
  const bool smoke = argc > 1 && std::strcmp(argv[1], "--smoke") == 0;
  return rlz::bench::Run(smoke);
}
