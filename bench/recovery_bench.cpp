// Durability-cost benchmark (DESIGN.md §12): measures what crash safety
// costs on the mutation path and what recovery costs at startup.
//
//   appends/s vs fsync policy — the same append workload against a
//       durable ShardedStore under fsync_every_n = 1 (every acked
//       mutation durable), 8, and 64 (group commit, loss bounded to the
//       unsynced batch), with the tail never sealing, so recovery
//       replays every append. The spread is the price of the WAL's
//       durability knob, EXPERIMENTS.md "Durability cost". A fourth row
//       seals at 1 MB of tail under fsync_every_n = 8, with perfbench's
//       160 KB dictionaries (the other rows use 16 KB): each seal
//       checkpoints, so recovery replays only the appends since the last
//       one, and the row reports the bytes each of those checkpoints
//       writes (checkpoint_bytes_per_seal: shard, manifest, meta and
//       CURRENT files, counted as they are written). Appends and each
//       recovery run in their own forked child, so a recovery starts from
//       the heap a fresh process has.
//   cold start — reopening the same directory three ways: OpenDurable
//       with the whole workload still in the WAL (replay-bound),
//       OpenDurable after a checkpoint (load-bound), and a plain saved
//       manifest through read-all vs mmap opens (the zero-copy story of
//       DESIGN.md §10 extended to real files).
//   restart cost (full run only, printed) — every container format is
//       saved to disk, reopened cold through OpenArchive, and timed (open
//       latency plus the first Get) on the gov2s paper corpus — the
//       failover path of DESIGN.md §8. The rlz-family rows are measured
//       both with the default open and the serving-only open
//       (OpenOptions::build_suffix_array = false), which is what a
//       restarting front-end uses. RLZ_BENCH_SCALE resizes the corpus.
//
// Results are printed and written as JSON (default BENCH_recovery.json).
//
//   ./build/bench/recovery_bench                 full run
//   ./build/bench/recovery_bench --smoke         small corpus + gate:
//         every recovered store must serve the acked workload back
//         byte-identically, else exit 1 (run by the perf-smoke CI job)
//   ./build/bench/recovery_bench --crash-smoke   bounded kill-at-fsync
//         sweeps through FaultFs (release-mode CI sanity) under
//         fsync_every_n = 1 and 8, and under 1 with auto-seals and their
//         checkpoints: recovery after every injected crash must yield a
//         prefix of the appends that lost at most n - 1 acked ones, with
//         the uncrashed run's shards, else exit 1
//   ./build/bench/recovery_bench --out FILE      JSON destination

#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <type_traits>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "bench_common.h"
#include "core/rlz.h"
#include "corpus/generator.h"
#include "io/fault_fs.h"
#include "io/file.h"
#include "semistatic/semistatic_archive.h"
#include "serve/sharded_store.h"
#include "store/ascii_archive.h"
#include "store/blocked_archive.h"
#include "store/open_archive.h"
#include "store/wal/wal_writer.h"
#include "util/logging.h"
#include "util/timer.h"

namespace rlz {
namespace bench {
namespace {

std::string FreshDir(const std::string& name) {
  const std::string dir =
      std::filesystem::temp_directory_path().string() + "/" + name;
  std::filesystem::remove_all(dir);
  return dir;
}

// The real file system, counting the bytes written to every file but the
// WAL's segments: what the store's checkpoints write.
class CheckpointBytesFs final : public FileSystem {
 public:
  uint64_t bytes() const { return bytes_.load(); }

  StatusOr<std::string> Read(const std::string& path) const override {
    return base_->Read(path);
  }
  StatusOr<std::unique_ptr<WritableFile>> Create(
      const std::string& path) override {
    RLZ_ASSIGN_OR_RETURN(std::unique_ptr<WritableFile> file,
                         base_->Create(path));
    uint64_t seq = 0;
    if (wal::ParseSegmentFileName(
            std::string_view(path).substr(path.find_last_of('/') + 1),
            &seq)) {
      return file;
    }
    return std::unique_ptr<WritableFile>(
        new CountedFile(std::move(file), &bytes_));
  }
  Status Rename(const std::string& from, const std::string& to) override {
    return base_->Rename(from, to);
  }
  Status Remove(const std::string& path) override {
    return base_->Remove(path);
  }
  StatusOr<std::vector<std::string>> List(
      const std::string& dir) const override {
    return base_->List(dir);
  }
  Status CreateDir(const std::string& dir) override {
    return base_->CreateDir(dir);
  }
  Status SyncDir(const std::string& dir) override {
    return base_->SyncDir(dir);
  }
  bool Exists(const std::string& path) const override {
    return base_->Exists(path);
  }

 private:
  class CountedFile final : public WritableFile {
   public:
    CountedFile(std::unique_ptr<WritableFile> base,
                std::atomic<uint64_t>* bytes)
        : base_(std::move(base)), bytes_(bytes) {}
    Status Append(std::string_view data) override {
      *bytes_ += data.size();
      return base_->Append(data);
    }
    Status Sync() override { return base_->Sync(); }
    Status Close() override { return base_->Close(); }

   private:
    std::unique_ptr<WritableFile> base_;
    std::atomic<uint64_t>* bytes_;
  };

  std::shared_ptr<FileSystem> base_ = DefaultFileSystem();
  std::atomic<uint64_t> bytes_{0};
};

// The dictionary budget of every store but the auto-sealing row's.
constexpr size_t kDictBytes = 1 << 16;
// The auto-sealing row's budget: 160 KB per shard and for the append
// dictionary, the size perfbench's 64 MB store samples (1% over 4
// shards), so its per-seal checkpoint bytes weigh the dictionary against
// a 1 MB seal as that store's do.
constexpr size_t kSealingDictBytes = 640 << 10;

// `tail_seal_bytes` 0 keeps every append in the WAL'd tail.
std::unique_ptr<ShardedStore> BuildStore(const Collection& collection,
                                         size_t tail_seal_bytes = 0,
                                         size_t dict_bytes = kDictBytes) {
  ShardedStoreOptions options;
  options.num_shards = 4;
  options.dict_bytes = dict_bytes;
  options.live.tail_seal_bytes = tail_seal_bytes;
  return ShardedStore::Build(collection, options);
}

// Runs `fn` in a forked child and returns the value it produced there:
// whatever heap the child grew and freed, the parent never held it. The
// value crosses a pipe as bytes.
template <typename Fn>
auto InChild(const Fn& fn) {
  using T = decltype(fn());
  static_assert(std::is_trivially_copyable_v<T>);
  int fds[2];
  RLZ_CHECK(::pipe(fds) == 0);
  std::fflush(nullptr);  // the child must not re-print buffered output
  const pid_t pid = ::fork();
  RLZ_CHECK(pid >= 0);
  if (pid == 0) {
    ::close(fds[0]);
    const T value = fn();
    const bool written =
        ::write(fds[1], &value, sizeof(value)) ==
        static_cast<ssize_t>(sizeof(value));
    std::fflush(nullptr);
    std::_Exit(written ? 0 : 1);
  }
  ::close(fds[1]);
  T value{};
  const bool read =
      ::read(fds[0], &value, sizeof(value)) ==
      static_cast<ssize_t>(sizeof(value));
  ::close(fds[0]);
  int wstatus = 0;
  RLZ_CHECK(::waitpid(pid, &wstatus, 0) == pid);
  RLZ_CHECK(read && WIFEXITED(wstatus) && WEXITSTATUS(wstatus) == 0)
      << "benchmark child failed";
  return value;
}

struct PolicyResult {
  std::string name;
  uint64_t fsync_every_n = 1;
  uint64_t tail_seal_bytes = 0;
  uint64_t dict_bytes = 0;
  double appends_per_s = 0;
  double append_mb_per_s = 0;
  uint64_t seals = 0;
  uint64_t checkpoint_bytes_per_seal = 0;  // 0 when the row never seals
  double recover_ms = 0;
  uint64_t replayed_records = 0;
  double replays_per_s = 0;
};

// What the appending child reports.
struct AppendOutcome {
  size_t base = 0;
  double seconds = 0;
  uint64_t seals = 0;
  uint64_t tail_docs = 0;  // appends no checkpoint covers
  uint64_t checkpoint_bytes = 0;  // written by the seals' checkpoints
};

// What the recovering child reports.
struct RecoverOutcome {
  double ms = 0;
  uint64_t replayed = 0;
  bool pass = false;
};

// One append workload under one fsync policy, then a cold-start reopen
// that replays the log: every append when the tail never seals, the
// appends since the last seal's checkpoint when it does.
PolicyResult RunPolicy(const Collection& collection,
                       const std::vector<std::string>& docs,
                       const std::string& name, uint64_t fsync_every_n,
                       size_t tail_seal_bytes, bool* gate_pass) {
  PolicyResult result;
  result.name = name;
  result.fsync_every_n = fsync_every_n;
  result.tail_seal_bytes = tail_seal_bytes;
  result.dict_bytes = tail_seal_bytes > 0 ? kSealingDictBytes : kDictBytes;
  const std::string dir = FreshDir("rlz_recovery_bench_" + name);
  uint64_t appended_bytes = 0;
  for (const std::string& doc : docs) appended_bytes += doc.size();

  const AppendOutcome appended = InChild([&] {
    AppendOutcome outcome;
    auto store = BuildStore(collection, tail_seal_bytes, result.dict_bytes);
    outcome.base = store->num_docs();
    const int shards = store->num_shards();
    wal::WalWriterOptions wal_options;
    wal_options.fsync_every_n = fsync_every_n;
    auto fs = std::make_shared<CheckpointBytesFs>();
    const Status status = store->MakeDurable(dir, wal_options, fs);
    RLZ_CHECK(status.ok()) << status.ToString();
    const uint64_t initial_checkpoint_bytes = fs->bytes();
    Timer append_timer;
    for (const std::string& doc : docs) {
      RLZ_CHECK(store->Append(doc).ok());
    }
    // The trailing barrier: every policy pays for full durability before
    // the clock stops, so relaxed policies are not credited for work
    // they left unsynced.
    RLZ_CHECK(store->SyncWal().ok());
    outcome.seconds = append_timer.ElapsedSeconds();
    outcome.seals = static_cast<uint64_t>(store->num_shards() - shards);
    outcome.tail_docs = store->epoch()->tail_docs();
    outcome.checkpoint_bytes = fs->bytes() - initial_checkpoint_bytes;
    return outcome;
  });
  result.appends_per_s = docs.size() / appended.seconds;
  result.append_mb_per_s =
      appended_bytes / (1024.0 * 1024.0) / appended.seconds;
  result.seals = appended.seals;
  if (appended.seals > 0) {
    result.checkpoint_bytes_per_seal =
        appended.checkpoint_bytes / appended.seals;
  }

  const RecoverOutcome recovered = InChild([&] {
    RecoverOutcome outcome;
    Timer recover_timer;
    ShardedStore::RecoveryReport report;
    auto reopened = ShardedStore::OpenDurable(dir, {}, {}, nullptr, &report);
    RLZ_CHECK(reopened.ok()) << reopened.status().ToString();
    outcome.ms = recover_timer.ElapsedMillis();
    outcome.replayed = report.replayed_records;
    // The gate: the recovered store serves the acked workload back
    // byte-identically, having replayed exactly the appends no
    // checkpoint covers.
    outcome.pass = true;
    if (reopened.value()->num_docs() != appended.base + docs.size() ||
        report.replayed_records != appended.tail_docs) {
      std::fprintf(stderr,
                   "GATE FAIL %s: recovered %zu docs, replayed %llu of %llu\n",
                   name.c_str(), reopened.value()->num_docs(),
                   static_cast<unsigned long long>(report.replayed_records),
                   static_cast<unsigned long long>(appended.tail_docs));
      outcome.pass = false;
    }
    std::string doc;
    for (size_t i = 0; i < docs.size(); i += 97) {
      const Status status = reopened.value()->Get(appended.base + i, &doc);
      if (!status.ok() || doc != docs[i]) {
        std::fprintf(stderr, "GATE FAIL %s: doc %zu mismatch\n",
                     name.c_str(), appended.base + i);
        outcome.pass = false;
        break;
      }
    }
    return outcome;
  });
  result.recover_ms = recovered.ms;
  result.replayed_records = recovered.replayed;
  result.replays_per_s = recovered.replayed / (recovered.ms / 1e3);
  if (!recovered.pass) *gate_pass = false;
  std::filesystem::remove_all(dir);
  return result;
}

struct ColdStartResult {
  double checkpointed_open_ms = 0;  // OpenDurable, empty WAL
  double readall_open_ms = 0;       // plain manifest, read-all
  double mmap_open_ms = 0;          // plain manifest, mmap
};

ColdStartResult RunColdStart(const Collection& collection, int repeats,
                             bool* gate_pass) {
  ColdStartResult result;

  // Checkpointed durable open: everything covered, nothing to replay.
  const std::string dir = FreshDir("rlz_recovery_bench_cold");
  {
    auto store = BuildStore(collection);
    RLZ_CHECK(store->MakeDurable(dir).ok());
  }
  for (int r = 0; r < repeats; ++r) {
    Timer timer;
    auto reopened = ShardedStore::OpenDurable(dir);
    RLZ_CHECK(reopened.ok()) << reopened.status().ToString();
    result.checkpointed_open_ms += timer.ElapsedMillis() / repeats;
  }
  std::filesystem::remove_all(dir);

  // Saved manifest: read-all vs mmap opens of identical bytes.
  const std::string save_dir = FreshDir("rlz_recovery_bench_save");
  std::filesystem::create_directories(save_dir);
  const std::string manifest = save_dir + "/store.sharded";
  {
    auto store = BuildStore(collection);
    RLZ_CHECK(store->Save(manifest).ok());
  }
  std::string readall_doc;
  std::string mmap_doc;
  for (int r = 0; r < repeats; ++r) {
    {
      Timer timer;
      auto opened = ShardedStore::Open(manifest);
      RLZ_CHECK(opened.ok()) << opened.status().ToString();
      result.readall_open_ms += timer.ElapsedMillis() / repeats;
      RLZ_CHECK(opened.value()->Get(0, &readall_doc).ok());
    }
    {
      OpenOptions options;
      options.use_mmap = true;
      Timer timer;
      auto opened = ShardedStore::Open(manifest, options);
      RLZ_CHECK(opened.ok()) << opened.status().ToString();
      result.mmap_open_ms += timer.ElapsedMillis() / repeats;
      RLZ_CHECK(opened.value()->Get(0, &mmap_doc).ok());
    }
  }
  if (readall_doc != mmap_doc || readall_doc != collection.doc(0)) {
    std::fprintf(stderr, "GATE FAIL cold-start: mmap/read-all mismatch\n");
    *gate_pass = false;
  }
  std::filesystem::remove_all(save_dir);
  return result;
}

// Saves `archive`, drops it, and times the cold reopen plus the first
// document fetch — the restart cost a serving process pays per format.
void ReportColdOpen(const char* label, const Archive& archive,
                    const std::filesystem::path& dir,
                    const OpenOptions& options) {
  const std::string path = (dir / label).string();
  RLZ_CHECK(archive.Save(path).ok()) << label;

  Timer open_timer;
  auto reopened = OpenArchive(path, options);
  const double open_ms = 1e3 * open_timer.ElapsedSeconds();
  RLZ_CHECK(reopened.ok()) << label << ": " << reopened.status().ToString();

  std::string doc;
  Timer get_timer;
  RLZ_CHECK((*reopened)->Get((*reopened)->num_docs() / 2, &doc).ok());
  const double get_us = 1e6 * get_timer.ElapsedSeconds();

  std::printf("%-18s %-14s %10.1f %14.1f\n", label,
              (*reopened)->name().c_str(), open_ms, get_us);
}

void RestartCost(const Collection& collection) {
  std::printf(
      "\nrestart cost (save -> cold OpenArchive -> first Get), %zu docs:\n",
      collection.num_docs());
  std::printf("%-18s %-14s %10s %14s\n", "file", "format", "open ms",
              "first-get us");

  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() / "rlz_restart_cost";
  std::filesystem::create_directories(dir);

  OpenOptions with_sa;     // default: rebuild suffix arrays (build path)
  OpenOptions serving;     // serving-only reopen: no suffix arrays
  serving.build_suffix_array = false;

  ReportColdOpen("ascii", AsciiArchive(collection), dir, serving);
  ReportColdOpen(
      "blocked",
      BlockedArchive(collection, GetCompressor(CompressorId::kGzipx),
                     64 << 10),
      dir, serving);
  ReportColdOpen("semistatic",
                 *SemiStaticArchive::Build(collection, SemiStaticScheme::kEtdc),
                 dir, serving);

  RlzOptions rlz_options;
  rlz_options.dict_bytes = collection.size_bytes() / 100;
  const auto rlz = CompressCollection(collection, rlz_options);
  ReportColdOpen("rlz.sa", *rlz, dir, with_sa);
  ReportColdOpen("rlz.serve", *rlz, dir, serving);

  ShardedStoreOptions store_options;
  store_options.num_shards = 4;
  store_options.dict_bytes = collection.size_bytes() / 100;
  const auto store = ShardedStore::Build(collection, store_options);
  ReportColdOpen("sharded.sa", *store, dir, with_sa);
  ReportColdOpen("sharded.serve", *store, dir, serving);

  std::filesystem::remove_all(dir);
}

int Run(bool smoke, const std::string& out_path) {
  CorpusOptions corpus_options;
  corpus_options.target_bytes = smoke ? (1u << 20) : (8u << 20);
  corpus_options.seed = 20110613;
  const Collection collection = GenerateCorpus(corpus_options).collection;

  CorpusOptions tail_options;
  tail_options.target_bytes = smoke ? (1u << 19) : (2u << 20);
  tail_options.seed = 20110614;
  const Collection tail = GenerateCorpus(tail_options).collection;
  std::vector<std::string> docs;
  const size_t target_appends = smoke ? 400 : 4000;
  for (size_t i = 0; i < target_appends; ++i) {
    docs.emplace_back(tail.doc(i % tail.num_docs()));
  }

  std::printf("recovery_bench (%s): base %zu docs, %zu appends\n",
              smoke ? "smoke" : "full", collection.num_docs(), docs.size());

  bool gate_pass = true;
  std::vector<PolicyResult> policies;
  policies.push_back(RunPolicy(collection, docs, "fsync_1", 1, 0, &gate_pass));
  policies.push_back(RunPolicy(collection, docs, "fsync_8", 8, 0, &gate_pass));
  policies.push_back(
      RunPolicy(collection, docs, "fsync_64", 64, 0, &gate_pass));
  policies.push_back(RunPolicy(collection, docs, "fsync_8_seal_1mb", 8,
                               1 << 20, &gate_pass));
  for (const PolicyResult& p : policies) {
    std::printf(
        "  %-16s %8.0f appends/s  %6.1f MB/s  %3llu seals  %7llu "
        "checkpoint B/seal  recover %6.1f ms (%llu records, %.0f "
        "records/s)\n",
        p.name.c_str(), p.appends_per_s, p.append_mb_per_s,
        static_cast<unsigned long long>(p.seals),
        static_cast<unsigned long long>(p.checkpoint_bytes_per_seal),
        p.recover_ms,
        static_cast<unsigned long long>(p.replayed_records), p.replays_per_s);
  }

  const ColdStartResult cold =
      RunColdStart(collection, smoke ? 3 : 5, &gate_pass);
  std::printf(
      "  cold start: checkpointed %.1f ms, read-all %.1f ms, mmap %.1f ms\n",
      cold.checkpointed_open_ms, cold.readall_open_ms, cold.mmap_open_ms);
  if (!smoke) RestartCost(Gov2Crawl().collection);

  JsonWriter json("recovery", smoke);
  json.Host();
  json.Object("corpus")
      .Int("docs", collection.num_docs())
      .Int("bytes", collection.size_bytes())
      .Int("appends", docs.size())
      .Int("seed", corpus_options.seed)
      .End();
  json.Object("fsync_policies", JsonWriter::kLines);
  for (const PolicyResult& p : policies) {
    json.Object(p.name)
        .Int("fsync_every_n", p.fsync_every_n)
        .Int("tail_seal_bytes", p.tail_seal_bytes)
        .Int("dict_bytes", p.dict_bytes)
        .Num("appends_per_s", p.appends_per_s, 0)
        .Num("append_mb_per_s", p.append_mb_per_s, 2)
        .Int("seals", p.seals)
        .Int("checkpoint_bytes_per_seal", p.checkpoint_bytes_per_seal)
        .Num("recover_ms", p.recover_ms, 2)
        .Int("replayed_records", p.replayed_records)
        .Num("replays_per_s", p.replays_per_s, 0)
        .End();
  }
  json.End();
  json.Object("cold_start_ms")
      .Num("checkpointed", cold.checkpointed_open_ms, 2)
      .Num("readall", cold.readall_open_ms, 2)
      .Num("mmap", cold.mmap_open_ms, 2)
      .End();
  json.Str("gate", gate_pass ? "pass" : "fail");
  Gates gates(smoke);
  gates.Check(gate_pass,
              "smoke gate: every recovered store serves the acked workload "
              "back byte-identically");
  json.Write(out_path);
  return gates.ExitCode();
}

// Bounded kill-at-every-fsync sweep through FaultFs — the release-CI
// cousin of tests/recovery_test.cpp's exhaustive suites. Appends under
// `fsync_every_n`, auto-sealing (and checkpointing) at `tail_seal_bytes`
// when it is not 0; kills the writer at up to kMaxKills barriers (both
// entering and leaving each); after every crash the recovered store must
// hold a byte-identical prefix of the attempted appends that lost at most
// fsync_every_n - 1 acked ones (none under n = 1), and a prefix of the
// uncrashed run's shards. Returns the failures.
int CrashSweep(const Collection& collection,
               const std::vector<std::string>& docs, int fsync_every_n,
               size_t tail_seal_bytes) {
  constexpr int kMaxKills = 24;
  wal::WalWriterOptions wal_options;
  wal_options.fsync_every_n = fsync_every_n;
  const size_t max_lost = static_cast<size_t>(fsync_every_n - 1);

  std::vector<std::string> twin_shards;
  auto run_workload = [&](const std::shared_ptr<FaultFs>& fs,
                          bool* made_durable, bool keep_shards) {
    auto store = BuildStore(collection, tail_seal_bytes);
    *made_durable = store->MakeDurable("/store", wal_options, fs).ok();
    size_t acked = 0;
    if (!*made_durable) return acked;
    for (const std::string& doc : docs) {
      if (!store->Append(doc).ok()) break;
      ++acked;
    }
    for (int s = 0; keep_shards && s < store->num_shards(); ++s) {
      twin_shards.push_back(store->shard(s).Serialize());
    }
    return acked;
  };

  int total_barriers = 0;
  size_t base = 0;
  {
    auto fs = std::make_shared<FaultFs>();
    bool made_durable = false;
    const size_t acked = run_workload(fs, &made_durable, true);
    RLZ_CHECK(made_durable && acked == docs.size());
    total_barriers = fs->sync_count();
    base = BuildStore(collection)->num_docs();
  }
  const int kills = total_barriers < kMaxKills ? total_barriers : kMaxKills;
  // Spread the kill points across the whole workload so the bounded
  // sweep still covers MakeDurable, steady-state appends, and the tail.
  int failures = 0;
  int sweeps = 0;
  for (int i = 0; i < kills; ++i) {
    const int k = 1 + (i * total_barriers) / kills;
    for (const bool before : {true, false}) {
      ++sweeps;
      auto fs = std::make_shared<FaultFs>();
      fs->ArmCrash(k, before);
      bool made_durable = false;
      const size_t acked = run_workload(fs, &made_durable, false);
      auto reopened = ShardedStore::OpenDurable(
          "/store", OpenOptions{}, wal_options, fs->DurableClone(), nullptr);
      if (!made_durable) {
        continue;  // crash inside MakeDurable: nothing was promised
      }
      if (!reopened.ok()) {
        std::fprintf(stderr, "CRASH-SMOKE FAIL n=%d k=%d before=%d: %s\n",
                     fsync_every_n, k, before,
                     reopened.status().ToString().c_str());
        ++failures;
        continue;
      }
      const ShardedStore& store = *reopened.value();
      bool same_shards =
          static_cast<size_t>(store.num_shards()) <= twin_shards.size();
      for (int s = 0; same_shards && s < store.num_shards(); ++s) {
        same_shards = store.shard(s).Serialize() == twin_shards[s];
      }
      if (!same_shards) {
        std::fprintf(stderr,
                     "CRASH-SMOKE FAIL n=%d k=%d before=%d: %d shards, not "
                     "a prefix of the uncrashed run's %zu\n",
                     fsync_every_n, k, before, store.num_shards(),
                     twin_shards.size());
        ++failures;
        continue;
      }
      const size_t recovered = reopened.value()->num_docs() - base;
      // At most the unsynced batch of acked appends is lost; one in-flight
      // append may also have reached the disk before the crash.
      if (recovered + max_lost < acked || recovered > acked + 1) {
        std::fprintf(stderr,
                     "CRASH-SMOKE FAIL n=%d k=%d before=%d: acked %zu, "
                     "recovered %zu\n",
                     fsync_every_n, k, before, acked, recovered);
        ++failures;
        continue;
      }
      std::string doc;
      for (size_t i2 = 0; i2 < recovered; ++i2) {
        const Status status = reopened.value()->Get(base + i2, &doc);
        if (!status.ok() || doc != docs[i2]) {
          std::fprintf(stderr,
                       "CRASH-SMOKE FAIL n=%d k=%d before=%d: doc %zu\n",
                       fsync_every_n, k, before, i2);
          ++failures;
          break;
        }
      }
    }
  }
  std::printf("crash smoke (fsync_every_n = %d, tail_seal_bytes = %zu, %zu "
              "shards): %d kill points (%d barriers total), %d sweeps, %d "
              "failures\n",
              fsync_every_n, tail_seal_bytes, twin_shards.size(), kills,
              total_barriers, sweeps, failures);
  return failures;
}

// The crash sweep under strict durability and under perfbench's group
// commit, whose loss window now includes a process crash, and under
// strict durability with a seal, and its checkpoint, every third or
// fourth append.
void RunCrashSmoke() {
  constexpr size_t kAppends = 20;
  CorpusOptions corpus_options;
  corpus_options.target_bytes = 1u << 18;
  corpus_options.seed = 20110615;
  const Collection collection = GenerateCorpus(corpus_options).collection;
  std::vector<std::string> docs;
  for (size_t i = 0; i < kAppends; ++i) {
    docs.push_back("crash smoke doc " + std::to_string(i));
  }
  const size_t seal_bytes = 3 * docs[0].size() + 1;
  int failures = 0;
  for (const int n : {1, 8}) failures += CrashSweep(collection, docs, n, 0);
  failures += CrashSweep(collection, docs, 1, seal_bytes);
  if (failures > 0) std::exit(1);
}

}  // namespace
}  // namespace bench
}  // namespace rlz

int main(int argc, char** argv) {
  bool smoke = false;
  bool crash_smoke = false;
  std::string out_path = "BENCH_recovery.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (std::strcmp(argv[i], "--crash-smoke") == 0) {
      crash_smoke = true;
    } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_path = argv[++i];
    } else {
      std::fprintf(stderr,
                   "usage: %s [--smoke] [--crash-smoke] [--out FILE]\n",
                   argv[0]);
      return 2;
    }
  }
  if (crash_smoke) {
    rlz::bench::RunCrashSmoke();
    return 0;
  }
  return rlz::bench::Run(smoke, out_path);
}
