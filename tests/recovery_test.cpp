// Crash-safe persistence tests (DESIGN.md §12): WAL framing, segment
// rolls, torn-tail truncation, the checkpoint commit protocol, and — the
// heart of the suite — kill-at-every-fsync crash injection through
// FaultFs: the writer is killed at every durability barrier the workload
// crosses, recovery runs against exactly what a fresh process would find
// on disk, and the recovered store must hold every acknowledged mutation
// and nothing that was never appended. The whole file carries the
// `durability` ctest label and runs under ASan in CI.

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/dictionary.h"
#include "core/rlz_archive.h"
#include "corpus/generator.h"
#include "io/fault_fs.h"
#include "io/file.h"
#include "io/file_system.h"
#include "serve/sharded_store.h"
#include "store/format.h"
#include "store/open_archive.h"
#include "store/wal/checkpoint.h"
#include "store/wal/wal_format.h"
#include "store/wal/wal_reader.h"
#include "store/wal/wal_writer.h"
#include "util/crc32.h"
#include "util/random.h"

namespace rlz {
namespace {

// 2 KB documents, so even the 8 KB collections hold several of them
// (the web style's 18 KB average would make them one document each).
Collection TestCollection(size_t target_bytes, uint64_t seed) {
  CorpusOptions options;
  options.target_bytes = target_bytes;
  options.seed = seed;
  options.avg_doc_bytes = 2 << 10;
  return GenerateCorpus(options).collection;
}

// A tiny live store, deterministic for a given collection: crash sweeps
// rebuild it from scratch every iteration. Two shards, so every sweep
// and round trip covers a multi-shard manifest. Most tests seal
// explicitly (`tail_seal_bytes` 0).
std::unique_ptr<ShardedStore> TinyStore(const Collection& collection,
                                        size_t tail_seal_bytes = 0) {
  ShardedStoreOptions options;
  options.num_shards = 2;
  options.dict_bytes = 1 << 12;
  options.live.tail_seal_bytes = tail_seal_bytes;
  auto store = ShardedStore::Build(collection, options);
  EXPECT_EQ(store->num_shards(), 2);
  return store;
}

// A fresh (empty) directory under the test temp root, on the real disk.
std::string FreshDir(const std::string& name) {
  const std::string dir = testing::TempDir() + name;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

std::string ReadRaw(const std::string& path) {
  auto raw = ReadFile(path);
  EXPECT_TRUE(raw.ok()) << path;
  return raw.ok() ? std::move(raw).value() : std::string();
}

// The short documents the crash workloads append: small enough that the
// byte-level fuzz sweeps stay fast.
std::vector<std::string> SmallDocs(size_t n) {
  std::vector<std::string> docs;
  for (size_t i = 0; i < n; ++i) {
    docs.push_back("tail document " + std::to_string(i) +
                   " -- the quick brown fox jumps over the lazy dog");
  }
  return docs;
}

// The shard file names a sharded manifest lists (its v1 prefix: shard
// count, boundaries, names).
std::vector<std::string> ManifestShardNames(std::string manifest) {
  std::vector<std::string> names;
  auto envelope = ParsedEnvelope::FromBytes(std::move(manifest), "manifest");
  EXPECT_TRUE(envelope.ok()) << envelope.status().ToString();
  if (!envelope.ok()) return names;
  EnvelopeReader reader = envelope->reader();
  uint64_t nshards = 0;
  EXPECT_TRUE(reader.ReadVarint64(&nshards).ok());
  for (uint64_t s = 0; s <= nshards; ++s) {
    uint64_t start = 0;
    EXPECT_TRUE(reader.ReadVarint64(&start).ok());
  }
  for (uint64_t s = 0; s < nshards; ++s) {
    std::string_view name;
    EXPECT_TRUE(reader.ReadLengthPrefixed(&name).ok());
    names.emplace_back(name);
  }
  return names;
}

// `got` holds byte-identical shards and serves what `want` serves.
void ExpectSameStore(const ShardedStore& want, const ShardedStore& got) {
  ASSERT_EQ(got.num_shards(), want.num_shards());
  for (int s = 0; s < want.num_shards(); ++s) {
    EXPECT_EQ(got.shard(s).Serialize(), want.shard(s).Serialize()) << s;
  }
  ASSERT_EQ(got.num_docs(), want.num_docs());
  std::string want_doc;
  std::string got_doc;
  for (size_t id = 0; id < want.num_docs(); ++id) {
    const Status status = want.Get(id, &want_doc);
    EXPECT_EQ(got.Get(id, &got_doc).code(), status.code()) << id;
    if (status.ok()) {
      EXPECT_EQ(got_doc, want_doc) << id;
    }
  }
}

// A FileSystem that forwards every call to another; the wrappers below
// override what they observe or break.
class ForwardingFs : public FileSystem {
 public:
  explicit ForwardingFs(std::shared_ptr<FileSystem> base)
      : base_(std::move(base)) {}

  StatusOr<std::string> Read(const std::string& path) const override {
    return base_->Read(path);
  }
  StatusOr<std::unique_ptr<WritableFile>> Create(
      const std::string& path) override {
    return base_->Create(path);
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
  std::shared_ptr<FileSystem> base_;
};

// Records every file it creates: what a checkpoint wrote, counted from
// the outside.
class CreateLogFs final : public ForwardingFs {
 public:
  using ForwardingFs::ForwardingFs;

  StatusOr<std::unique_ptr<WritableFile>> Create(
      const std::string& path) override {
    {
      std::lock_guard<std::mutex> lock(mu_);
      created_.push_back(path);
    }
    return ForwardingFs::Create(path);
  }

  // The shard files created since the last call (path suffixes after
  // the last '.', e.g. "shard0002"), and forgets them.
  std::vector<std::string> TakeShardWrites() {
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<std::string> shards;
    for (const std::string& path : created_) {
      const size_t dot = path.find_last_of('.');
      if (path.compare(dot + 1, 5, "shard") == 0) {
        shards.push_back(path.substr(dot + 1));
      }
    }
    created_.clear();
    return shards;
  }

 private:
  std::mutex mu_;
  std::vector<std::string> created_;
};

// Counts the bytes read from and the creations of WAL segment files, by
// file name: which segments a checkpoint's GC read back.
class SegmentReadCountFs final : public ForwardingFs {
 public:
  using ForwardingFs::ForwardingFs;

  StatusOr<std::string> Read(const std::string& path) const override {
    StatusOr<std::string> bytes = ForwardingFs::Read(path);
    const std::string name = path.substr(path.find_last_of('/') + 1);
    uint64_t seq = 0;
    if (bytes.ok() && wal::ParseSegmentFileName(name, &seq)) {
      std::lock_guard<std::mutex> lock(mu_);
      read_[seq] += bytes->size();
    }
    return bytes;
  }
  StatusOr<std::unique_ptr<WritableFile>> Create(
      const std::string& path) override {
    const std::string name = path.substr(path.find_last_of('/') + 1);
    uint64_t seq = 0;
    if (wal::ParseSegmentFileName(name, &seq)) {
      std::lock_guard<std::mutex> lock(mu_);
      created_.push_back(seq);
    }
    return ForwardingFs::Create(path);
  }

  // Segment seq -> bytes read since the last call, and forgets them.
  std::map<uint64_t, uint64_t> TakeReads() {
    std::lock_guard<std::mutex> lock(mu_);
    return std::exchange(read_, {});
  }
  // Segments created since the last call, and forgets them.
  std::vector<uint64_t> TakeCreated() {
    std::lock_guard<std::mutex> lock(mu_);
    return std::exchange(created_, {});
  }

 private:
  mutable std::mutex mu_;
  mutable std::map<uint64_t, uint64_t> read_;
  std::vector<uint64_t> created_;
};

// Fails one write or one fsync of a WAL segment file once, when armed: a
// transient I/O error, after which every call succeeds again. The failed
// write first lands half its bytes, as a short write(2) does. `skip` lets
// that many calls of the armed kind through first.
class FlakyWalFs final : public ForwardingFs {
 public:
  enum class Fault { kNone, kWrite, kSync };

  using ForwardingFs::ForwardingFs;

  void Arm(Fault fault, int skip = 0) {
    armed_ = fault;
    skip_ = skip;
  }
  bool fired() const { return fired_; }

  StatusOr<std::unique_ptr<WritableFile>> Create(
      const std::string& path) override {
    RLZ_ASSIGN_OR_RETURN(std::unique_ptr<WritableFile> file,
                         ForwardingFs::Create(path));
    if (path.find("/wal-") == std::string::npos) return file;
    return std::unique_ptr<WritableFile>(new File(this, std::move(file)));
  }

 private:
  class File final : public WritableFile {
   public:
    File(FlakyWalFs* fs, std::unique_ptr<WritableFile> base)
        : fs_(fs), base_(std::move(base)) {}
    Status Append(std::string_view data) override {
      if (!fs_->Fire(Fault::kWrite)) return base_->Append(data);
      (void)base_->Append(data.substr(0, data.size() / 2));
      return Status::IOError("injected write error");
    }
    Status Sync() override {
      if (!fs_->Fire(Fault::kSync)) return base_->Sync();
      return Status::IOError("injected fsync error");
    }
    Status Close() override { return base_->Close(); }

   private:
    FlakyWalFs* fs_;
    std::unique_ptr<WritableFile> base_;
  };

  // True (and disarmed) when `fault` is the armed one and no skips are
  // left.
  bool Fire(Fault fault) {
    if (armed_ != fault) return false;
    if (skip_ > 0) {
      --skip_;
      return false;
    }
    armed_ = Fault::kNone;
    fired_ = true;
    return true;
  }

  Fault armed_ = Fault::kNone;
  int skip_ = 0;
  bool fired_ = false;
};

// Fails the next Create of a path that contains the armed substring,
// once: a checkpoint file that cannot be written, on a disk whose WAL
// keeps working.
class FailCreateOnceFs final : public ForwardingFs {
 public:
  using ForwardingFs::ForwardingFs;

  void Arm(std::string substring) { armed_ = std::move(substring); }
  bool fired() const { return fired_; }

  StatusOr<std::unique_ptr<WritableFile>> Create(
      const std::string& path) override {
    if (!armed_.empty() && path.find(armed_) != std::string::npos) {
      armed_.clear();
      fired_ = true;
      return Status::IOError("injected create error: " + path);
    }
    return ForwardingFs::Create(path);
  }

 private:
  std::string armed_;
  bool fired_ = false;
};

// ---------------------------------------------------------------------------
// FaultFs: the crash-injection harness itself

TEST(FaultFsTest, SyncMakesContentPrefixDurable) {
  auto fs = std::make_shared<FaultFs>();
  ASSERT_TRUE(fs->CreateDir("/d").ok());
  auto file_or = fs->Create("/d/f");
  ASSERT_TRUE(file_or.ok());
  auto file = std::move(file_or).value();
  ASSERT_TRUE(file->Append("synced").ok());
  ASSERT_TRUE(file->Sync().ok());
  ASSERT_TRUE(file->Append(" not synced").ok());
  ASSERT_TRUE(fs->SyncDir("/d").ok());  // the *entry* is durable either way

  // The running process sees everything; a post-crash process sees only
  // the synced prefix.
  auto live = fs->Read("/d/f");
  ASSERT_TRUE(live.ok());
  EXPECT_EQ(*live, "synced not synced");
  auto clone = fs->DurableClone();
  auto durable = clone->Read("/d/f");
  ASSERT_TRUE(durable.ok());
  EXPECT_EQ(*durable, "synced");
}

TEST(FaultFsTest, NamespaceOpsRequireSyncDir) {
  auto fs = std::make_shared<FaultFs>();
  ASSERT_TRUE(fs->CreateDir("/d").ok());
  {
    auto file = std::move(fs->Create("/d/a")).value();
    ASSERT_TRUE(file->Append("aa").ok());
    ASSERT_TRUE(file->Sync().ok());
  }
  // Contents are synced but the directory entry is not: a crash now
  // loses the file entirely.
  EXPECT_FALSE(fs->DurableClone()->Exists("/d/a"));
  ASSERT_TRUE(fs->SyncDir("/d").ok());
  EXPECT_TRUE(fs->DurableClone()->Exists("/d/a"));

  // Rename: visible immediately, durable only after SyncDir.
  ASSERT_TRUE(fs->Rename("/d/a", "/d/b").ok());
  EXPECT_TRUE(fs->Exists("/d/b"));
  auto before = fs->DurableClone();
  EXPECT_TRUE(before->Exists("/d/a"));
  EXPECT_FALSE(before->Exists("/d/b"));
  ASSERT_TRUE(fs->SyncDir("/d").ok());
  auto after = fs->DurableClone();
  EXPECT_FALSE(after->Exists("/d/a"));
  EXPECT_TRUE(after->Exists("/d/b"));
}

TEST(FaultFsTest, CrashBeforeBarrierSyncsNothing) {
  auto fs = std::make_shared<FaultFs>();
  ASSERT_TRUE(fs->CreateDir("/d").ok());
  auto file = std::move(fs->Create("/d/f")).value();
  ASSERT_TRUE(fs->SyncDir("/d").ok());
  ASSERT_TRUE(file->Append("doomed").ok());

  fs->ArmCrash(/*at_sync=*/1, /*before=*/true);
  EXPECT_FALSE(file->Sync().ok());  // the barrier itself fails
  EXPECT_TRUE(fs->crashed());
  EXPECT_FALSE(file->Append("x").ok());  // everything after is dead
  auto clone = fs->DurableClone();
  auto durable = clone->Read("/d/f");
  ASSERT_TRUE(durable.ok());
  EXPECT_EQ(*durable, "");  // the doomed bytes never became durable
}

TEST(FaultFsTest, CrashAfterBarrierKeepsThatBarrier) {
  auto fs = std::make_shared<FaultFs>();
  ASSERT_TRUE(fs->CreateDir("/d").ok());
  auto file = std::move(fs->Create("/d/f")).value();
  ASSERT_TRUE(fs->SyncDir("/d").ok());
  ASSERT_TRUE(file->Append("kept").ok());

  fs->ArmCrash(/*at_sync=*/1, /*before=*/false);
  EXPECT_TRUE(file->Sync().ok());  // this barrier completes...
  EXPECT_TRUE(fs->crashed());
  EXPECT_FALSE(file->Sync().ok());  // ...and the next one is dead
  auto durable = fs->DurableClone()->Read("/d/f");
  ASSERT_TRUE(durable.ok());
  EXPECT_EQ(*durable, "kept");
}

// ---------------------------------------------------------------------------
// WAL on-disk format

TEST(WalFormatTest, SegmentHeaderRoundTripAndDamage) {
  wal::SegmentHeader header;
  header.generation = 7;
  header.start_lsn = 123456789;
  const std::string encoded = wal::EncodeSegmentHeader(header);
  ASSERT_EQ(encoded.size(), wal::kSegmentHeaderSize);

  auto decoded = wal::DecodeSegmentHeader(encoded, "test");
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->generation, 7u);
  EXPECT_EQ(decoded->start_lsn, 123456789u);

  // Truncation, bad magic, and a flipped byte (the version byte included)
  // are all Corruption; only an intact header of another version is
  // InvalidArgument (a version problem, not damage).
  EXPECT_EQ(wal::DecodeSegmentHeader(
                std::string_view(encoded).substr(0, encoded.size() - 1), "t")
                .status()
                .code(),
            StatusCode::kCorruption);
  std::string bad_magic = encoded;
  bad_magic[0] = 'X';
  EXPECT_EQ(wal::DecodeSegmentHeader(bad_magic, "t").status().code(),
            StatusCode::kCorruption);
  for (const uint8_t version : {0, 2}) {
    std::string other = encoded.substr(0, wal::kSegmentHeaderSize - 4);
    other[4] = static_cast<char>(version);
    wal::PutFixed32(&other, Crc32(other));
    EXPECT_EQ(wal::DecodeSegmentHeader(other, "t").status().code(),
              StatusCode::kInvalidArgument)
        << "version " << int{version};
  }
  for (size_t i = 0; i < encoded.size(); ++i) {
    std::string flipped = encoded;
    flipped[i] = static_cast<char>(flipped[i] ^ 0x20);
    EXPECT_EQ(wal::DecodeSegmentHeader(flipped, "t").status().code(),
              StatusCode::kCorruption)
        << "byte " << i;
  }
}

TEST(WalFormatTest, RecordFrameRoundTripAndTruncation) {
  const std::string frame =
      wal::EncodeRecord(wal::RecordType::kAppend, "payload bytes");
  wal::ParsedRecord record;
  ASSERT_EQ(wal::ParseRecord(frame, &record), wal::FrameStatus::kOk);
  EXPECT_EQ(record.type, wal::RecordType::kAppend);
  EXPECT_EQ(record.payload, "payload bytes");
  EXPECT_EQ(record.frame_size, frame.size());

  EXPECT_EQ(wal::ParseRecord("", &record), wal::FrameStatus::kEnd);
  // Every proper prefix is torn, never Ok and never a crash.
  for (size_t len = 1; len < frame.size(); ++len) {
    EXPECT_EQ(wal::ParseRecord(std::string_view(frame).substr(0, len),
                               &record),
              wal::FrameStatus::kTorn)
        << "prefix " << len;
  }
  // A flipped payload byte fails the CRC.
  std::string flipped = frame;
  flipped[6] = static_cast<char>(flipped[6] ^ 0x01);
  EXPECT_EQ(wal::ParseRecord(flipped, &record), wal::FrameStatus::kTorn);
  // An unknown type byte is torn even though length and CRC could parse.
  std::string bad_type = frame;
  bad_type[0] = 99;
  EXPECT_EQ(wal::ParseRecord(bad_type, &record), wal::FrameStatus::kTorn);
}

TEST(WalFormatTest, SegmentFileNameRoundTrip) {
  uint64_t seq = 0;
  EXPECT_EQ(wal::SegmentFileName(42), "wal-0000000000000042.log");
  EXPECT_TRUE(wal::ParseSegmentFileName("wal-0000000000000042.log", &seq));
  EXPECT_EQ(seq, 42u);
  EXPECT_FALSE(wal::ParseSegmentFileName("wal-42.log", &seq));
  EXPECT_FALSE(wal::ParseSegmentFileName("wal-00000000000000x2.log", &seq));
  EXPECT_FALSE(wal::ParseSegmentFileName("wal-0000000000000042.tmp", &seq));
  EXPECT_FALSE(wal::ParseSegmentFileName("ckpt-0000000000000001.meta", &seq));
}

// ---------------------------------------------------------------------------
// WalWriter / ReplayWal

// Replays `dir` collecting (lsn, type, payload) triples.
struct ReplayedRecord {
  uint64_t lsn;
  wal::RecordType type;
  std::string payload;
};

StatusOr<wal::ReplayResult> Replay(const std::shared_ptr<FileSystem>& fs,
                                   const std::string& dir,
                                   uint64_t covered_lsn,
                                   std::vector<ReplayedRecord>* out) {
  return wal::ReplayWal(
      fs, dir, covered_lsn,
      [out](uint64_t lsn, wal::RecordType type, std::string_view payload) {
        out->push_back({lsn, type, std::string(payload)});
        return Status::OK();
      });
}

TEST(WalTest, AppendAndReplayRoundTrip) {
  const std::string dir = FreshDir("wal_roundtrip");
  auto fs = DefaultFileSystem();
  wal::WalWriterOptions options;
  auto writer_or = wal::WalWriter::Create(fs, dir, /*generation=*/1,
                                          /*seq=*/0, /*start_lsn=*/0, options);
  ASSERT_TRUE(writer_or.ok()) << writer_or.status().ToString();
  auto writer = std::move(writer_or).value();

  auto lsn0 = writer->Append(wal::RecordType::kAppend, "doc zero");
  ASSERT_TRUE(lsn0.ok());
  EXPECT_EQ(*lsn0, 0u);
  std::string delete_payload;
  wal::PutFixed64(&delete_payload, 3);
  ASSERT_TRUE(writer->Append(wal::RecordType::kDelete, delete_payload).ok());
  auto lsn2 = writer->Append(wal::RecordType::kSeal, "");
  ASSERT_TRUE(lsn2.ok());
  EXPECT_EQ(*lsn2, 2u);
  ASSERT_TRUE(writer->Close().ok());

  std::vector<ReplayedRecord> records;
  auto result = Replay(fs, dir, /*covered_lsn=*/0, &records);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->next_lsn, 3u);
  EXPECT_EQ(result->next_seq, 1u);
  EXPECT_EQ(result->replayed, 3u);
  EXPECT_FALSE(result->torn);
  ASSERT_EQ(records.size(), 3u);
  EXPECT_EQ(records[0].lsn, 0u);
  EXPECT_EQ(records[0].payload, "doc zero");
  EXPECT_EQ(records[1].type, wal::RecordType::kDelete);
  EXPECT_EQ(records[2].type, wal::RecordType::kSeal);

  // Replaying from a later coverage point skips what the checkpoint holds.
  records.clear();
  result = Replay(fs, dir, /*covered_lsn=*/2, &records);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].lsn, 2u);
}

TEST(WalTest, RollingKeepsEverySegmentReplayable) {
  const std::string dir = FreshDir("wal_roll");
  auto fs = DefaultFileSystem();
  wal::WalWriterOptions options;
  options.segment_bytes = 64;  // force a roll on nearly every append
  auto writer = std::move(wal::WalWriter::Create(fs, dir, 1, 0, 0, options)).value();
  const size_t n = 20;
  for (size_t i = 0; i < n; ++i) {
    ASSERT_TRUE(writer
                    ->Append(wal::RecordType::kAppend,
                             "record number " + std::to_string(i))
                    .ok());
  }
  EXPECT_GT(writer->segment_seq(), 2u);  // it really rolled
  ASSERT_TRUE(writer->Close().ok());

  std::vector<ReplayedRecord> records;
  auto result = Replay(fs, dir, 0, &records);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->next_lsn, n);
  ASSERT_EQ(records.size(), n);
  for (size_t i = 0; i < n; ++i) {
    EXPECT_EQ(records[i].lsn, i);
    EXPECT_EQ(records[i].payload, "record number " + std::to_string(i));
  }
}

TEST(WalTest, TornFinalFrameTruncatesAndReports) {
  const std::string dir = FreshDir("wal_torn");
  auto fs = DefaultFileSystem();
  auto writer = std::move(wal::WalWriter::Create(fs, dir, 1, 0, 0, {})).value();
  ASSERT_TRUE(writer->Append(wal::RecordType::kAppend, "kept record").ok());
  ASSERT_TRUE(writer->Append(wal::RecordType::kAppend, "torn record").ok());
  ASSERT_TRUE(writer->Close().ok());

  // Tear the last frame: drop its final 3 bytes (inside the CRC).
  const std::string path = dir + "/" + wal::SegmentFileName(0);
  const std::string pristine = ReadRaw(path);
  ASSERT_TRUE(WriteFile(path, std::string_view(pristine)
                                  .substr(0, pristine.size() - 3))
                  .ok());

  std::vector<ReplayedRecord> records;
  auto result = Replay(fs, dir, 0, &records);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(result->torn);
  EXPECT_EQ(result->next_lsn, 1u);
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].payload, "kept record");

  // The torn suffix was truncated away in place: a second replay is
  // clean, and the file ends exactly at the last valid frame.
  records.clear();
  result = Replay(fs, dir, 0, &records);
  ASSERT_TRUE(result.ok());
  EXPECT_FALSE(result->torn);
  EXPECT_EQ(records.size(), 1u);
}

TEST(WalTest, EveryTruncationOfFinalSegmentRecovers) {
  // Build one segment's bytes in memory, then replay every possible
  // truncation point: recovery must yield exactly the complete-frame
  // prefix (or remove the segment when even the header is gone) — and
  // must never fail or crash on a pure truncation.
  wal::SegmentHeader header;
  header.generation = 1;
  header.start_lsn = 0;
  std::string segment = wal::EncodeSegmentHeader(header);
  std::vector<size_t> frame_ends;  // byte offsets of complete frames
  for (int i = 0; i < 4; ++i) {
    segment += wal::EncodeRecord(wal::RecordType::kAppend,
                                 "record " + std::to_string(i));
    frame_ends.push_back(segment.size());
  }

  for (size_t len = 0; len <= segment.size(); ++len) {
    auto fs = std::make_shared<FaultFs>();
    ASSERT_TRUE(fs->CreateDir("/w").ok());
    {
      auto file = std::move(fs->Create("/w/" + wal::SegmentFileName(0))).value();
      ASSERT_TRUE(file->Append(std::string_view(segment).substr(0, len)).ok());
      ASSERT_TRUE(file->Sync().ok());
    }
    ASSERT_TRUE(fs->SyncDir("/w").ok());

    std::vector<ReplayedRecord> records;
    auto result = Replay(fs, "/w", 0, &records);
    ASSERT_TRUE(result.ok()) << "len " << len << ": "
                             << result.status().ToString();
    if (len < wal::kSegmentHeaderSize) {
      // Crash mid-roll: the unreadable final segment is deleted and its
      // sequence number reused.
      EXPECT_EQ(result->next_seq, 0u) << "len " << len;
      EXPECT_TRUE(records.empty()) << "len " << len;
      EXPECT_FALSE(fs->Exists("/w/" + wal::SegmentFileName(0)))
          << "len " << len;
    } else {
      const size_t complete =
          std::count_if(frame_ends.begin(), frame_ends.end(),
                        [len](size_t end) { return end <= len; });
      EXPECT_EQ(records.size(), complete) << "len " << len;
      EXPECT_EQ(result->next_lsn, complete) << "len " << len;
      const bool on_boundary =
          len == wal::kSegmentHeaderSize ||
          std::find(frame_ends.begin(), frame_ends.end(), len) !=
              frame_ends.end();
      EXPECT_EQ(result->torn, !on_boundary) << "len " << len;
    }
  }
}

TEST(WalTest, DamageInSealedSegmentIsCorruption) {
  const std::string dir = FreshDir("wal_sealed_damage");
  auto fs = DefaultFileSystem();
  wal::WalWriterOptions options;
  options.segment_bytes = 64;
  auto writer = std::move(wal::WalWriter::Create(fs, dir, 1, 0, 0, options)).value();
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(writer
                    ->Append(wal::RecordType::kAppend,
                             "padding record " + std::to_string(i))
                    .ok());
  }
  ASSERT_TRUE(writer->Close().ok());

  // Flip one payload byte in segment 0 — a sealed (non-final) segment.
  const std::string path = dir + "/" + wal::SegmentFileName(0);
  std::string damaged = ReadRaw(path);
  damaged[wal::kSegmentHeaderSize + 8] ^= 0x01;
  ASSERT_TRUE(WriteFile(path, damaged).ok());

  std::vector<ReplayedRecord> records;
  auto result = Replay(fs, dir, 0, &records);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kCorruption);
}

TEST(WalTest, MissingSegmentIsCorruption) {
  const std::string dir = FreshDir("wal_gap");
  auto fs = DefaultFileSystem();
  wal::WalWriterOptions options;
  options.segment_bytes = 64;
  auto writer = std::move(wal::WalWriter::Create(fs, dir, 1, 0, 0, options)).value();
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(writer
                    ->Append(wal::RecordType::kAppend,
                             "padding record " + std::to_string(i))
                    .ok());
  }
  const uint64_t last_seq = writer->segment_seq();
  ASSERT_GE(last_seq, 2u);
  ASSERT_TRUE(writer->Close().ok());
  ASSERT_TRUE(fs->Remove(dir + "/" + wal::SegmentFileName(1)).ok());

  std::vector<ReplayedRecord> records;
  auto result = Replay(fs, dir, 0, &records);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kCorruption);
}

TEST(WalTest, SegmentBytesAreHeaderPlusFramesUnderEveryPolicy) {
  // The writer buffers frames and writes them at sync points, but the
  // files must hold exactly what writing each frame on arrival produced:
  // each segment's header followed by EncodeRecord frames, rolled at the
  // same records. The expected segments are built here by that rule.
  constexpr uint64_t kSegmentBytes = 5u << 18;
  struct Op {
    bool roll;  // a checkpoint's Roll(generation 2) instead of a record
    wal::RecordType type;
    std::string payload;
  };
  std::vector<Op> ops;
  for (int i = 0; i < 40; ++i) {
    // Small records, and every 4th a 300 KB one: the big ones cross the
    // size roll and the in-memory buffer's cap.
    const std::string payload =
        i % 4 == 1 ? std::string(300 << 10, static_cast<char>('a' + i % 26))
                   : "record " + std::to_string(i);
    ops.push_back({false, wal::RecordType::kAppend, payload});
    if (i == 17) {
      std::string id;
      wal::PutFixed64(&id, 5);
      ops.push_back({false, wal::RecordType::kDelete, id});
      ops.push_back({false, wal::RecordType::kSeal, ""});
      ops.push_back({true, wal::RecordType::kAppend, ""});
    }
  }

  std::vector<std::string> want;
  uint64_t generation = 1;
  uint64_t lsn = 0;
  auto open_segment = [&] {
    wal::SegmentHeader header;
    header.generation = generation;
    header.start_lsn = lsn;
    want.push_back(wal::EncodeSegmentHeader(header));
  };
  open_segment();
  for (const Op& op : ops) {
    if (op.roll) {
      generation = 2;
      open_segment();
      continue;
    }
    const std::string frame = wal::EncodeRecord(op.type, op.payload);
    if (want.back().size() > wal::kSegmentHeaderSize &&
        want.back().size() + frame.size() > kSegmentBytes) {
      open_segment();
    }
    want.back() += frame;
    ++lsn;
  }
  ASSERT_GE(want.size(), 4u);  // size rolls on both sides of the Roll

  for (const int n : {0, 1, 8, 64}) {
    auto fs = std::make_shared<FaultFs>();
    ASSERT_TRUE(fs->CreateDir("/w").ok());
    wal::WalWriterOptions options;
    options.segment_bytes = kSegmentBytes;
    options.fsync_every_n = n;
    auto writer =
        std::move(wal::WalWriter::Create(fs, "/w", 1, 0, 0, options)).value();
    for (const Op& op : ops) {
      if (op.roll) {
        ASSERT_TRUE(writer->Roll(2).ok()) << "n=" << n;
      } else {
        ASSERT_TRUE(writer->Append(op.type, op.payload).ok()) << "n=" << n;
      }
    }
    ASSERT_TRUE(writer->Close().ok()) << "n=" << n;
    for (size_t seq = 0; seq < want.size(); ++seq) {
      auto got = fs->DurableRead("/w/" + wal::SegmentFileName(seq));
      ASSERT_TRUE(got.ok()) << "n=" << n << " seq " << seq;
      EXPECT_TRUE(*got == want[seq]) << "n=" << n << " seq " << seq;
    }
    EXPECT_FALSE(fs->Exists("/w/" + wal::SegmentFileName(want.size())))
        << "n=" << n;
  }
}

TEST(WalTest, UnsyncedBufferIsWrittenAtItsCapWithoutSync) {
  // With no count trigger nothing reaches the file until the buffer hits
  // its cap; then it is written, and still not synced.
  auto fs = std::make_shared<FaultFs>();
  ASSERT_TRUE(fs->CreateDir("/w").ok());
  wal::WalWriterOptions options;
  options.fsync_every_n = 0;
  auto writer =
      std::move(wal::WalWriter::Create(fs, "/w", 1, 0, 0, options)).value();
  const std::string path = "/w/" + wal::SegmentFileName(0);
  const int barriers = fs->sync_count();
  const std::string payload(100 << 10, 'x');
  size_t framed = wal::kSegmentHeaderSize;
  while (framed + wal::kFrameOverhead + payload.size() <
         wal::WalWriter::kMaxBufferedBytes + wal::kSegmentHeaderSize) {
    ASSERT_TRUE(writer->Append(wal::RecordType::kAppend, payload).ok());
    framed += wal::kFrameOverhead + payload.size();
    EXPECT_EQ(fs->Read(path)->size(), wal::kSegmentHeaderSize);
  }
  ASSERT_TRUE(writer->Append(wal::RecordType::kAppend, payload).ok());
  framed += wal::kFrameOverhead + payload.size();
  EXPECT_EQ(fs->Read(path)->size(), framed);
  EXPECT_EQ(fs->sync_count(), barriers);
  EXPECT_EQ(fs->DurableRead(path)->size(), wal::kSegmentHeaderSize);
  ASSERT_TRUE(writer->Sync().ok());
  EXPECT_EQ(fs->DurableRead(path)->size(), framed);
}

// ---------------------------------------------------------------------------
// Checkpoint protocol primitives

TEST(CheckpointTest, CurrentPointerRoundTrip) {
  auto fs = std::make_shared<FaultFs>();
  ASSERT_TRUE(fs->CreateDir("/c").ok());
  EXPECT_EQ(wal::ReadCurrent(*fs, "/c").status().code(),
            StatusCode::kNotFound);

  wal::CheckpointInfo info;
  info.generation = 3;
  info.covered_lsn = 17;
  info.manifest = wal::CheckpointManifestFileName(3);
  ASSERT_TRUE(wal::WriteCheckpointMeta(*fs, "/c", info).ok());
  ASSERT_TRUE(wal::WriteCurrent(*fs, "/c", 3).ok());

  auto current = wal::ReadCurrent(*fs, "/c");
  ASSERT_TRUE(current.ok());
  EXPECT_EQ(*current, 3u);
  auto read = wal::ReadCheckpointMeta(*fs, "/c", 3);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(read->covered_lsn, 17u);
  EXPECT_EQ(read->manifest, info.manifest);

  // The swap is atomic: no CURRENT.tmp survives a completed WriteCurrent
  // in the durable view.
  EXPECT_FALSE(fs->DurableClone()->Exists("/c/CURRENT.tmp"));
}

TEST(CheckpointTest, ListCheckpointsSkipsDamagedMetas) {
  auto fs = std::make_shared<FaultFs>();
  ASSERT_TRUE(fs->CreateDir("/c").ok());
  for (uint64_t gen : {1, 2, 3}) {
    wal::CheckpointInfo info;
    info.generation = gen;
    info.covered_lsn = gen * 10;
    info.manifest = wal::CheckpointManifestFileName(gen);
    ASSERT_TRUE(wal::WriteCheckpointMeta(*fs, "/c", info).ok());
  }
  // Damage the newest meta: the scan must skip it and fall back to gen 2.
  {
    auto file = std::move(fs->Create("/c/" + wal::CheckpointMetaFileName(3))).value();
    ASSERT_TRUE(file->Append("garbage").ok());
    ASSERT_TRUE(file->Sync().ok());
  }
  auto list = wal::ListCheckpoints(*fs, "/c");
  ASSERT_TRUE(list.ok());
  ASSERT_EQ(list->size(), 2u);
  EXPECT_EQ((*list)[0].generation, 2u);  // newest readable first
  EXPECT_EQ((*list)[1].generation, 1u);
}

TEST(CheckpointTest, GarbageCollectRemovesSupersededFiles) {
  auto fs = std::make_shared<FaultFs>();
  ASSERT_TRUE(fs->CreateDir("/c").ok());
  auto put = [&](const std::string& name, const std::string& content) {
    auto file = std::move(fs->Create("/c/" + name)).value();
    ASSERT_TRUE(file->Append(content).ok());
    ASSERT_TRUE(file->Sync().ok());
  };
  // Old and new checkpoint generations plus a stale tmp.
  put(wal::CheckpointMetaFileName(1), "old");
  put(wal::CheckpointManifestFileName(1), "old");
  put(wal::CheckpointMetaFileName(2), "new");
  put(wal::CheckpointManifestFileName(2), "new");
  put("CURRENT.tmp", "stale");
  // Three segments: [0,5), [5,9), [9,...). With covered_lsn 9 the first
  // two are fully covered; the final one is live.
  for (uint64_t seq : {0, 1, 2}) {
    wal::SegmentHeader header;
    header.generation = 2;
    header.start_lsn = seq == 0 ? 0 : (seq == 1 ? 5 : 9);
    put(wal::SegmentFileName(seq), wal::EncodeSegmentHeader(header));
  }
  ASSERT_TRUE(fs->SyncDir("/c").ok());

  wal::CheckpointInfo keep;
  keep.generation = 2;
  keep.covered_lsn = 9;
  keep.manifest = wal::CheckpointManifestFileName(2);
  ASSERT_TRUE(wal::GarbageCollect(*fs, "/c", keep, /*keep_files=*/{}).ok());

  EXPECT_FALSE(fs->Exists("/c/" + wal::CheckpointMetaFileName(1)));
  EXPECT_FALSE(fs->Exists("/c/" + wal::CheckpointManifestFileName(1)));
  EXPECT_FALSE(fs->Exists("/c/CURRENT.tmp"));
  EXPECT_FALSE(fs->Exists("/c/" + wal::SegmentFileName(0)));
  EXPECT_FALSE(fs->Exists("/c/" + wal::SegmentFileName(1)));
  EXPECT_TRUE(fs->Exists("/c/" + wal::SegmentFileName(2)));
  EXPECT_TRUE(fs->Exists("/c/" + wal::CheckpointMetaFileName(2)));
  EXPECT_TRUE(fs->Exists("/c/" + wal::CheckpointManifestFileName(2)));
}

TEST(CheckpointTest, GarbageCollectKeepsOlderFilesTheManifestNames) {
  // Generation 3's manifest names a shard generation 1 wrote and one
  // generation 2 wrote: both stay, every unnamed older file goes.
  auto fs = std::make_shared<FaultFs>();
  ASSERT_TRUE(fs->CreateDir("/c").ok());
  auto put = [&](const std::string& name) {
    auto file = std::move(fs->Create("/c/" + name)).value();
    ASSERT_TRUE(file->Append(name).ok());
    ASSERT_TRUE(file->Sync().ok());
  };
  const std::string m1 = wal::CheckpointManifestFileName(1);
  const std::string m2 = wal::CheckpointManifestFileName(2);
  const std::string m3 = wal::CheckpointManifestFileName(3);
  for (const std::string& name :
       {wal::CheckpointMetaFileName(1), m1, m1 + ".shard0000",
        m1 + ".shard0001", wal::CheckpointMetaFileName(2), m2,
        m2 + ".shard0001", m2 + ".shard0002", wal::CheckpointMetaFileName(3),
        m3, m3 + ".shard0003"}) {
    put(name);
  }
  ASSERT_TRUE(fs->SyncDir("/c").ok());

  wal::CheckpointInfo keep;
  keep.generation = 3;
  keep.manifest = m3;
  const std::vector<std::string> named = {m1 + ".shard0000", m2 + ".shard0001",
                                          m2 + ".shard0002",
                                          m3 + ".shard0003"};
  ASSERT_TRUE(wal::GarbageCollect(*fs, "/c", keep, named).ok());

  for (const std::string& name : named) {
    EXPECT_TRUE(fs->Exists("/c/" + name)) << name;
  }
  EXPECT_TRUE(fs->Exists("/c/" + m3));
  EXPECT_TRUE(fs->Exists("/c/" + wal::CheckpointMetaFileName(3)));
  for (const std::string& name :
       {wal::CheckpointMetaFileName(1), m1, m1 + ".shard0001",
        wal::CheckpointMetaFileName(2), m2}) {
    EXPECT_FALSE(fs->Exists("/c/" + name)) << name;
  }
  // The removals are durable: GC synced the directory.
  auto durable = fs->DurableClone();
  EXPECT_FALSE(durable->Exists("/c/" + m1 + ".shard0001"));
  EXPECT_TRUE(durable->Exists("/c/" + m1 + ".shard0000"));
}

// ---------------------------------------------------------------------------
// Durable ShardedStore: round trips on a healthy disk

TEST(RecoveryTest, MakeDurableReopensIdentical) {
  const Collection collection = TestCollection(1 << 14, 201);
  const std::string dir = FreshDir("recovery_basic");
  {
    auto store = TinyStore(collection);
    ASSERT_TRUE(store->MakeDurable(dir).ok());
    EXPECT_TRUE(store->durable());
    EXPECT_FALSE(store->read_only());
    EXPECT_EQ(store->checkpoint_generation(), 1u);
  }
  ShardedStore::RecoveryReport report;
  auto reopened_or = ShardedStore::OpenDurable(dir, {}, {}, nullptr, &report);
  ASSERT_TRUE(reopened_or.ok()) << reopened_or.status().ToString();
  auto reopened = std::move(reopened_or).value();
  EXPECT_EQ(report.generation, 1u);
  EXPECT_EQ(report.replayed_records, 0u);  // empty-WAL recovery
  EXPECT_FALSE(report.torn_tail);
  ASSERT_EQ(reopened->num_docs(), collection.num_docs());
  std::string doc;
  for (size_t i = 0; i < collection.num_docs(); ++i) {
    ASSERT_TRUE(reopened->Get(i, &doc).ok());
    EXPECT_EQ(doc, collection.doc(i));
  }
}

// The lines of this process's memory map that name a file in `dir`.
std::vector<std::string> MappedFilesIn(const std::string& dir) {
  const std::string prefix = std::filesystem::canonical(dir).string() + "/";
  std::vector<std::string> lines;
  auto maps = ReadFile("/proc/self/maps");
  EXPECT_TRUE(maps.ok()) << maps.status().ToString();
  if (!maps.ok()) return lines;
  size_t begin = 0;
  while (begin < maps->size()) {
    size_t end = maps->find('\n', begin);
    if (end == std::string::npos) end = maps->size();
    const std::string line = maps->substr(begin, end - begin);
    if (line.find(prefix) != std::string::npos) lines.push_back(line);
    begin = end + 1;
  }
  return lines;
}

TEST(RecoveryTest, RealFileRecoveryMapsFilesThatCheckpointGcUnlinks) {
  // A recovery from real files (no injected FileSystem) maps every shard
  // and dictionary file of its checkpoint instead of copying it. The
  // compaction's checkpoint and a later Checkpoint then unlink files the
  // recovered shards still map: an epoch pinned before them keeps
  // reading those mappings, and every id reads back byte-identical.
  const Collection collection = TestCollection(1 << 14, 281);
  const std::string dir = FreshDir("recovery_mapped");
  const std::vector<std::string> docs = SmallDocs(6);
  size_t shard0_docs = 0;
  {
    auto store = TinyStore(collection);
    ASSERT_TRUE(store->MakeDurable(dir).ok());
    for (size_t i = 0; i < docs.size(); ++i) {
      ASSERT_TRUE(store->Append(docs[i]).ok());
      if (i == 2) {
        ASSERT_TRUE(store->SealTail().ok());
      }
    }
    shard0_docs = store->starts(1);
  }
  std::vector<std::string> expected;
  for (size_t i = 0; i < collection.num_docs(); ++i) {
    expected.emplace_back(collection.doc(i));
  }
  expected.insert(expected.end(), docs.begin(), docs.end());

  auto recovered_or = ShardedStore::OpenDurable(dir);
  ASSERT_TRUE(recovered_or.ok()) << recovered_or.status().ToString();
  auto recovered = std::move(recovered_or).value();
  const std::shared_ptr<const CorpusEpoch> pinned = recovered->epoch();
  std::vector<std::string> checkpoint_files;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    const std::string name = entry.path().filename().string();
    if (name.find(".shard") != std::string::npos ||
        name.find(".dict") != std::string::npos) {
      checkpoint_files.push_back(name);
    }
  }
  // Two base shards, one sealed shard and the append dictionary.
  ASSERT_EQ(checkpoint_files.size(), 4u);
  const std::vector<std::string> mapped = MappedFilesIn(dir);
  for (const std::string& name : checkpoint_files) {
    EXPECT_TRUE(std::any_of(mapped.begin(), mapped.end(),
                            [&](const std::string& line) {
                              return line.find("/" + name) !=
                                     std::string::npos;
                            }))
        << name << " is not mapped";
  }

  for (size_t id = 0; id < shard0_docs; ++id) {
    ASSERT_TRUE(recovered->Delete(id).ok()) << id;
  }
  auto compaction = recovered->CompactOnce();
  ASSERT_TRUE(compaction.ok()) << compaction.status().ToString();
  ASSERT_TRUE(compaction->compacted);
  EXPECT_EQ(compaction->shard, 0);
  ASSERT_TRUE(recovered->Checkpoint().ok());
  // Shard 0's old file is gone from the directory, and still mapped.
  size_t unlinked = 0;
  for (const std::string& name : checkpoint_files) {
    if (std::filesystem::exists(dir + "/" + name)) continue;
    ++unlinked;
    const std::vector<std::string> now_mapped = MappedFilesIn(dir);
    EXPECT_TRUE(std::any_of(now_mapped.begin(), now_mapped.end(),
                            [&](const std::string& line) {
                              return line.find("/" + name + " (deleted)") !=
                                     std::string::npos;
                            }))
        << name;
  }
  EXPECT_EQ(unlinked, 1u);

  std::string doc;
  ASSERT_EQ(pinned->num_docs(), expected.size());
  for (size_t id = 0; id < expected.size(); ++id) {
    ASSERT_TRUE(pinned->Get(id, &doc, /*scratch=*/nullptr).ok()) << id;
    EXPECT_EQ(doc, expected[id]) << id;
  }
  auto reopened_or = ShardedStore::OpenDurable(dir);
  ASSERT_TRUE(reopened_or.ok()) << reopened_or.status().ToString();
  for (const ShardedStore* store : {recovered.get(), reopened_or->get()}) {
    ASSERT_EQ(store->num_docs(), expected.size());
    for (size_t id = 0; id < expected.size(); ++id) {
      const Status status = store->Get(id, &doc);
      if (id < shard0_docs) {
        EXPECT_EQ(status.code(), StatusCode::kNotFound) << id;
        continue;
      }
      ASSERT_TRUE(status.ok()) << id << ": " << status.ToString();
      EXPECT_EQ(doc, expected[id]) << id;
    }
  }
}

TEST(RecoveryTest, AckedAppendsSurviveReopenWithoutSave) {
  const Collection collection = TestCollection(1 << 14, 211);
  const std::string dir = FreshDir("recovery_appends");
  const std::vector<std::string> docs = SmallDocs(5);
  size_t base = 0;
  {
    auto store = TinyStore(collection);
    base = store->num_docs();
    ASSERT_TRUE(store->MakeDurable(dir).ok());
    for (const std::string& doc : docs) {
      ASSERT_TRUE(store->Append(doc).ok());
    }
    // No Save, no Checkpoint, no clean anything beyond the destructor.
  }
  ShardedStore::RecoveryReport report;
  auto reopened_or = ShardedStore::OpenDurable(dir, {}, {}, nullptr, &report);
  ASSERT_TRUE(reopened_or.ok()) << reopened_or.status().ToString();
  auto reopened = std::move(reopened_or).value();
  EXPECT_EQ(report.replayed_records, docs.size());
  ASSERT_EQ(reopened->num_docs(), base + docs.size());
  std::string doc;
  for (size_t i = 0; i < docs.size(); ++i) {
    ASSERT_TRUE(reopened->Get(base + i, &doc).ok());
    EXPECT_EQ(doc, docs[i]);
  }
}

TEST(RecoveryTest, DeletesAndSealsReplay) {
  const Collection collection = TestCollection(1 << 14, 221);
  const std::string dir = FreshDir("recovery_mixed");
  const std::vector<std::string> docs = SmallDocs(6);
  size_t base = 0;
  int shards_after_seal = 0;
  {
    auto store = TinyStore(collection);
    base = store->num_docs();
    ASSERT_TRUE(store->MakeDurable(dir).ok());
    for (size_t i = 0; i < 3; ++i) ASSERT_TRUE(store->Append(docs[i]).ok());
    ASSERT_TRUE(store->SealTail().ok());
    shards_after_seal = store->num_shards();
    for (size_t i = 3; i < docs.size(); ++i) {
      ASSERT_TRUE(store->Append(docs[i]).ok());
    }
    ASSERT_TRUE(store->Delete(0).ok());         // sealed shard
    ASSERT_TRUE(store->Delete(base + 1).ok());  // sealed tail shard
    ASSERT_TRUE(store->Delete(base + 4).ok());  // open tail
  }
  auto reopened_or = ShardedStore::OpenDurable(dir);
  ASSERT_TRUE(reopened_or.ok()) << reopened_or.status().ToString();
  auto reopened = std::move(reopened_or).value();
  EXPECT_EQ(reopened->num_shards(), shards_after_seal);
  ASSERT_EQ(reopened->num_docs(), base + docs.size());
  std::string doc;
  EXPECT_EQ(reopened->Get(0, &doc).code(), StatusCode::kNotFound);
  EXPECT_EQ(reopened->Get(base + 1, &doc).code(), StatusCode::kNotFound);
  EXPECT_EQ(reopened->Get(base + 4, &doc).code(), StatusCode::kNotFound);
  for (size_t i = 0; i < docs.size(); ++i) {
    if (i == 1 || i == 4) continue;
    ASSERT_TRUE(reopened->Get(base + i, &doc).ok()) << i;
    EXPECT_EQ(doc, docs[i]);
  }
  // The recovered store is live: it can keep mutating durably.
  EXPECT_TRUE(reopened->Append("post-recovery doc").ok());
}

TEST(RecoveryTest, CheckpointPrunesWalAndReopens) {
  const Collection collection = TestCollection(1 << 14, 231);
  const std::string dir = FreshDir("recovery_checkpoint");
  const std::vector<std::string> docs = SmallDocs(4);
  size_t base = 0;
  size_t nshards = 0;
  {
    auto store = TinyStore(collection);
    base = store->num_docs();
    nshards = static_cast<size_t>(store->num_shards());
    ASSERT_TRUE(store->MakeDurable(dir).ok());
    for (const std::string& doc : docs) ASSERT_TRUE(store->Append(doc).ok());
    ASSERT_TRUE(store->Checkpoint().ok());
    EXPECT_EQ(store->checkpoint_generation(), 2u);
  }
  // After the checkpoint every superseded file is pruned: the live
  // generation's meta and manifest, the shard files and the append
  // dictionary's file that manifest names (generation 1 wrote them;
  // generation 2 only re-names them) and the uncovered WAL remain,
  // nothing else.
  const std::string manifest = wal::CheckpointManifestFileName(2);
  std::vector<std::string> named =
      ManifestShardNames(ReadRaw(dir + "/" + manifest));
  ASSERT_EQ(named.size(), nshards);
  named.push_back(wal::CheckpointManifestFileName(1) + ".dict");
  size_t live_segments = 0;
  size_t named_files = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    const std::string name = entry.path().filename().string();
    uint64_t value = 0;
    if (wal::ParseSegmentFileName(name, &value)) {
      ++live_segments;
    } else if (name.rfind("ckpt-", 0) == 0) {
      const bool is_named =
          std::find(named.begin(), named.end(), name) != named.end();
      named_files += is_named ? 1 : 0;
      EXPECT_TRUE(name == manifest || name == wal::CheckpointMetaFileName(2) ||
                  is_named)
          << name;
    }
  }
  EXPECT_EQ(named_files, named.size());  // every named file is present
  EXPECT_EQ(live_segments, 1u);  // just the fresh post-roll segment

  ShardedStore::RecoveryReport report;
  auto reopened_or = ShardedStore::OpenDurable(dir, {}, {}, nullptr, &report);
  ASSERT_TRUE(reopened_or.ok()) << reopened_or.status().ToString();
  auto reopened = std::move(reopened_or).value();
  EXPECT_EQ(report.generation, 2u);
  EXPECT_EQ(report.replayed_records, 0u);  // everything was covered
  ASSERT_EQ(reopened->num_docs(), base + docs.size());
  std::string doc;
  for (size_t i = 0; i < docs.size(); ++i) {
    ASSERT_TRUE(reopened->Get(base + i, &doc).ok());
    EXPECT_EQ(doc, docs[i]);
  }
}

TEST(RecoveryTest, PostSealCheckpointReadsNoSegmentThisProcessWrote) {
  // GC needs each segment's start LSN. Those of the segments the live
  // WAL writer created come from the writer; only a segment an earlier
  // process left is read back, for its header.
  const Collection collection = TestCollection(1 << 18, 243);
  auto fault = std::make_shared<FaultFs>();
  auto fs = std::make_shared<SegmentReadCountFs>(fault);
  ShardedStoreOptions options;
  options.num_shards = 2;
  options.dict_bytes = 1 << 14;
  options.live.tail_seal_bytes = 0;
  auto store = ShardedStore::Build(collection, options);
  ASSERT_TRUE(store->MakeDurable("/store", {}, fs).ok());
  for (int seal = 0; seal < 3; ++seal) {
    for (const std::string& doc : SmallDocs(4)) {
      ASSERT_TRUE(store->Append(doc).ok());
    }
    ASSERT_TRUE(store->SealTail().ok());
    ASSERT_TRUE(store->Checkpoint().ok());
  }
  EXPECT_EQ(fs->TakeReads(), (std::map<uint64_t, uint64_t>{}));
  // Every segment but the live one is gone.
  EXPECT_GE(fs->TakeCreated().size(), 7u);
  const std::vector<std::string> names = *fault->List("/store");
  EXPECT_EQ(std::count_if(names.begin(), names.end(),
                          [](const std::string& name) {
                            uint64_t seq = 0;
                            return wal::ParseSegmentFileName(name, &seq);
                          }),
            1);
  for (const std::string& doc : SmallDocs(2)) {
    ASSERT_TRUE(store->Append(doc).ok());
  }
  store.reset();

  // After a reopen, the first checkpoint reads the header of the segment
  // the first process left (replay read it too) and none it wrote itself.
  auto reopened_or = ShardedStore::OpenDurable("/store", {}, {}, fs);
  ASSERT_TRUE(reopened_or.ok()) << reopened_or.status().ToString();
  auto reopened = std::move(reopened_or).value();
  fs->TakeReads();
  const std::vector<uint64_t> opened = fs->TakeCreated();
  ASSERT_EQ(opened.size(), 1u);
  for (const std::string& doc : SmallDocs(3)) {
    ASSERT_TRUE(reopened->Append(doc).ok());
  }
  ASSERT_TRUE(reopened->SealTail().ok());
  std::map<uint64_t, uint64_t> reads = fs->TakeReads();
  const std::vector<uint64_t> created = fs->TakeCreated();
  EXPECT_EQ(reads.size(), 1u);
  EXPECT_LT(reads.begin()->first, opened[0]);
  for (const uint64_t seq : created) EXPECT_EQ(reads.count(seq), 0u) << seq;
  ASSERT_TRUE(reopened->Checkpoint().ok());
  EXPECT_EQ(fs->TakeReads(), (std::map<uint64_t, uint64_t>{}));
}

TEST(RecoveryTest, CheckpointsWriteOnlyShardsNoCheckpointHolds) {
  const Collection collection = TestCollection(1 << 18, 242);
  auto fault = std::make_shared<FaultFs>();
  auto fs = std::make_shared<CreateLogFs>(fault);
  ShardedStoreOptions options;
  options.num_shards = 2;
  options.dict_bytes = 1 << 14;
  options.live.tail_seal_bytes = 0;
  options.live.compact_tombstone_fraction = 0.10;
  auto store = ShardedStore::Build(collection, options);
  const size_t base = store->num_docs();
  const size_t shard0_docs = store->starts(1);
  ASSERT_GT(shard0_docs, 1u);

  // MakeDurable's checkpoint writes every shard; a second checkpoint with
  // no mutation in between writes none, only manifest and meta.
  ASSERT_TRUE(store->MakeDurable("/store", {}, fs).ok());
  EXPECT_EQ(fs->TakeShardWrites(),
            (std::vector<std::string>{"shard0000", "shard0001"}));
  ASSERT_TRUE(store->Checkpoint().ok());
  EXPECT_TRUE(fs->TakeShardWrites().empty());

  // Appends and deletes change only the manifest; a seal adds one shard,
  // which the seal's own checkpoint writes.
  for (const std::string& doc : SmallDocs(3)) {
    ASSERT_TRUE(store->Append(doc).ok());
  }
  ASSERT_TRUE(store->Delete(base + 1).ok());
  ASSERT_TRUE(store->Checkpoint().ok());
  EXPECT_TRUE(fs->TakeShardWrites().empty());
  ASSERT_TRUE(store->SealTail().ok());
  EXPECT_EQ(fs->TakeShardWrites(), (std::vector<std::string>{"shard0002"}));
  const uint64_t first_seal = store->checkpoint_generation();
  for (const std::string& doc : SmallDocs(2)) {
    ASSERT_TRUE(store->Append(doc).ok());
  }
  ASSERT_TRUE(store->SealTail().ok());
  EXPECT_EQ(fs->TakeShardWrites(), (std::vector<std::string>{"shard0003"}));
  const uint64_t second_seal = store->checkpoint_generation();
  EXPECT_EQ(second_seal, first_seal + 1);
  ASSERT_EQ(store->num_shards(), 4);

  // The compaction's checkpoint writes only the rewritten shard; the
  // others keep the files of the checkpoints that first held them.
  for (size_t i = 0; i < shard0_docs; ++i) {
    ASSERT_TRUE(store->Delete(i).ok());
  }
  auto report = store->CompactOnce();
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  ASSERT_TRUE(report->compacted);
  ASSERT_EQ(report->shard, 0);
  EXPECT_EQ(fs->TakeShardWrites(), (std::vector<std::string>{"shard0000"}));
  const uint64_t generation = store->checkpoint_generation();
  const std::vector<std::string> named = ManifestShardNames(
      *fault->Read("/store/" + wal::CheckpointManifestFileName(generation)));
  EXPECT_EQ(named,
            (std::vector<std::string>{
                wal::CheckpointManifestFileName(generation) + ".shard0000",
                wal::CheckpointManifestFileName(1) + ".shard0001",
                wal::CheckpointManifestFileName(first_seal) + ".shard0002",
                wal::CheckpointManifestFileName(second_seal) + ".shard0003"}));

  // The directory reopens byte-identical, and the reopened store knows
  // which files hold its shards: its first checkpoint writes none.
  auto reopened_or =
      ShardedStore::OpenDurable("/store", {}, {}, fault->DurableClone());
  ASSERT_TRUE(reopened_or.ok()) << reopened_or.status().ToString();
  auto reopened = std::move(reopened_or).value();
  ExpectSameStore(*store, *reopened);
  store.reset();
  auto reopen_fs = std::make_shared<CreateLogFs>(fault->DurableClone());
  auto again_or = ShardedStore::OpenDurable("/store", {}, {}, reopen_fs);
  ASSERT_TRUE(again_or.ok()) << again_or.status().ToString();
  reopen_fs->TakeShardWrites();
  ASSERT_TRUE((*again_or)->Checkpoint().ok());
  EXPECT_TRUE(reopen_fs->TakeShardWrites().empty());
}

TEST(RecoveryTest, MakeDurableAfterOpenWritesEveryShard) {
  // A store opened from a Save'd manifest knows the shard names of that
  // manifest's directory; MakeDurable into another directory must not
  // reuse them, or its checkpoint would name files that are not there.
  const Collection collection = TestCollection(1 << 14, 243);
  const std::string dir = FreshDir("recovery_durable_after_open");
  const std::string manifest = dir + "/store.sharded";
  auto store = TinyStore(collection);
  ASSERT_TRUE(store->Append("appended before save").ok());
  ASSERT_TRUE(store->SealTail().ok());
  ASSERT_TRUE(store->Delete(1).ok());
  ASSERT_TRUE(store->Save(manifest).ok());
  auto opened_or = ShardedStore::Open(manifest);
  ASSERT_TRUE(opened_or.ok()) << opened_or.status().ToString();
  auto opened = std::move(opened_or).value();

  auto fault = std::make_shared<FaultFs>();
  auto fs = std::make_shared<CreateLogFs>(fault);
  ASSERT_TRUE(opened->MakeDurable("/other", {}, fs).ok());
  std::vector<std::string> every_shard;
  for (int s = 0; s < opened->num_shards(); ++s) {
    every_shard.push_back("shard000" + std::to_string(s));
  }
  EXPECT_EQ(fs->TakeShardWrites(), every_shard);
  for (const std::string& name : ManifestShardNames(
           *fault->Read("/other/" + wal::CheckpointManifestFileName(1)))) {
    EXPECT_TRUE(fault->Exists("/other/" + name)) << name;
  }

  auto reopened_or =
      ShardedStore::OpenDurable("/other", {}, {}, fault->DurableClone());
  ASSERT_TRUE(reopened_or.ok()) << reopened_or.status().ToString();
  auto reopened = std::move(reopened_or).value();
  ExpectSameStore(*store, *reopened);
}

TEST(RecoveryTest, CompactionCheckpointsDurably) {
  // A bigger collection than the crash sweeps use: compaction needs a
  // multi-document shard to tombstone.
  const Collection collection = TestCollection(1 << 18, 241);
  const std::string dir = FreshDir("recovery_compaction");
  size_t shard0_docs = 0;
  uint64_t generation_after = 0;
  {
    ShardedStoreOptions options;
    options.num_shards = 2;
    options.dict_bytes = 1 << 14;
    options.live.compact_tombstone_fraction = 0.10;
    auto store = ShardedStore::Build(collection, options);
    ASSERT_TRUE(store->MakeDurable(dir).ok());
    shard0_docs = store->starts(1);
    ASSERT_GT(shard0_docs, 1u);
    ASSERT_LT(shard0_docs, store->num_docs());
    for (size_t i = 0; i < shard0_docs; ++i) {
      ASSERT_TRUE(store->Delete(i).ok());
    }
    auto report = store->CompactOnce();
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    ASSERT_TRUE(report->compacted);
    generation_after = store->checkpoint_generation();
    EXPECT_GE(generation_after, 2u);  // the compaction checkpointed
    std::string live_doc;
    ASSERT_TRUE(store->Get(shard0_docs, &live_doc).ok())
        << "pre-shutdown: " << store->Get(shard0_docs, &live_doc).ToString()
        << " num_docs=" << store->num_docs();
  }
  ShardedStore::RecoveryReport report;
  auto reopened_or = ShardedStore::OpenDurable(dir, {}, {}, nullptr, &report);
  ASSERT_TRUE(reopened_or.ok()) << reopened_or.status().ToString();
  auto reopened = std::move(reopened_or).value();
  EXPECT_EQ(report.generation, generation_after);
  std::string doc;
  EXPECT_EQ(reopened->Get(0, &doc).code(), StatusCode::kNotFound);
  ASSERT_TRUE(reopened->Get(shard0_docs, &doc).ok())
      << reopened->Get(shard0_docs, &doc).ToString()
      << " num_docs=" << reopened->num_docs()
      << " shard0_docs=" << shard0_docs;
  EXPECT_EQ(doc, collection.doc(shard0_docs));
}

TEST(RecoveryTest, ServingOnlyRecoveryIsReadOnly) {
  const Collection collection = TestCollection(1 << 14, 251);
  const std::string dir = FreshDir("recovery_serving_only");
  const std::vector<std::string> docs = SmallDocs(4);
  size_t base = 0;
  {
    auto store = TinyStore(collection);
    base = store->num_docs();
    ASSERT_TRUE(store->MakeDurable(dir).ok());
    for (size_t i = 0; i < 2; ++i) ASSERT_TRUE(store->Append(docs[i]).ok());
    ASSERT_TRUE(store->SealTail().ok());
    for (size_t i = 2; i < docs.size(); ++i) {
      ASSERT_TRUE(store->Append(docs[i]).ok());
    }
  }
  OpenOptions options;
  options.build_suffix_array = false;
  auto reopened_or = ShardedStore::OpenDurable(dir, options);
  ASSERT_TRUE(reopened_or.ok()) << reopened_or.status().ToString();
  auto reopened = std::move(reopened_or).value();
  EXPECT_TRUE(reopened->durable());
  EXPECT_TRUE(reopened->read_only());

  // Same documents, same bytes — the replayed seal is skipped (the tail
  // stays raw) but ids and contents are identical.
  ASSERT_EQ(reopened->num_docs(), base + docs.size());
  std::string doc;
  for (size_t i = 0; i < docs.size(); ++i) {
    ASSERT_TRUE(reopened->Get(base + i, &doc).ok()) << i;
    EXPECT_EQ(doc, docs[i]);
  }
  // Every mutation is disabled, and nothing was written to the dir.
  EXPECT_EQ(reopened->Append("nope").status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(reopened->Delete(0).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(reopened->SealTail().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(reopened->Checkpoint().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(reopened->CompactOnce().status().code(),
            StatusCode::kInvalidArgument);

  // A full (writable) open of the same directory still works afterwards.
  auto writable_or = ShardedStore::OpenDurable(dir);
  ASSERT_TRUE(writable_or.ok()) << writable_or.status().ToString();
  EXPECT_TRUE((*writable_or)->Append("writable again").ok());
}

TEST(RecoveryTest, ReplayedSealsAreByteIdenticalAndBuildNoShardMatchers) {
  // Appends, deletes and seals — auto and explicit, on both sides of a
  // checkpoint — then a crash inside the last seal's checkpoint: its
  // kSeal record is synced, its CURRENT flip is not. Replay pushes the
  // appends logged since the previous seal's checkpoint raw and encodes
  // them only at the logged seal, so every recovered shard must equal
  // the crashed store's byte for byte. A writable recovery builds one
  // suffix array, the append dictionary's: shards loaded from the
  // checkpoint get none, and shards sealed by replay share the append
  // dictionary. The recovered store still appends, seals and compacts.
  const Collection collection = TestCollection(1 << 16, 271);
  const Collection extra = TestCollection(1 << 17, 272);
  ASSERT_GE(extra.num_docs(), 6u);
  ShardedStoreOptions options;
  options.num_shards = 2;
  options.dict_bytes = 1 << 13;
  options.live.tail_seal_bytes = extra.size_bytes() / 3;

  // The workload on `fs`, cut short by a crash armed before append
  // `crash_at` at the third barrier from there: the append's record and
  // the seal's are the first two, the seal's checkpoint follows. Sets
  // `last_seal` to the last append that sealed, and `logged` to the
  // records no committed checkpoint covers.
  size_t last_seal = 0;
  uint64_t logged = 0;
  const auto run = [&](const std::shared_ptr<FaultFs>& fs, size_t crash_at) {
    auto store = ShardedStore::Build(collection, options);
    const size_t base = store->num_docs();
    EXPECT_TRUE(store->MakeDurable("/store", {}, fs).ok());
    uint64_t generation = store->checkpoint_generation();
    logged = 0;
    // Counts an op's `records`, or restarts the count at zero when the
    // op committed a checkpoint (which covers everything logged so far).
    const auto count = [&](uint64_t records) {
      if (store->checkpoint_generation() != generation) {
        generation = store->checkpoint_generation();
        logged = 0;
      } else {
        logged += records;
      }
    };
    EXPECT_TRUE(store->Delete(1).ok());
    count(1);
    for (size_t i = 0; i < extra.num_docs(); ++i) {
      if (i == crash_at) fs->ArmCrash(3, /*before=*/true);
      const int shards = store->num_shards();
      EXPECT_TRUE(store->Append(extra.doc(i)).ok());
      const bool sealed = store->num_shards() > shards;
      if (sealed) last_seal = i;
      count(sealed ? 2 : 1);
      if (i == crash_at) break;
      if (i == 1) {
        EXPECT_TRUE(store->Checkpoint().ok());
        count(0);
      }
      if (i == 2) {
        EXPECT_TRUE(store->SealTail().ok());
        count(1);
      }
      if (i % 3 == 0) {
        EXPECT_TRUE(store->Delete(base + i).ok());
        count(1);
      }
    }
    return store;
  };
  run(std::make_shared<FaultFs>(), extra.num_docs());
  const size_t crash_at = last_seal;
  ASSERT_GT(crash_at, 2u);  // an auto-seal after the explicit one
  auto fs = std::make_shared<FaultFs>();
  auto store = run(fs, crash_at);
  ASSERT_TRUE(fs->crashed());
  ASSERT_EQ(last_seal, crash_at);
  ASSERT_GT(store->num_shards(), options.num_shards + 1);
  // The appends since the previous seal, some deletes, and the seal.
  ASSERT_GT(logged, 2u);

  ShardedStore::RecoveryReport report;
  const std::shared_ptr<FaultFs> crashed = fs->DurableClone();
  auto recovered_or =
      ShardedStore::OpenDurable("/store", {}, {}, crashed, &report);
  ASSERT_TRUE(recovered_or.ok()) << recovered_or.status().ToString();
  auto recovered = std::move(recovered_or).value();
  // Recovery started from the previous seal's checkpoint and replayed the
  // crashed seal's record with the rest.
  EXPECT_EQ(report.generation, store->checkpoint_generation());
  EXPECT_EQ(report.replayed_records, logged);
  ASSERT_EQ(recovered->num_shards(), store->num_shards());
  ASSERT_EQ(recovered->num_docs(), store->num_docs());
  std::set<const Dictionary*> matchers;
  for (int s = 0; s < recovered->num_shards(); ++s) {
    EXPECT_EQ(recovered->shard(s).Serialize(), store->shard(s).Serialize())
        << "shard " << s;
    const Dictionary& dict = recovered->shard(s).dictionary();
    if (s < options.num_shards) {
      EXPECT_FALSE(dict.has_matcher()) << s;
    }
    if (dict.has_matcher()) matchers.insert(&dict);
  }
  EXPECT_EQ(matchers.size(), 1u);

  std::vector<std::string> expected(store->num_docs());
  std::vector<bool> deleted(store->num_docs(), false);
  for (size_t id = 0; id < expected.size(); ++id) {
    const Status status = store->Get(id, &expected[id]);
    deleted[id] = status.code() == StatusCode::kNotFound;
    ASSERT_TRUE(status.ok() || deleted[id]) << status.ToString();
  }
  auto id = recovered->Append("appended after recovery");
  ASSERT_TRUE(id.ok()) << id.status().ToString();
  expected.push_back("appended after recovery");
  deleted.push_back(false);
  ASSERT_TRUE(recovered->SealTail().ok());
  for (size_t d = 0; d < recovered->starts(1); ++d) {
    if (!deleted[d]) {
      ASSERT_TRUE(recovered->Delete(d).ok());
    }
    deleted[d] = true;
  }
  auto compaction = recovered->CompactOnce();
  ASSERT_TRUE(compaction.ok()) << compaction.status().ToString();
  EXPECT_TRUE(compaction->compacted);

  // The compaction checkpointed, so a second writable recovery loads
  // every shard from checkpoint files: the sealed ones share the append
  // dictionary, its suffix array the only one, and no other shard gets
  // one.
  auto reloaded_or =
      ShardedStore::OpenDurable("/store", {}, {}, crashed->DurableClone());
  ASSERT_TRUE(reloaded_or.ok()) << reloaded_or.status().ToString();
  auto reloaded = std::move(reloaded_or).value();
  const auto reloaded_epoch = reloaded->epoch();
  for (int s = 0; s < reloaded_epoch->num_shards(); ++s) {
    const RlzArchive& shard = reloaded_epoch->shard(s);
    if (!shard.SharesDictionary(reloaded_epoch->append_dictionary())) {
      EXPECT_FALSE(shard.dictionary().has_matcher()) << s;
    }
  }
  std::string doc;
  for (const ShardedStore* check : {recovered.get(), reloaded.get()}) {
    ASSERT_EQ(check->num_docs(), expected.size());
    for (size_t d = 0; d < expected.size(); ++d) {
      const Status status = check->Get(d, &doc);
      if (deleted[d]) {
        EXPECT_EQ(status.code(), StatusCode::kNotFound) << d;
      } else {
        ASSERT_TRUE(status.ok()) << d << ": " << status.ToString();
        EXPECT_EQ(doc, expected[d]) << d;
      }
    }
  }
  EXPECT_TRUE(reloaded->Append("appended after the second recovery").ok());
}

TEST(RecoveryTest, EmptyBuildReplaysSealsByteIdentical) {
  // A store built from no documents has an empty append dictionary, and
  // its manifest records the empty text. Recovery restores that
  // dictionary, so the replayed seal encodes against it as the crashed
  // store's seal did, and the recovered store still appends. The seal's
  // own checkpoint fails to write its shard, so the seal stays in the
  // log for replay.
  auto disk = std::make_shared<FaultFs>();
  auto fs = std::make_shared<FailCreateOnceFs>(disk);
  ShardedStoreOptions options;
  options.live.tail_seal_bytes = 0;
  auto store = ShardedStore::Build(Collection(), options);
  ASSERT_TRUE(store->MakeDurable("/store", {}, fs).ok());
  for (const std::string& doc : SmallDocs(4)) {
    ASSERT_TRUE(store->Append(doc).ok());
  }
  fs->Arm(".shard");
  ASSERT_TRUE(store->SealTail().ok());
  ASSERT_TRUE(fs->fired());
  ASSERT_TRUE(store->Append("still in the tail").ok());

  ShardedStore::RecoveryReport report;
  auto recovered_or = ShardedStore::OpenDurable("/store", {}, {},
                                                disk->DurableClone(), &report);
  ASSERT_TRUE(recovered_or.ok()) << recovered_or.status().ToString();
  auto recovered = std::move(recovered_or).value();
  EXPECT_EQ(report.generation, 1u);
  EXPECT_EQ(report.replayed_records, 6u);  // 4 appends, the seal, 1 append
  ExpectSameStore(*store, *recovered);
  EXPECT_TRUE(recovered->Append("appended after recovery").ok());
}

TEST(RecoveryTest, FailedPostSealCheckpointKeepsTheAppendAndReportsLater) {
  // The append that auto-seals checkpoints the new shard after its own
  // record and the seal's are logged. When that checkpoint fails, the
  // append is still acknowledged, the previous checkpoint stays live and
  // replays the seal, and the next Checkpoint() returns the kept error
  // once.
  const Collection collection = TestCollection(1 << 14, 351);
  const std::vector<std::string> docs = SmallDocs(3);
  auto disk = std::make_shared<FaultFs>();
  auto fs = std::make_shared<FailCreateOnceFs>(disk);
  ShardedStoreOptions options;
  options.num_shards = 2;
  options.dict_bytes = 1 << 12;
  options.live.tail_seal_bytes = docs[0].size() + docs[1].size();
  auto store = ShardedStore::Build(collection, options);
  const size_t base = store->num_docs();
  ASSERT_TRUE(store->MakeDurable("/store", {}, fs).ok());
  ASSERT_TRUE(store->Append(docs[0]).ok());
  fs->Arm(".shard");
  auto id = store->Append(docs[1]);  // seals; its checkpoint fails
  ASSERT_TRUE(id.ok()) << id.status().ToString();
  EXPECT_EQ(*id, base + 1);
  ASSERT_TRUE(fs->fired());
  EXPECT_EQ(store->num_shards(), 3);
  EXPECT_EQ(store->checkpoint_generation(), 1u);
  ASSERT_TRUE(store->Append(docs[2]).ok());  // the log keeps working

  ShardedStore::RecoveryReport report;
  auto recovered_or = ShardedStore::OpenDurable("/store", {}, {},
                                                disk->DurableClone(), &report);
  ASSERT_TRUE(recovered_or.ok()) << recovered_or.status().ToString();
  EXPECT_EQ(report.generation, 1u);
  EXPECT_EQ(report.replayed_records, 4u);  // 2 appends, the seal, 1 append
  ExpectSameStore(*store, **recovered_or);

  // The next checkpoint commits and still reports the failure; the one
  // after it reports nothing.
  const Status kept = store->Checkpoint();
  EXPECT_EQ(kept.code(), StatusCode::kIOError) << kept.ToString();
  EXPECT_NE(kept.message().find("injected create error"), std::string::npos);
  EXPECT_EQ(store->checkpoint_generation(), 2u);
  EXPECT_TRUE(store->Checkpoint().ok());
  auto reopened_or = ShardedStore::OpenDurable("/store", {}, {},
                                               disk->DurableClone(), &report);
  ASSERT_TRUE(reopened_or.ok()) << reopened_or.status().ToString();
  EXPECT_EQ(report.replayed_records, 0u);
  ExpectSameStore(*store, **reopened_or);
}

TEST(RecoveryTest, RecoveredStoreKeepsItsOptions) {
  // A non-default seal size and compaction triggers survive a crash: the
  // recovered store seals at the same appends and compacts the same
  // victim as an uncrashed twin, so the two end with byte-identical
  // shards. With the defaults it would never seal here (1 MB), and the
  // 25% trigger would not compact base shard 1 with one document in
  // eight tombstoned. Base shard 0 is compacted before the crash down
  // to one document, so its dictionary is smaller than the store's
  // budget: compaction's re-samples must keep the budget after
  // recovery.
  const Collection collection = TestCollection(1 << 16, 361);
  const Collection extra = TestCollection(1 << 15, 362);
  ShardedStoreOptions options;
  options.num_shards = 2;
  options.dict_bytes = 1 << 13;
  options.live.tail_seal_bytes = 5 << 10;
  options.live.compact_tombstone_fraction = 0.05;
  options.live.compact_stale_unused_fraction = 2.0;  // never stale
  options.live.compact_stale_decay = 2.0;
  const size_t half = extra.num_docs() / 2;
  // Appends docs [from, to) of `extra` to both stores and checks that
  // `twin` seals exactly when `store` does.
  const auto append = [&](ShardedStore* store, ShardedStore* twin,
                          size_t from, size_t to) {
    for (size_t i = from; i < to; ++i) {
      ASSERT_TRUE(store->Append(extra.doc(i)).ok());
      ASSERT_TRUE(twin->Append(extra.doc(i)).ok());
      ASSERT_EQ(store->num_shards(), twin->num_shards()) << "append " << i;
    }
  };

  auto twin_fs = std::make_shared<FaultFs>();
  auto twin = ShardedStore::Build(collection, options);
  ASSERT_TRUE(twin->MakeDurable("/store", {}, twin_fs).ok());
  auto fs = std::make_shared<FaultFs>();
  auto store = ShardedStore::Build(collection, options);
  ASSERT_TRUE(store->MakeDurable("/store", {}, fs).ok());
  append(store.get(), twin.get(), 0, half);
  for (size_t id = 1; id < store->starts(1); ++id) {
    ASSERT_TRUE(store->Delete(id).ok());
    ASSERT_TRUE(twin->Delete(id).ok());
  }
  for (ShardedStore* s : {store.get(), twin.get()}) {
    auto compacted = s->CompactOnce();
    ASSERT_TRUE(compacted.ok()) << compacted.status().ToString();
    ASSERT_EQ(compacted->shard, 0);
  }
  ASSERT_LT(store->shard(0).dictionary().size(), options.dict_bytes / 2);
  const int sealed_before_crash = store->num_shards();
  ASSERT_GT(sealed_before_crash, options.num_shards);
  ASSERT_GT(store->epoch()->tail_docs(), 0u);  // the crash cuts a tail

  const std::shared_ptr<FaultFs> image = fs->DurableClone();
  store.reset();
  auto recovered_or = ShardedStore::OpenDurable("/store", {}, {}, image);
  ASSERT_TRUE(recovered_or.ok()) << recovered_or.status().ToString();
  auto recovered = std::move(recovered_or).value();
  append(recovered.get(), twin.get(), half, extra.num_docs());
  ASSERT_GT(recovered->num_shards(), sealed_before_crash);

  // Tombstone ~12% of base shard 1: over the 5% trigger, under 25%.
  for (size_t id = recovered->starts(1); id < recovered->starts(2);
       id += 8) {
    ASSERT_TRUE(recovered->Delete(id).ok());
    ASSERT_TRUE(twin->Delete(id).ok());
  }
  auto want = twin->CompactOnce();
  auto got = recovered->CompactOnce();
  ASSERT_TRUE(want.ok() && got.ok());
  ASSERT_TRUE(want->compacted);
  EXPECT_EQ(want->shard, 1);
  EXPECT_EQ(want->reason, CompactionReport::Reason::kTombstones);
  EXPECT_EQ(got->compacted, want->compacted);
  EXPECT_EQ(got->shard, want->shard);
  EXPECT_EQ(got->reason, want->reason);
  EXPECT_EQ(got->bytes_after, want->bytes_after);
  ExpectSameStore(*twin, *recovered);
}

TEST(RecoveryTest, MmapOpenServesByteIdentical) {
  const Collection collection = TestCollection(1 << 15, 261);
  const std::string dir = FreshDir("recovery_mmap");

  // Single archive: Save, then Load through mmap.
  auto dict = DictionaryBuilder::BuildSampled(collection.data(), 1 << 12,
                                              1024);
  auto archive = RlzArchive::Build(collection, std::move(dict));
  const std::string path = dir + "/archive.rlz";
  ASSERT_TRUE(archive->Save(path).ok());
  OpenOptions options;
  options.use_mmap = true;
  auto mapped_or = RlzArchive::Load(path, options);
  ASSERT_TRUE(mapped_or.ok()) << mapped_or.status().ToString();
  auto mapped = std::move(mapped_or).value();
  std::string doc;
  for (size_t i = 0; i < collection.num_docs(); ++i) {
    ASSERT_TRUE(mapped->Get(i, &doc).ok());
    EXPECT_EQ(doc, collection.doc(i));
  }

  // Sharded store: the manifest and every shard open through the map.
  auto store = TinyStore(collection);
  const std::string manifest = dir + "/store.sharded";
  ASSERT_TRUE(store->Save(manifest).ok());
  auto reopened_or = ShardedStore::Open(manifest, options);
  ASSERT_TRUE(reopened_or.ok()) << reopened_or.status().ToString();
  auto reopened = std::move(reopened_or).value();
  ASSERT_EQ(reopened->num_docs(), collection.num_docs());
  for (size_t i = 0; i < collection.num_docs(); ++i) {
    ASSERT_TRUE(reopened->Get(i, &doc).ok());
    EXPECT_EQ(doc, collection.doc(i));
  }
}

// ---------------------------------------------------------------------------
// Crash injection: kill the writer at every fsync boundary

// The scripted mixed workload the crash sweeps execute, driving a model
// of the expected state alongside the store. Op kinds: 'A' append the
// next doc, 'D' delete (payload = id), 'S' seal, 'C' checkpoint.
struct ModelOp {
  char kind;
  size_t id = 0;  // kDelete only
};

// The logical corpus a recovered store must match: per-id bytes plus
// deleted flags. Derived by applying a prefix of the op script.
struct Model {
  std::vector<std::string> docs;
  std::vector<bool> deleted;

  static Model Base(const Collection& collection) {
    Model model;
    for (size_t i = 0; i < collection.num_docs(); ++i) {
      model.docs.emplace_back(collection.doc(i));
    }
    model.deleted.assign(model.docs.size(), false);
    return model;
  }

  void Apply(const ModelOp& op, const std::vector<std::string>& tail_docs,
             size_t* next_doc) {
    switch (op.kind) {
      case 'A':
        docs.push_back(tail_docs[(*next_doc)++]);
        deleted.push_back(false);
        break;
      case 'D':
        deleted[op.id] = true;
        break;
      default:  // 'S' and 'C' do not change the logical corpus
        break;
    }
  }
};

// True if `store` serves exactly the model's corpus.
bool MatchesModel(const ShardedStore& store, const Model& model,
                  std::string* why) {
  if (store.num_docs() != model.docs.size()) {
    *why = "num_docs " + std::to_string(store.num_docs()) + " vs model " +
           std::to_string(model.docs.size());
    return false;
  }
  std::string doc;
  for (size_t i = 0; i < model.docs.size(); ++i) {
    const Status status = store.Get(i, &doc);
    if (model.deleted[i]) {
      if (status.code() != StatusCode::kNotFound) {
        *why = "id " + std::to_string(i) + " should be deleted";
        return false;
      }
    } else if (!status.ok()) {
      *why = "id " + std::to_string(i) + ": " + status.ToString();
      return false;
    } else if (doc != model.docs[i]) {
      *why = "id " + std::to_string(i) + " bytes differ";
      return false;
    }
  }
  return true;
}

// Runs the scripted workload against a fresh store on `fs` that
// auto-seals at `tail_seal_bytes` (0: only 'S' seals). Returns the number
// of ops that were acknowledged (the crash, if armed, cuts the script
// short). `shards_after`, when set, receives the shard count before the
// first op and after each acknowledged one; `shard_bytes` every shard's
// bytes at the end, and `dict_texts` every append dictionary's text.
size_t RunScript(const std::shared_ptr<FaultFs>& fs,
                 const Collection& collection,
                 const std::vector<ModelOp>& script,
                 const std::vector<std::string>& tail_docs,
                 const wal::WalWriterOptions& wal_options,
                 size_t tail_seal_bytes, bool* made_durable,
                 std::vector<int>* shards_after = nullptr,
                 std::vector<std::string>* shard_bytes = nullptr,
                 std::vector<std::string>* dict_texts = nullptr) {
  auto store = TinyStore(collection, tail_seal_bytes);
  *made_durable = store->MakeDurable("/store", wal_options, fs).ok();
  if (shards_after != nullptr) shards_after->assign(1, store->num_shards());
  if (!*made_durable) return 0;
  size_t acked = 0;
  size_t next_doc = 0;
  for (const ModelOp& op : script) {
    Status status;
    switch (op.kind) {
      case 'A':
        status = store->Append(tail_docs[next_doc++]).status();
        break;
      case 'D':
        status = store->Delete(op.id);
        break;
      case 'S':
        status = store->SealTail();
        break;
      case 'C':
        status = store->Checkpoint();
        break;
    }
    if (!status.ok()) break;
    ++acked;
    if (shards_after != nullptr) shards_after->push_back(store->num_shards());
  }
  if (shard_bytes != nullptr) {
    for (int s = 0; s < store->num_shards(); ++s) {
      shard_bytes->push_back(store->shard(s).Serialize());
    }
  }
  if (dict_texts != nullptr) {
    const auto epoch = store->epoch();
    for (const auto& dict : epoch->append_dictionaries()) {
      dict_texts->emplace_back(dict->text());
    }
  }
  return acked;
}

// The sweep: run the script once unarmed to learn the barrier count,
// then kill the writer at every barrier K (both entering and leaving the
// barrier) and recover from the durable view. The recovered store must
// match the model after the acked ops — or after acked + 1 when the
// in-flight op's record reached the disk before the crash — and hold
// the uncrashed twin's shards and append dictionaries byte for byte.
// The appends take `docs`, or SmallDocs when it is empty.
void KillAtEveryFsync(const std::vector<ModelOp>& script,
                      const wal::WalWriterOptions& wal_options,
                      size_t max_lost_ops, size_t tail_seal_bytes = 0,
                      std::vector<std::string> docs = {}) {
  const Collection collection = TestCollection(1 << 13, 271);
  const std::vector<std::string> tail_docs =
      docs.empty() ? SmallDocs(script.size()) : std::move(docs);

  int total_barriers = 0;
  std::vector<int> twin_shards_after;
  std::vector<std::string> twin_shards;
  std::vector<std::string> twin_dicts;
  {
    auto fs = std::make_shared<FaultFs>();
    bool made_durable = false;
    const size_t acked =
        RunScript(fs, collection, script, tail_docs, wal_options,
                  tail_seal_bytes, &made_durable, &twin_shards_after,
                  &twin_shards, &twin_dicts);
    ASSERT_TRUE(made_durable);
    ASSERT_EQ(acked, script.size());
    total_barriers = fs->sync_count();
  }
  ASSERT_GT(total_barriers, 0);

  for (int k = 1; k <= total_barriers; ++k) {
    for (const bool before : {true, false}) {
      auto fs = std::make_shared<FaultFs>();
      fs->ArmCrash(k, before);
      bool made_durable = false;
      const size_t acked = RunScript(fs, collection, script, tail_docs,
                                     wal_options, tail_seal_bytes,
                                     &made_durable);
      auto clone = fs->DurableClone();

      auto reopened_or = ShardedStore::OpenDurable(
          "/store", OpenOptions{}, wal_options, clone, nullptr);
      if (!made_durable) {
        // The crash hit inside MakeDurable: either checkpoint 1 never
        // committed (clean failure) or it did (base corpus, no ops).
        if (reopened_or.ok()) {
          Model model = Model::Base(collection);
          std::string why;
          EXPECT_TRUE(MatchesModel(**reopened_or, model, &why))
              << "k=" << k << " before=" << before << ": " << why;
        }
        continue;
      }
      ASSERT_TRUE(reopened_or.ok())
          << "k=" << k << " before=" << before << ": "
          << reopened_or.status().ToString();
      auto reopened = std::move(reopened_or).value();

      // Build the candidate models: everything acked (minus the allowed
      // group-commit loss window) through acked + 1 in-flight op.
      const size_t min_ops = acked > max_lost_ops ? acked - max_lost_ops : 0;
      const size_t max_ops = std::min(acked + 1, script.size());
      bool matched = false;
      std::string last_why;
      Model model = Model::Base(collection);
      size_t next_doc = 0;
      size_t applied = 0;
      for (; applied < min_ops; ++applied) {
        model.Apply(script[applied], tail_docs, &next_doc);
      }
      for (; applied <= max_ops; ++applied) {
        std::string why;
        if (MatchesModel(*reopened, model, &why)) {
          matched = true;
          break;
        }
        last_why = why;
        if (applied < max_ops) {
          model.Apply(script[applied], tail_docs, &next_doc);
        }
      }
      EXPECT_TRUE(matched) << "k=" << k << " before=" << before << " acked="
                           << acked << ": " << last_why;
      if (!matched) continue;

      // Seals only ever add shards, so the recovered ones are a prefix of
      // the twin's. After `applied` ops the store holds the twin's count
      // then — or one fewer when the last op is an append whose record
      // reached the disk but whose seal's did not.
      const int want = twin_shards_after[applied];
      const int fewest = applied > 0 && script[applied - 1].kind == 'A'
                             ? twin_shards_after[applied - 1]
                             : want;
      EXPECT_GE(reopened->num_shards(), fewest)
          << "k=" << k << " before=" << before;
      EXPECT_LE(reopened->num_shards(), want)
          << "k=" << k << " before=" << before;
      for (int s = 0; s < reopened->num_shards() && s < want; ++s) {
        EXPECT_EQ(reopened->shard(s).Serialize(), twin_shards[s])
            << "k=" << k << " before=" << before << " shard " << s;
      }
      // With no compaction in a script, refreshes only add dictionaries,
      // so the recovered ones are a prefix of the twin's.
      const auto epoch = reopened->epoch();
      const auto& dicts = epoch->append_dictionaries();
      ASSERT_LE(dicts.size(), twin_dicts.size())
          << "k=" << k << " before=" << before;
      for (size_t d = 0; d < dicts.size(); ++d) {
        EXPECT_EQ(dicts[d]->text(), twin_dicts[d])
            << "k=" << k << " before=" << before << " dictionary " << d;
      }
    }
  }
}

TEST(RecoveryTest, KillAtEveryFsyncDuringAppends) {
  std::vector<ModelOp> script;
  for (int i = 0; i < 5; ++i) script.push_back({'A'});
  KillAtEveryFsync(script, wal::WalWriterOptions{}, /*max_lost_ops=*/0);
}

TEST(RecoveryTest, KillAtEveryFsyncDuringMixedWorkload) {
  // Appends around a seal, deletes in sealed and tail ranges, and a
  // mid-script checkpoint: every fsync boundary of the full durability
  // protocol gets a kill.
  const Collection probe = TestCollection(1 << 13, 271);
  const size_t base = probe.num_docs();
  std::vector<ModelOp> script;
  script.push_back({'A'});
  script.push_back({'A'});
  script.push_back({'D', 0});         // sealed shard of the base corpus
  script.push_back({'S'});            // seal the two appends
  script.push_back({'A'});
  script.push_back({'D', base + 1});  // the sealed tail shard
  script.push_back({'C'});            // checkpoint mid-script
  script.push_back({'A'});
  script.push_back({'D', base + 3});  // the open tail
  KillAtEveryFsync(script, wal::WalWriterOptions{}, /*max_lost_ops=*/0);
}

TEST(RecoveryTest, KillAtEveryFsyncAcrossFileReusingCheckpoints) {
  // Three checkpoints after MakeDurable's: one after a seal (writes the
  // new shard, re-names the older shards' files), one after deletes only
  // (writes no shard), one after a second seal. Every barrier of a
  // file-reusing checkpoint and of the GC that follows it gets a kill.
  const Collection probe = TestCollection(1 << 13, 271);
  const size_t base = probe.num_docs();
  std::vector<ModelOp> script;
  script.push_back({'A'});
  script.push_back({'A'});
  script.push_back({'S'});            // first sealed tail: [base, base + 2)
  script.push_back({'C'});
  script.push_back({'D', 0});         // sealed shard of the base corpus
  script.push_back({'D', base + 1});  // the first sealed tail
  script.push_back({'A'});
  script.push_back({'A'});
  script.push_back({'D', base + 3});  // the open tail
  script.push_back({'C'});
  script.push_back({'S'});            // second sealed tail: [base + 2, +4)
  script.push_back({'A'});
  script.push_back({'D', base + 2});  // the second sealed tail
  script.push_back({'C'});
  script.push_back({'A'});
  KillAtEveryFsync(script, wal::WalWriterOptions{}, /*max_lost_ops=*/0);
}

TEST(RecoveryTest, KillAtEveryFsyncDuringAutoSeals) {
  // Appends that seal every third document, each seal followed by its
  // checkpoint, with deletes in sealed and open ranges: kills land in the
  // seal's record, in the post-seal checkpoint's shard, manifest, CURRENT
  // and GC barriers, and between them.
  const Collection probe = TestCollection(1 << 13, 271);
  const size_t base = probe.num_docs();
  const std::vector<std::string> docs = SmallDocs(3);
  // Two documents stay under the threshold; the third crosses it.
  const size_t seal_bytes = docs[0].size() + docs[1].size() + 1;
  std::vector<ModelOp> script;
  script.push_back({'A'});
  script.push_back({'A'});
  script.push_back({'A'});            // seals [base, base + 3)
  script.push_back({'D', base + 1});  // the first sealed tail
  script.push_back({'A'});
  script.push_back({'A'});
  script.push_back({'D', base + 4});  // the open tail
  script.push_back({'A'});            // seals [base + 3, base + 6)
  script.push_back({'D', 0});         // a base shard
  script.push_back({'A'});
  script.push_back({'A'});
  KillAtEveryFsync(script, wal::WalWriterOptions{}, /*max_lost_ops=*/0,
                   seal_bytes);
}

// `n` documents of ~2 KB in a vocabulary the generated corpora never use
// (upper-case words and digits): a full drift in the sense of §3.6.
// Sealed against a dictionary sampled from a base corpus they factor
// into short factors and literals, past the staleness trigger; a
// dictionary sampled from them covers them.
std::vector<std::string> DriftedDocs(size_t n) {
  Rng rng(4242);
  std::vector<std::string> words(64);
  for (std::string& word : words) {
    const size_t length = rng.Range(4, 10);
    for (size_t i = 0; i < length; ++i) {
      word.push_back("ABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789"[rng.Uniform(36)]);
    }
  }
  std::vector<std::string> docs(n);
  for (std::string& doc : docs) {
    while (doc.size() < (2 << 10)) {
      doc += words[rng.Uniform(words.size())];
      doc += '-';
    }
  }
  return docs;
}

// The dictionaries of `epoch`, append and shard ones, that have built a
// suffix-array matcher.
std::set<const Dictionary*> MatcherDictionaries(const CorpusEpoch& epoch) {
  std::set<const Dictionary*> built;
  for (const auto& dict : epoch.append_dictionaries()) {
    if (dict->has_matcher()) built.insert(dict.get());
  }
  for (int s = 0; s < epoch.num_shards(); ++s) {
    const Dictionary& dict = epoch.shard(s).dictionary();
    if (dict.has_matcher()) built.insert(&dict);
  }
  return built;
}

TEST(RecoveryTest, KillAtEveryFsyncAcrossARefreshingSeal) {
  // Drifted 2 KB documents against TinyStore's 2 KB shard dictionaries:
  // the first seal comes out stale, and the second, whose tail holds more
  // than a dictionary's worth of text, samples a new append dictionary
  // from it. Kills land in the refreshing seal's record, in its
  // checkpoint's dictionary, shard, manifest, CURRENT and GC barriers,
  // and between them.
  const std::vector<std::string> docs = DriftedDocs(5);
  std::vector<ModelOp> script;
  script.push_back({'A'});
  script.push_back({'A'});
  script.push_back({'S'});  // stale against the base-sampled dictionary
  script.push_back({'A'});
  script.push_back({'A'});
  script.push_back({'S'});  // refreshes
  script.push_back({'A'});
  {
    const Collection collection = TestCollection(1 << 13, 271);
    bool made_durable = false;
    std::vector<std::string> dicts;
    ASSERT_EQ(RunScript(std::make_shared<FaultFs>(), collection, script, docs,
                        {}, 0, &made_durable, nullptr, nullptr, &dicts),
              script.size());
    ASSERT_EQ(dicts.size(), 2u) << "the second seal did not refresh";
  }
  KillAtEveryFsync(script, wal::WalWriterOptions{}, /*max_lost_ops=*/0,
                   /*tail_seal_bytes=*/0, docs);
}

// The kSeal payloads in the log `dir` holds past its live checkpoint.
std::vector<std::string> LoggedSealPayloads(
    const std::shared_ptr<FileSystem>& fs, const std::string& dir) {
  std::vector<std::string> payloads;
  auto current = wal::ReadCurrent(*fs, dir);
  EXPECT_TRUE(current.ok()) << current.status().ToString();
  if (!current.ok()) return payloads;
  auto info = wal::ReadCheckpointMeta(*fs, dir, *current);
  EXPECT_TRUE(info.ok()) << info.status().ToString();
  if (!info.ok()) return payloads;
  auto replay = wal::ReplayWal(
      fs, dir, info->covered_lsn,
      [&](uint64_t, wal::RecordType type, std::string_view payload) {
        if (type == wal::RecordType::kSeal) payloads.emplace_back(payload);
        return Status::OK();
      });
  EXPECT_TRUE(replay.ok()) << replay.status().ToString();
  return payloads;
}

TEST(RecoveryTest, ReplayedRefreshReproducesDictionaryAndShards) {
  // A drifted tail seals stale, a small one after it too; a compaction
  // rewrites one of them (it is not logged, but checkpoints); the next
  // seal refreshes the append dictionary, and the writer dies before
  // that seal's checkpoint commits. Replay obeys the seal's logged
  // payload, so the recovered store holds the crashed one's dictionaries
  // and shards byte for byte.
  const Collection collection = TestCollection(1 << 16, 271);
  const std::vector<std::string> docs = DriftedDocs(12);
  ShardedStoreOptions options;
  options.num_shards = 2;
  options.dict_bytes = 1 << 13;
  options.live.tail_seal_bytes = 0;
  options.live.compact_tombstone_fraction = 2.0;
  options.live.compact_stale_unused_fraction = 2.0;
  auto fs = std::make_shared<FaultFs>();
  auto store = ShardedStore::Build(collection, options);
  ASSERT_TRUE(store->MakeDurable("/store", {}, fs).ok());
  const auto append = [&](size_t from, size_t to) {
    for (size_t i = from; i < to; ++i) {
      ASSERT_TRUE(store->Append(docs[i]).ok());
    }
  };
  append(0, 4);  // 8 KB: twice a shard dictionary
  ASSERT_TRUE(store->SealTail().ok());
  append(4, 5);  // 2 KB: too small to refresh
  ASSERT_TRUE(store->SealTail().ok());
  ASSERT_EQ(store->epoch()->append_dictionaries().size(), 1u);
  auto compaction = store->CompactOnce();
  ASSERT_TRUE(compaction.ok()) << compaction.status().ToString();
  ASSERT_TRUE(compaction->compacted);
  EXPECT_EQ(compaction->reason, CompactionReport::Reason::kStaleDictionary);
  const uint64_t generation = store->checkpoint_generation();

  append(5, 12);
  fs->ArmCrash(2, /*before=*/true);  // the seal's record, then its checkpoint
  ASSERT_TRUE(store->SealTail().ok());
  ASSERT_TRUE(fs->crashed());
  EXPECT_EQ(store->checkpoint_generation(), generation);
  const auto crashed_epoch = store->epoch();
  ASSERT_EQ(crashed_epoch->append_dictionaries().size(), 2u);
  EXPECT_EQ(crashed_epoch->shard_dictionary(crashed_epoch->num_shards() - 1),
            1u);

  const std::shared_ptr<FaultFs> disk = fs->DurableClone();
  // Seven appends and the seal, which names its refresh.
  EXPECT_EQ(LoggedSealPayloads(disk->DurableClone(), "/store"),
            std::vector<std::string>{"R"});
  ShardedStore::RecoveryReport report;
  auto recovered_or = ShardedStore::OpenDurable("/store", {}, {}, disk,
                                                &report);
  ASSERT_TRUE(recovered_or.ok()) << recovered_or.status().ToString();
  auto recovered = std::move(recovered_or).value();
  EXPECT_EQ(report.generation, generation);
  EXPECT_EQ(report.replayed_records, 8u);
  ExpectSameStore(*store, *recovered);
  const auto epoch = recovered->epoch();
  ASSERT_EQ(epoch->append_dictionaries().size(), 2u);
  for (size_t d = 0; d < 2; ++d) {
    EXPECT_EQ(epoch->append_dictionaries()[d]->text(),
              crashed_epoch->append_dictionaries()[d]->text())
        << d;
  }
  for (int s = 0; s < epoch->num_shards(); ++s) {
    EXPECT_EQ(epoch->shard_dictionary(s), crashed_epoch->shard_dictionary(s))
        << s;
  }
  // Replay built one suffix array, the refreshed current dictionary's:
  // the retired one, current when the checkpoint was opened, got none.
  EXPECT_EQ(MatcherDictionaries(*epoch),
            std::set<const Dictionary*>{&epoch->append_dictionary()});
  EXPECT_TRUE(recovered->Append("appended after recovery").ok());
  EXPECT_TRUE(recovered->SealTail().ok());
}

TEST(RecoveryTest, SealPayloadIsEmptyOrTheRefreshByte) {
  // Replay decodes the kSeal payload and never guesses: an empty one
  // seals against the current dictionary as before refreshes existed,
  // and any payload other than the one refresh byte is Corruption.
  const Collection collection = TestCollection(1 << 13, 271);
  const std::vector<std::string> docs = SmallDocs(2);
  for (const std::string& payload : {std::string(), std::string("R"),
                                    std::string("X"), std::string("RR"),
                                    std::string(1, '\0')}) {
    auto fs = std::make_shared<FaultFs>();
    size_t shards = 0;
    {
      auto store = TinyStore(collection);
      ASSERT_TRUE(store->MakeDurable("/store", {}, fs).ok());
      for (const std::string& doc : docs) {
        ASSERT_TRUE(store->Append(doc).ok());
      }
      shards = static_cast<size_t>(store->num_shards());
    }
    // The crafted seal record continues the closed store's log.
    auto replay = wal::ReplayWal(
        fs, "/store", 0,
        [](uint64_t, wal::RecordType, std::string_view) {
          return Status::OK();
        });
    ASSERT_TRUE(replay.ok()) << replay.status().ToString();
    {
      auto writer = wal::WalWriter::Create(fs, "/store", /*generation=*/1,
                                           replay->next_seq,
                                           replay->next_lsn, {});
      ASSERT_TRUE(writer.ok()) << writer.status().ToString();
      ASSERT_TRUE((*writer)->Append(wal::RecordType::kSeal, payload).ok());
      ASSERT_TRUE((*writer)->Close().ok());
    }
    auto reopened = ShardedStore::OpenDurable("/store", {}, {}, fs);
    if (payload.empty() || payload == "R") {
      ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
      // The tail is under a dictionary's worth of text: a logged refresh
      // is still obeyed.
      EXPECT_EQ(static_cast<size_t>((*reopened)->num_shards()), shards + 1);
      EXPECT_EQ((*reopened)->epoch()->append_dictionaries().size(),
                payload.empty() ? 1u : 2u);
      std::string doc;
      ASSERT_TRUE((*reopened)->Get((*reopened)->num_docs() - 1, &doc).ok());
      EXPECT_EQ(doc, docs.back());
      // The replayed seal built one suffix array, the current append
      // dictionary's: a refresh's retired one never got one.
      const auto epoch = (*reopened)->epoch();
      EXPECT_EQ(MatcherDictionaries(*epoch),
                std::set<const Dictionary*>{&epoch->append_dictionary()});
    } else {
      EXPECT_EQ(reopened.status().code(), StatusCode::kCorruption)
          << payload.size() << ": " << reopened.status().ToString();
    }
  }
}

TEST(RecoveryTest, RecoveryWithTwoDictionariesBuildsOneSuffixArray) {
  // A checkpoint that holds a retired append dictionary (a shard still
  // binds to it) and the current one, and a WAL suffix with no seal:
  // neither recovery builds a suffix array. The writable one's first
  // seal builds the current dictionary's and no other, and seals the
  // same shard as a store that never crashed.
  const std::vector<std::string> docs = DriftedDocs(5);
  auto fs = std::make_shared<FaultFs>();
  std::string twin_shard;
  {
    auto store = TinyStore(TestCollection(1 << 13, 271));
    ASSERT_TRUE(store->MakeDurable("/store", {}, fs).ok());
    for (size_t i = 0; i < docs.size(); ++i) {
      ASSERT_TRUE(store->Append(docs[i]).ok());
      if (i == 1 || i == 3) {
        ASSERT_TRUE(store->SealTail().ok());
      }
    }
    ASSERT_EQ(store->epoch()->append_dictionaries().size(), 2u);
    // The twin seals its tail on a copy of the disk, leaving the
    // recoveries below the unsealed one.
    const std::shared_ptr<FaultFs> twin_fs = fs->DurableClone();
    ASSERT_TRUE(store->SealTail().ok());
    twin_shard = store->shard(store->num_shards() - 1).Serialize();
    fs = twin_fs;
  }
  for (const bool writable : {true, false}) {
    OpenOptions options;
    options.build_suffix_array = writable;
    auto recovered = ShardedStore::OpenDurable("/store", options, {},
                                               fs->DurableClone());
    ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
    const auto epoch = (*recovered)->epoch();
    ASSERT_EQ(epoch->append_dictionaries().size(), 2u);
    EXPECT_TRUE(MatcherDictionaries(*epoch).empty());
    std::string doc;
    const size_t first = (*recovered)->num_docs() - docs.size();
    for (size_t i = 0; i < docs.size(); ++i) {
      ASSERT_TRUE((*recovered)->Get(first + i, &doc).ok()) << i;
      EXPECT_EQ(doc, docs[i]) << i;
    }
    if (!writable) continue;
    ASSERT_TRUE((*recovered)->SealTail().ok());
    const auto sealed = (*recovered)->epoch();
    ASSERT_EQ(sealed->append_dictionaries().size(), 2u);
    EXPECT_EQ(MatcherDictionaries(*sealed),
              std::set<const Dictionary*>{&sealed->append_dictionary()});
    EXPECT_GT(sealed->append_dictionary().matcher().match_keys_bytes(), 0u);
    EXPECT_EQ(sealed->shard(sealed->num_shards() - 1).Serialize(),
              twin_shard);
  }
}

TEST(RecoveryTest, GroupCommitBoundsLossToUnsyncedBatch) {
  // With fsync_every_n = 4 an acked mutation may be lost — but only the
  // tail batch that never reached a barrier, never more.
  std::vector<ModelOp> script;
  for (int i = 0; i < 8; ++i) script.push_back({'A'});
  wal::WalWriterOptions wal_options;
  wal_options.fsync_every_n = 4;
  KillAtEveryFsync(script, wal_options, /*max_lost_ops=*/3);
}

// One transient WAL I/O error, injected by FlakyWalFs after two acked
// appends: the store must fail the faulted append and every mutation
// after it, publish nothing more, and reopen with every acked append and
// nothing acked after the fault.
void ExpectWalFaultIsFailStop(FlakyWalFs::Fault fault) {
  const Collection collection = TestCollection(1 << 13, 331);
  const std::vector<std::string> docs = SmallDocs(4);
  auto disk = std::make_shared<FaultFs>();
  auto fs = std::make_shared<FlakyWalFs>(disk);
  size_t base = 0;
  {
    auto store = TinyStore(collection);
    base = store->num_docs();
    ASSERT_TRUE(store->MakeDurable("/store", {}, fs).ok());
    ASSERT_TRUE(store->Append(docs[0]).ok());
    ASSERT_TRUE(store->Append(docs[1]).ok());
    fs->Arm(fault);
    EXPECT_FALSE(store->Append(docs[2]).ok());
    ASSERT_TRUE(fs->fired());
    // The file system works again; the store must not.
    EXPECT_FALSE(store->Append(docs[3]).ok());
    EXPECT_FALSE(store->Delete(0).ok());
    EXPECT_FALSE(store->SealTail().ok());
    EXPECT_FALSE(store->Checkpoint().ok());
    EXPECT_FALSE(store->SyncWal().ok());
    EXPECT_FALSE(store->CompactOnce().ok());
    // Nothing after the fault was published.
    EXPECT_EQ(store->num_docs(), base + 2);
    std::string doc;
    EXPECT_TRUE(store->Get(0, &doc).ok());
  }  // the destructor's Close must not write past the fault either

  auto reopened_or = ShardedStore::OpenDurable("/store", OpenOptions{}, {},
                                               disk->DurableClone());
  ASSERT_TRUE(reopened_or.ok()) << reopened_or.status().ToString();
  const ShardedStore& reopened = **reopened_or;
  // The faulted append was never acked, but its record may have reached
  // the disk whole before the error (an fsync error after the write).
  ASSERT_GE(reopened.num_docs(), base + 2);
  ASSERT_LE(reopened.num_docs(), base + 3);
  std::string doc;
  for (size_t i = base; i < reopened.num_docs(); ++i) {
    ASSERT_TRUE(reopened.Get(i, &doc).ok()) << i;
    EXPECT_EQ(doc, docs[i - base]) << i;
  }
  EXPECT_TRUE(reopened.Get(0, &doc).ok());  // the refused delete
}

TEST(RecoveryTest, WalWriteErrorIsFailStop) {
  ExpectWalFaultIsFailStop(FlakyWalFs::Fault::kWrite);
}

TEST(RecoveryTest, WalSyncErrorIsFailStop) {
  ExpectWalFaultIsFailStop(FlakyWalFs::Fault::kSync);
}

// The append that crosses the seal threshold is logged and published
// before its seal logs a record. When that kSeal write fails, the append
// still returns its id and serves; the WAL's latched error refuses the
// next mutation, and recovery keeps every acked append (strict sync
// loses none) with the tail unsealed.
TEST(RecoveryTest, FailedSealRecordKeepsTheAppendThatTriggeredIt) {
  const Collection collection = TestCollection(1 << 13, 351);
  const std::vector<std::string> docs = SmallDocs(4);
  auto disk = std::make_shared<FaultFs>();
  auto fs = std::make_shared<FlakyWalFs>(disk);
  size_t base = 0;
  {
    // The third append reaches the threshold and seals.
    auto store =
        TinyStore(collection, docs[0].size() + docs[1].size() + docs[2].size());
    base = store->num_docs();
    ASSERT_TRUE(store->MakeDurable("/store", {}, fs).ok());
    ASSERT_TRUE(store->Append(docs[0]).ok());
    ASSERT_TRUE(store->Append(docs[1]).ok());
    // Under fsync_every_n = 1 each record is one write: the append's
    // goes through, the seal's fails.
    fs->Arm(FlakyWalFs::Fault::kWrite, /*skip=*/1);
    auto id = store->Append(docs[2]);
    ASSERT_TRUE(fs->fired());
    ASSERT_TRUE(id.ok()) << id.status().ToString();
    EXPECT_EQ(*id, base + 2);
    std::string doc;
    ASSERT_TRUE(store->Get(*id, &doc).ok());
    EXPECT_EQ(doc, docs[2]);
    EXPECT_EQ(store->num_shards(), 2);  // the seal did not happen
    const auto next = store->Append(docs[3]);
    ASSERT_FALSE(next.ok());
    EXPECT_EQ(next.status().code(), StatusCode::kIOError)
        << next.status().ToString();
    EXPECT_EQ(store->num_docs(), base + 3);
  }

  auto reopened_or = ShardedStore::OpenDurable("/store", OpenOptions{}, {},
                                               disk->DurableClone());
  ASSERT_TRUE(reopened_or.ok()) << reopened_or.status().ToString();
  const ShardedStore& reopened = **reopened_or;
  ASSERT_EQ(reopened.num_docs(), base + 3);
  EXPECT_EQ(reopened.num_shards(), 2);
  std::string doc;
  for (size_t i = 0; i < 3; ++i) {
    ASSERT_TRUE(reopened.Get(base + i, &doc).ok()) << i;
    EXPECT_EQ(doc, docs[i]) << i;
  }
}

// A real process death: a child appends under `n`, syncs the WAL once,
// and exits without Close or any destructor. The frames buffered since
// the last sync point die with it; what reached the file must recover.
void ExpectProcessDeathLosesOnlyUnsyncedBatch(int n) {
  const Collection collection = TestCollection(1 << 13, 341);
  const std::vector<std::string> docs = SmallDocs(20);
  constexpr size_t kSyncedAt = 5;  // SyncWal after this many appends
  const std::string dir = FreshDir("process_death_" + std::to_string(n));
  wal::WalWriterOptions wal_options;
  wal_options.fsync_every_n = n;
  EXPECT_EXIT(
      {
        auto store = TinyStore(collection);
        if (!store->MakeDurable(dir, wal_options).ok()) std::_Exit(1);
        for (size_t i = 0; i < docs.size(); ++i) {
          if (!store->Append(docs[i]).ok()) std::_Exit(1);
          if (i + 1 == kSyncedAt && !store->SyncWal().ok()) std::_Exit(1);
        }
        std::_Exit(0);  // every append acked; no Close, no destructors
      },
      testing::ExitedWithCode(0), "");

  auto reopened_or =
      ShardedStore::OpenDurable(dir, OpenOptions{}, wal_options);
  ASSERT_TRUE(reopened_or.ok()) << reopened_or.status().ToString();
  const ShardedStore& reopened = **reopened_or;
  const size_t base = collection.num_docs();
  ASSERT_GE(reopened.num_docs(), base + kSyncedAt) << "n=" << n;
  ASSERT_LE(reopened.num_docs(), base + docs.size()) << "n=" << n;
  const size_t lost = base + docs.size() - reopened.num_docs();
  EXPECT_LE(lost, static_cast<size_t>(n - 1)) << "n=" << n;
  // Frames reach the file exactly at sync points: every n-th append
  // since the SyncWal. What followed the last one died with the child.
  EXPECT_EQ(lost, (docs.size() - kSyncedAt) % static_cast<size_t>(n))
      << "n=" << n;
  std::string doc;
  for (size_t i = base; i < reopened.num_docs(); ++i) {
    ASSERT_TRUE(reopened.Get(i, &doc).ok()) << "n=" << n << " id " << i;
    EXPECT_EQ(doc, docs[i - base]) << "n=" << n << " id " << i;
  }
}

TEST(RecoveryTest, ProcessDeathLosesNothingUnderStrictSync) {
  ExpectProcessDeathLosesOnlyUnsyncedBatch(1);
}

TEST(RecoveryTest, ProcessDeathLosesAtMostTheUnsyncedBatch) {
  ExpectProcessDeathLosesOnlyUnsyncedBatch(8);
}

// ---------------------------------------------------------------------------
// Torn-write and corruption fuzz on the real file system

// Copies a durable store directory so each fuzz iteration mutates a
// pristine replica (recovery itself rewrites files).
void CopyDir(const std::string& from, const std::string& to) {
  std::filesystem::remove_all(to);
  std::filesystem::copy(from, to,
                        std::filesystem::copy_options::recursive);
}

// Builds a durable store directory whose WAL tail holds live records.
// Returns the base doc count.
size_t BuildFuzzFixture(const Collection& collection, const std::string& dir,
                        std::vector<std::string>* docs) {
  *docs = SmallDocs(4);
  auto store = TinyStore(collection);
  const size_t base = store->num_docs();
  EXPECT_TRUE(store->MakeDurable(dir).ok());
  for (const std::string& doc : *docs) {
    EXPECT_TRUE(store->Append(doc).ok());
  }
  EXPECT_TRUE(store->Delete(base + 1).ok());
  return base;
}

// OpenDurable outcome check shared by the fuzz sweeps: the store either
// opens (and serves a self-consistent corpus whose every doc matches the
// attempted sequence) or fails with a clean error — it never crashes and
// never serves garbage bytes.
void CheckFuzzOutcome(const std::string& dir, const Collection& collection,
                      const std::vector<std::string>& docs, size_t base,
                      const std::string& what) {
  auto reopened_or = ShardedStore::OpenDurable(dir);
  if (!reopened_or.ok()) return;  // a clean error is a valid outcome
  auto reopened = std::move(reopened_or).value();
  ASSERT_GE(reopened->num_docs(), base) << what;
  ASSERT_LE(reopened->num_docs(), base + docs.size()) << what;
  std::string doc;
  for (size_t i = 0; i < base; ++i) {
    const Status status = reopened->Get(i, &doc);
    if (status.ok()) {
      ASSERT_EQ(doc, collection.doc(i)) << what << " id " << i;
    }
  }
  for (size_t i = base; i < reopened->num_docs(); ++i) {
    const Status status = reopened->Get(i, &doc);
    if (status.ok()) {
      ASSERT_EQ(doc, docs[i - base]) << what << " id " << i;
    }
  }
}

// The newest WAL segment file in `dir`.
std::string LastSegmentPath(const std::string& dir) {
  uint64_t best_seq = 0;
  std::string best;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    const std::string name = entry.path().filename().string();
    uint64_t seq = 0;
    if (wal::ParseSegmentFileName(name, &seq) &&
        (best.empty() || seq > best_seq)) {
      best_seq = seq;
      best = entry.path().string();
    }
  }
  return best;
}

TEST(RecoveryTest, TornTailFuzzEveryPrefixOfLastSegment) {
  const Collection collection = TestCollection(1 << 13, 281);
  const std::string pristine = FreshDir("fuzz_trunc_pristine");
  std::vector<std::string> docs;
  const size_t base = BuildFuzzFixture(collection, pristine, &docs);
  const std::string segment = LastSegmentPath(pristine);
  ASSERT_FALSE(segment.empty());
  const std::string bytes = ReadRaw(segment);
  ASSERT_GT(bytes.size(), wal::kSegmentHeaderSize);

  const std::string work = testing::TempDir() + "fuzz_trunc_work";
  for (size_t len = 0; len < bytes.size(); ++len) {
    CopyDir(pristine, work);
    const std::string target =
        work + "/" + std::filesystem::path(segment).filename().string();
    ASSERT_TRUE(
        WriteFile(target, std::string_view(bytes).substr(0, len)).ok());
    CheckFuzzOutcome(work, collection, docs, base,
                     "truncated to " + std::to_string(len));
  }
}

TEST(RecoveryTest, ByteFlipFuzzLastSegmentNeverCrashes) {
  const Collection collection = TestCollection(1 << 13, 291);
  const std::string pristine = FreshDir("fuzz_flip_pristine");
  std::vector<std::string> docs;
  const size_t base = BuildFuzzFixture(collection, pristine, &docs);
  const std::string segment = LastSegmentPath(pristine);
  ASSERT_FALSE(segment.empty());
  const std::string bytes = ReadRaw(segment);

  const std::string work = testing::TempDir() + "fuzz_flip_work";
  for (size_t i = 0; i < bytes.size(); ++i) {
    CopyDir(pristine, work);
    std::string flipped = bytes;
    flipped[i] = static_cast<char>(flipped[i] ^ 0x01);
    const std::string target =
        work + "/" + std::filesystem::path(segment).filename().string();
    ASSERT_TRUE(WriteFile(target, flipped).ok());
    CheckFuzzOutcome(work, collection, docs, base,
                     "flipped byte " + std::to_string(i));
  }
}

TEST(RecoveryTest, ByteFlipFuzzCurrentFallsBackCleanly) {
  const Collection collection = TestCollection(1 << 13, 301);
  const std::string pristine = FreshDir("fuzz_current_pristine");
  std::vector<std::string> docs;
  const size_t base = BuildFuzzFixture(collection, pristine, &docs);
  const std::string current = pristine + "/" + wal::kCurrentFileName;
  const std::string bytes = ReadRaw(current);

  const std::string work = testing::TempDir() + "fuzz_current_work";
  for (size_t i = 0; i < bytes.size(); ++i) {
    CopyDir(pristine, work);
    std::string flipped = bytes;
    flipped[i] = static_cast<char>(flipped[i] ^ 0x01);
    ASSERT_TRUE(
        WriteFile(work + "/" + wal::kCurrentFileName, flipped).ok());
    // A damaged CURRENT falls back to the meta scan, which finds the one
    // complete checkpoint — so this must always open, fully recovered.
    auto reopened_or = ShardedStore::OpenDurable(work);
    ASSERT_TRUE(reopened_or.ok())
        << "flipped byte " << i << ": " << reopened_or.status().ToString();
    auto reopened = std::move(reopened_or).value();
    ASSERT_EQ(reopened->num_docs(), base + docs.size()) << "byte " << i;
    std::string doc;
    ASSERT_TRUE(reopened->Get(base, &doc).ok()) << "byte " << i;
    EXPECT_EQ(doc, docs[0]);
  }
}

TEST(RecoveryTest, MissingCurrentScanFallback) {
  const Collection collection = TestCollection(1 << 13, 311);
  const std::string dir = FreshDir("fuzz_current_missing");
  std::vector<std::string> docs;
  const size_t base = BuildFuzzFixture(collection, dir, &docs);
  ASSERT_TRUE(std::filesystem::remove(dir + "/" + wal::kCurrentFileName));

  auto reopened_or = ShardedStore::OpenDurable(dir);
  ASSERT_TRUE(reopened_or.ok()) << reopened_or.status().ToString();
  EXPECT_EQ((*reopened_or)->num_docs(), base + docs.size());

  // An empty directory, by contrast, is a clean Corruption.
  const std::string empty = FreshDir("fuzz_empty_dir");
  auto empty_or = ShardedStore::OpenDurable(empty);
  ASSERT_FALSE(empty_or.ok());
  EXPECT_EQ(empty_or.status().code(), StatusCode::kCorruption);
}

// ---------------------------------------------------------------------------
// Property test: random interleavings replay byte-identically

TEST(RecoveryTest, RandomInterleavingsReplayByteIdentical) {
  const Collection collection = TestCollection(1 << 14, 321);
  const Collection extra = TestCollection(1 << 13, 322);

  for (const int writers : {1, 2, 4}) {
    const std::string dir =
        FreshDir("recovery_prop_" + std::to_string(writers));
    std::vector<std::string> expected_docs;
    std::vector<bool> expected_deleted;
    {
      auto store = TinyStore(collection);
      ASSERT_TRUE(store->MakeDurable(dir).ok());

      auto worker = [&](int worker_id) {
        Rng rng(1000 * static_cast<uint64_t>(writers) +
                static_cast<uint64_t>(worker_id));
        for (int op = 0; op < 16; ++op) {
          const double dice = rng.NextDouble();
          if (dice < 0.55) {
            (void)store->Append(
                extra.doc(rng.Uniform(extra.num_docs())));
          } else if (dice < 0.80) {
            // Deleting an already-deleted or unknown id fails cleanly;
            // that is part of the interleaving space.
            (void)store->Delete(rng.Uniform(store->num_docs()));
          } else if (dice < 0.92) {
            (void)store->SealTail();
          } else {
            (void)store->CompactOnce();
          }
        }
      };
      std::vector<std::thread> threads;
      for (int w = 0; w < writers; ++w) threads.emplace_back(worker, w);
      for (auto& t : threads) t.join();

      // The pre-shutdown truth, id by id.
      std::string doc;
      for (size_t id = 0; id < store->num_docs(); ++id) {
        const Status status = store->Get(id, &doc);
        if (status.ok()) {
          expected_docs.push_back(doc);
          expected_deleted.push_back(false);
        } else {
          ASSERT_EQ(status.code(), StatusCode::kNotFound) << "id " << id;
          expected_docs.emplace_back();
          expected_deleted.push_back(true);
        }
      }
    }  // clean shutdown

    auto reopened_or = ShardedStore::OpenDurable(dir);
    ASSERT_TRUE(reopened_or.ok())
        << "writers=" << writers << ": " << reopened_or.status().ToString();
    auto reopened = std::move(reopened_or).value();
    ASSERT_EQ(reopened->num_docs(), expected_docs.size())
        << "writers=" << writers;
    std::string doc;
    for (size_t id = 0; id < expected_docs.size(); ++id) {
      const Status status = reopened->Get(id, &doc);
      if (expected_deleted[id]) {
        EXPECT_EQ(status.code(), StatusCode::kNotFound)
            << "writers=" << writers << " id " << id;
      } else {
        ASSERT_TRUE(status.ok())
            << "writers=" << writers << " id " << id << ": "
            << status.ToString();
        EXPECT_EQ(doc, expected_docs[id])
            << "writers=" << writers << " id " << id;
      }
    }
  }
}

}  // namespace
}  // namespace rlz
