#include "trace.h"

#include <string>
#include <unordered_map>

namespace perfbench {
namespace {

thread_local uint64_t t_wal_ns = 0;

bool IsWalSegment(const std::string& path) {
  const size_t slash = path.find_last_of('/');
  const std::string base =
      slash == std::string::npos ? path : path.substr(slash + 1);
  return base.rfind("wal-", 0) == 0;
}

uint32_t Clamp32(uint64_t v) {
  return static_cast<uint32_t>(std::min<uint64_t>(v, UINT32_MAX));
}

class TimedFile final : public rlz::WritableFile {
 public:
  TimedFile(std::unique_ptr<rlz::WritableFile> base, TimingFileSystem* fs)
      : base_(std::move(base)), fs_(fs) {}

  rlz::Status Append(std::string_view data) override {
    const uint64_t start = NowNs();
    rlz::Status status = base_->Append(data);
    const uint64_t ns = NowNs() - start;
    t_wal_ns += ns;
    fs_->RecordAppend(ns, data.size());
    return status;
  }
  rlz::Status Sync() override {
    const uint64_t start = NowNs();
    rlz::Status status = base_->Sync();
    const uint64_t ns = NowNs() - start;
    t_wal_ns += ns;
    fs_->RecordSync(ns);
    return status;
  }
  rlz::Status Close() override { return base_->Close(); }

 private:
  std::unique_ptr<rlz::WritableFile> base_;
  TimingFileSystem* fs_;
};

uint64_t KeyOf(uint64_t id, int item) {
  return (id << 4) | static_cast<uint64_t>(item + 1);
}

}  // namespace

TimingFileSystem::TimingFileSystem() : base_(rlz::DefaultFileSystem()) {}

rlz::StatusOr<std::string> TimingFileSystem::Read(
    const std::string& path) const {
  return base_->Read(path);
}

rlz::StatusOr<std::unique_ptr<rlz::WritableFile>> TimingFileSystem::Create(
    const std::string& path) {
  auto file = base_->Create(path);
  if (!file.ok() || !IsWalSegment(path)) return file;
  return std::unique_ptr<rlz::WritableFile>(
      new TimedFile(std::move(file).value(), this));
}

rlz::Status TimingFileSystem::Rename(const std::string& from,
                                     const std::string& to) {
  return base_->Rename(from, to);
}

rlz::Status TimingFileSystem::Remove(const std::string& path) {
  return base_->Remove(path);
}

rlz::StatusOr<std::vector<std::string>> TimingFileSystem::List(
    const std::string& dir) const {
  return base_->List(dir);
}

rlz::Status TimingFileSystem::CreateDir(const std::string& dir) {
  return base_->CreateDir(dir);
}

rlz::Status TimingFileSystem::SyncDir(const std::string& dir) {
  return base_->SyncDir(dir);
}

bool TimingFileSystem::Exists(const std::string& path) const {
  return base_->Exists(path);
}

WalTimings TimingFileSystem::timings() const {
  std::lock_guard<std::mutex> lock(mu_);
  return timings_;
}

void TimingFileSystem::RecordAppend(uint64_t ns, uint64_t bytes) {
  std::lock_guard<std::mutex> lock(mu_);
  timings_.append_ns.push_back(Clamp32(ns));
  timings_.bytes += bytes;
}

void TimingFileSystem::RecordSync(uint64_t ns) {
  std::lock_guard<std::mutex> lock(mu_);
  timings_.sync_ns.push_back(Clamp32(ns));
}

uint64_t ThreadWalNs() { return t_wal_ns; }

double MedianSelfUs(const std::vector<Span>& parent,
                    const std::vector<Span>& children) {
  // Child time by (id, item) and by id.
  std::unordered_map<uint64_t, int64_t> child_ns;
  for (const Span& c : children) {
    const int64_t d = static_cast<int64_t>(c.end_ns - c.start_ns);
    child_ns[KeyOf(c.id, c.item)] += d;
    if (c.item >= 0) child_ns[KeyOf(c.id, -1)] += d;
  }
  std::unordered_map<uint64_t, int64_t> self_ns;  // by request id
  for (const Span& p : parent) {
    int64_t self = static_cast<int64_t>(p.end_ns - p.start_ns);
    if (!p.leaf) {
      const auto it = child_ns.find(KeyOf(p.id, p.item));
      if (it != child_ns.end()) self -= it->second;
    }
    self_ns[p.id] += self;
  }
  std::vector<int64_t> selfs;
  selfs.reserve(self_ns.size());
  for (const auto& entry : self_ns) selfs.push_back(entry.second);
  return Median(selfs) / 1e3;
}

double MedianSpanUs(const std::vector<Span>& spans) {
  std::vector<uint64_t> d;
  d.reserve(spans.size());
  for (const Span& s : spans) d.push_back(s.end_ns - s.start_ns);
  return Median(d) / 1e3;
}

}  // namespace perfbench
