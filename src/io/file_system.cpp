#include "io/file_system.h"

#include <dirent.h>
#include <fcntl.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "io/file.h"

namespace rlz {
namespace {

std::string Errno(const std::string& what, const std::string& path) {
  return what + " " + path + ": " + std::strerror(errno);
}

class PosixWritableFile final : public WritableFile {
 public:
  PosixWritableFile(int fd, std::string path)
      : fd_(fd), path_(std::move(path)) {}
  ~PosixWritableFile() override { (void)Close(); }

  Status Append(std::string_view data) override {
    if (fd_ < 0) return Status::IOError(path_ + ": append on closed file");
    const char* p = data.data();
    size_t left = data.size();
    while (left > 0) {
      const ssize_t n = ::write(fd_, p, left);
      if (n < 0) {
        if (errno == EINTR) continue;
        return Status::IOError(Errno("cannot write", path_));
      }
      p += n;
      left -= static_cast<size_t>(n);
    }
    return Status::OK();
  }

  Status Sync() override {
    if (fd_ < 0) return Status::IOError(path_ + ": sync on closed file");
    if (::fsync(fd_) != 0) {
      return Status::IOError(Errno("cannot fsync", path_));
    }
    return Status::OK();
  }

  Status Close() override {
    if (fd_ < 0) return Status::OK();
    const int rc = ::close(fd_);
    fd_ = -1;
    if (rc != 0) return Status::IOError(Errno("cannot close", path_));
    return Status::OK();
  }

 private:
  int fd_;
  std::string path_;
};

class PosixFileSystem final : public FileSystem {
 public:
  StatusOr<std::string> Read(const std::string& path) const override {
    return ReadFile(path);
  }

  StatusOr<std::unique_ptr<WritableFile>> Create(
      const std::string& path) override {
    const int fd = ::open(path.c_str(),
                          O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
    if (fd < 0) return Status::IOError(Errno("cannot create", path));
    return std::unique_ptr<WritableFile>(new PosixWritableFile(fd, path));
  }

  Status Rename(const std::string& from, const std::string& to) override {
    if (::rename(from.c_str(), to.c_str()) != 0) {
      return Status::IOError(Errno("cannot rename", from + " -> " + to));
    }
    return Status::OK();
  }

  Status Remove(const std::string& path) override {
    if (::unlink(path.c_str()) != 0) {
      return Status::IOError(Errno("cannot remove", path));
    }
    return Status::OK();
  }

  StatusOr<std::vector<std::string>> List(
      const std::string& dir) const override {
    DIR* d = ::opendir(dir.c_str());
    if (d == nullptr) return Status::IOError(Errno("cannot list", dir));
    std::vector<std::string> names;
    while (struct dirent* entry = ::readdir(d)) {
      const std::string name = entry->d_name;
      if (name != "." && name != "..") names.push_back(name);
    }
    ::closedir(d);
    return names;
  }

  Status CreateDir(const std::string& dir) override {
    if (::mkdir(dir.c_str(), 0755) != 0 && errno != EEXIST) {
      return Status::IOError(Errno("cannot create directory", dir));
    }
    return Status::OK();
  }

  Status SyncDir(const std::string& dir) override {
    const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
    if (fd < 0) return Status::IOError(Errno("cannot open directory", dir));
    const int rc = ::fsync(fd);
    ::close(fd);
    if (rc != 0) return Status::IOError(Errno("cannot fsync directory", dir));
    return Status::OK();
  }

  bool Exists(const std::string& path) const override {
    struct stat st;
    return ::stat(path.c_str(), &st) == 0;
  }
};

}  // namespace

Status FileSystem::WriteFileSynced(const std::string& path,
                                   std::string_view data) {
  RLZ_ASSIGN_OR_RETURN(std::unique_ptr<WritableFile> file, Create(path));
  RLZ_RETURN_IF_ERROR(file->Append(data));
  RLZ_RETURN_IF_ERROR(file->Sync());
  return file->Close();
}

std::shared_ptr<FileSystem> DefaultFileSystem() {
  static std::shared_ptr<FileSystem>* fs =
      new std::shared_ptr<FileSystem>(new PosixFileSystem());
  return *fs;
}

}  // namespace rlz
